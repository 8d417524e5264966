(* Per-domain flight recorder.

   The rewind primitive destroys the evidence an operator needs most: by
   the time an incident is visible, the faulting domain's stack and heap
   — the request it was serving, the locks it took, the allocations it
   poisoned — have been discarded by design. The flight recorder keeps a
   bounded ring of small structured events {e per domain}, stored through
   checked {!Vmem.Space} accesses in the {e monitor's} protected heap, so
   the record survives the rewind of the domain it describes: compartment
   code cannot reach it, and discarding the domain's own memory does not
   touch it.

   Events are deliberately tiny and fixed-size (six 64-bit words): a
   virtual timestamp, a kind, the acting thread, the causal trace id of
   the request being served, one kind-specific argument, and the owning
   domain. At rewind
   intent time the last few events of every victim domain are snapshotted
   into the durable {!Rewind_log} record, giving each audit entry its own
   black-box excerpt even after the ring has wrapped. *)

module Space = Vmem.Space

type kind =
  | Admit  (* supervisor admitted a request into the domain *)
  | Switch_in  (* domain entered (PKRU switched to its view) *)
  | Switch_out  (* domain exited normally *)
  | Alloc_poison  (* sanitizer poisoned/unpoisoned an allocation *)
  | Lock_acquire  (* domain-owned lock taken *)
  | Fault  (* the fault that triggered a rewind *)
  | Shed  (* request shed before the domain switch *)
  | Replay  (* journal replay served instead of re-executing *)
  | Route  (* cluster router forwarded a request to this shard *)
  | Failover  (* shard received re-routed traffic / a journal re-seed *)
  | Race  (* race-detector finding published into the ring *)

type event = {
  e_at : float;  (* virtual cycles *)
  e_tid : int;
  e_kind : kind;
  e_udi : int;
  e_trace : int;  (* 0 = no causal context *)
  e_arg : int;
}

let kind_code = function
  | Admit -> 0
  | Switch_in -> 1
  | Switch_out -> 2
  | Alloc_poison -> 3
  | Lock_acquire -> 4
  | Fault -> 5
  | Shed -> 6
  | Replay -> 7
  | Route -> 8
  | Failover -> 9
  | Race -> 10

let code_kind = function
  | 0 -> Admit
  | 1 -> Switch_in
  | 2 -> Switch_out
  | 3 -> Alloc_poison
  | 4 -> Lock_acquire
  | 5 -> Fault
  | 6 -> Shed
  | 8 -> Route
  | 9 -> Failover
  | 10 -> Race
  | _ -> Replay

let kind_to_string = function
  | Admit -> "admit"
  | Switch_in -> "switch-in"
  | Switch_out -> "switch-out"
  | Alloc_poison -> "alloc-poison"
  | Lock_acquire -> "lock-acquire"
  | Fault -> "fault"
  | Shed -> "shed"
  | Replay -> "replay"
  | Route -> "route"
  | Failover -> "failover"
  | Race -> "race"

(* {1 Memory layout}

   One ring block per domain:
     +0 magic  +8 udi  +16 cap  +24 head (next slot)  +32 total
     +40 cap * 48-byte event slots:
       +0 cycles  +8 kind  +16 tid+1  +24 trace  +32 arg  +40 udi

   Trace ids are minted masked to 62 bits (see {!Telemetry.Context}), so
   they round-trip through the OCaml-int-valued store64 word losslessly. *)

let ring_magic = 0x464C_5452 (* "FLTR" *)
let ring_hdr = 40
let event_size = 48
let stored_size = event_size

type t = {
  space : Space.t;
  heap : Tlsf.t;
  cap : int;  (* events retained per domain *)
  max_domains : int;  (* rings kept before FIFO eviction *)
  rings : (int, int) Hashtbl.t;  (* udi -> ring block address *)
  order : int Queue.t;  (* udis in ring-creation order *)
  mutable m_recorded : int;
  mutable m_dropped : int;  (* eviction, wrap and alloc-failure losses *)
  mutable m_bytes : int;  (* monitor-heap bytes currently held by rings *)
}

let create space ~heap ?(cap = 32) ?(max_domains = 64) () =
  if cap <= 0 || max_domains <= 0 then invalid_arg "Flight.create";
  {
    space;
    heap;
    cap;
    max_domains;
    rings = Hashtbl.create 16;
    order = Queue.create ();
    m_recorded = 0;
    m_dropped = 0;
    m_bytes = 0;
  }

let w t a v = Space.store64 t.space a v
let r t a = Space.load64 t.space a

let ring_size t = ring_hdr + (t.cap * event_size)

let free_ring t udi =
  match Hashtbl.find_opt t.rings udi with
  | None -> ()
  | Some addr ->
      (* history lost with the ring is counted, never silent *)
      t.m_dropped <- t.m_dropped + min (r t (addr + 32)) t.cap;
      t.m_bytes <- t.m_bytes - Tlsf.usable_size t.heap addr;
      Tlsf.free t.heap addr;
      Hashtbl.remove t.rings udi

let evict_oldest t =
  match Queue.take_opt t.order with
  | None -> false
  | Some udi ->
      free_ring t udi;
      true

let alloc_ring t udi =
  while Hashtbl.length t.rings >= t.max_domains && evict_oldest t do
    ()
  done;
  let rec go () =
    match Tlsf.malloc_opt t.heap (ring_size t) with
    | Some addr ->
        w t addr ring_magic;
        w t (addr + 8) udi;
        w t (addr + 16) t.cap;
        w t (addr + 24) 0;
        w t (addr + 32) 0;
        Hashtbl.replace t.rings udi addr;
        Queue.add udi t.order;
        t.m_bytes <- t.m_bytes + Tlsf.usable_size t.heap addr;
        Some addr
    | None -> if evict_oldest t then go () else None
  in
  go ()

(* Event (de)serialization against a raw space address — shared with
   {!Rewind_log}, which embeds event excerpts in its audit blocks. *)
let store_words space addr ~at ~kind ~tid ~trace ~arg ~udi =
  Space.store64 space addr at;
  Space.store64 space (addr + 8) (kind_code kind);
  Space.store64 space (addr + 16) (tid + 1);
  Space.store64 space (addr + 24) trace;
  Space.store64 space (addr + 32) arg;
  Space.store64 space (addr + 40) udi

let store space addr ev =
  store_words space addr ~at:(int_of_float ev.e_at) ~kind:ev.e_kind
    ~tid:ev.e_tid ~trace:ev.e_trace ~arg:ev.e_arg
    ~udi:ev.e_udi

let load space addr =
  {
    e_at = float_of_int (Space.load64 space addr);
    e_kind = code_kind (Space.load64 space (addr + 8));
    e_tid = Space.load64 space (addr + 16) - 1;
    e_trace = Space.load64 space (addr + 24);
    e_arg = Space.load64 space (addr + 32);
    e_udi = Space.load64 space (addr + 40);
  }

let load_event t = load t.space

(* Runs on every domain switch: the six words go straight to the ring,
   with no [event] record and no option in between (address 0 is never a
   ring — page 0 is unmapped). Every argument is an int, the words it
   stores, so a call from another module boxes nothing. *)
let record t ~udi ~tid ~at ~trace ~arg kind =
  let addr =
    match Hashtbl.find t.rings udi with
    | a -> a
    | exception Not_found -> (
        match alloc_ring t udi with Some a -> a | None -> 0)
  in
  if addr = 0 then t.m_dropped <- t.m_dropped + 1
  else begin
    let head = r t (addr + 24) in
    let total = r t (addr + 32) in
    if total >= t.cap then t.m_dropped <- t.m_dropped + 1;
    store_words t.space
      (addr + ring_hdr + (head * event_size))
      ~at ~kind ~tid ~trace ~arg ~udi;
    w t (addr + 24) ((head + 1) mod t.cap);
    w t (addr + 32) (total + 1);
    t.m_recorded <- t.m_recorded + 1
  end

let events t ~udi =
  match Hashtbl.find_opt t.rings udi with
  | None -> []
  | Some addr ->
      let head = r t (addr + 24) in
      let total = r t (addr + 32) in
      let n = min total t.cap in
      let first = (head - n + t.cap) mod t.cap in
      List.init n (fun i ->
          let slot = (first + i) mod t.cap in
          load_event t (addr + ring_hdr + (slot * event_size)))

let event_words = 6

(* The rewind's copy of a ring, into the monitor's int buffer: every
   retained event is read, oldest first, with the loads [events] makes —
   the header's head and total, then each event's six words in the order
   [load] evaluates its record's fields, last declared first — and the
   last [n] are kept, in the words [store] would write for them. *)
let excerpt_into t ~udi ~n words pos =
  match Hashtbl.find t.rings udi with
  | exception Not_found -> pos
  | addr ->
      let head = r t (addr + 24) in
      let total = r t (addr + 32) in
      let m = min total t.cap in
      let first = (head - m + t.cap) mod t.cap in
      let pos = ref pos in
      for i = 0 to m - 1 do
        let a = addr + ring_hdr + (((first + i) mod t.cap) * event_size) in
        let arg = r t (a + 32) in
        let trace = r t (a + 24) in
        let udi = r t (a + 40) in
        let kind = r t (a + 8) in
        let tid = r t (a + 16) in
        let at = r t a in
        if i >= m - n then begin
          let p = !pos in
          words.(p) <- int_of_float (float_of_int at);
          words.(p + 1) <- kind_code (code_kind kind);
          words.(p + 2) <- tid;
          words.(p + 3) <- trace;
          words.(p + 4) <- arg;
          words.(p + 5) <- udi;
          pos := p + event_words
        end
      done;
      !pos

let domains t =
  List.filter (Hashtbl.mem t.rings) (List.of_seq (Queue.to_seq t.order))

let recorded t = t.m_recorded
let dropped t = t.m_dropped
let bytes t = t.m_bytes
