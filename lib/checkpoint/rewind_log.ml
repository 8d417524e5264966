(* Durable two-phase rewind transaction log.

   The rewind primitive discards a whole nested-domain subtree; a second
   fault arriving *during* that discard must never leave a
   partially-rolled-back tree behind (the "must-fix F1" of the Intercore
   rollback review: a partially-rolled-back run with no recovery path).
   This module gives the reference monitor the two pieces that make the
   discard transactional and the history queryable:

   - an {e intent record}, written into monitor-root simulated memory
     {e before} the first discard: incident id, trigger, and the ordered
     domain subtree with every stack/heap extent about to be thrown away,
     plus a progress counter advanced after each domain. A fault injected
     mid-rewind resumes from the progress counter instead of corrupting
     the tree — and because the record lives in protected monitor memory,
     nothing a compartment can do reaches it.

   - a bounded append-only {e audit log} of committed incidents: the
     intent record, once the last domain is discarded, is stamped with an
     end time and linked into a FIFO ring ("rollback is not undo":
     history must survive and be queryable). Evictions beyond the
     capacity are counted durably in the log header, never silent.

   Everything is stored through checked {!Vmem.Space} accesses in a
   caller-supplied heap (the monitor's TLSF heap), so the log is real,
   protected, RSS-visible memory — the same property domain records and
   saved contexts already have.

   One incident can span several blocks: when a rewind propagates to the
   grandparent (collateral exits of intermediate frames), each additional
   subtree is chained as a {e continuation block} of the same incident,
   so the report still shows exactly one record per rewind. *)

module Space = Vmem.Space

type kind = [ `Segv | `Stack_smash | `Explicit ]

type extent = {
  x_udi : int;
  x_was : [ `Entered | `Ready | `Dormant ];
  x_stack : int * int;  (* base, len *)
  x_regions : (int * int) list;  (* sub-heap regions, (base, len) *)
}

type record = {
  r_id : int;
  r_target : int;  (* the domain the trigger fault failed in *)
  r_tid : int;
  r_kind : kind;
  r_si : string;  (* si_code rendering, "-" when not a SEGV *)
  r_fault_addr : int;
  r_msg : string;  (* access kind / explicit abort message *)
  r_subtree : extent list;  (* discard order, continuations merged *)
  r_replays : int;  (* cumulative journal replay hits at commit *)
  r_start : float;
  r_end : float;
  r_interrupts : int;  (* faults absorbed mid-rewind by the intent *)
  r_events : Flight.event list;
      (* flight-recorder excerpt captured at intent time, continuations
         merged, oldest first *)
}

(* {1 Memory layout}

   Header block (one per log):
     +0 magic  +8 next id  +16 appended  +24 dropped  +32 intent head

   Incident block (one per begin_incident; all slots are store64 words):
     +0   magic          +8   incident id   +16  committed flag
     +24  continuation   +32  target udi    +40  tid
     +48  trigger kind   +56  fault addr    +64  t_start (cycles)
     +72  t_end (cycles) +80  interrupts    +88  journal replays
     +96  n domains      +104 progress      +112 si len
     +120 msg len        +128 n events
     +136 si bytes, msg bytes (each padded to 8),
          then n * Flight.stored_size flight-recorder event slots
          (the black-box excerpt captured at intent time),
          then per domain:
            udi, prior state, stack base, stack len,
            n regions, (addr, len) per region *)

let hdr_magic = 0x5244_4C47 (* "RDLG" *)
let blk_magic = 0x5245_5749 (* "REWI" *)
let hdr_size = 40
let blk_fixed = 136
let str_cap = 96 (* si/msg truncation bound *)

type t = {
  space : Space.t;
  heap : Tlsf.t;
  cap : int;
  header : int;
  ring : int Queue.t;  (* committed incident head blocks, oldest first *)
  mutable head : int;  (* in-flight incident head block, 0 = none *)
  mutable tail : int;  (* active (last) block of the in-flight chain *)
  (* Mirrors of the durable header words, for telemetry closures that are
     sampled from contexts whose PKRU denies the monitor key. *)
  mutable m_appended : int;
  mutable m_dropped : int;
  mutable m_bytes : int;  (* bytes currently held by record blocks *)
}

let w t a v = Space.store64 t.space a v
let r t a = Space.load64 t.space a

let create space ~heap ~cap =
  let cap = max 1 cap in
  let header = Tlsf.malloc heap hdr_size in
  let t =
    {
      space;
      heap;
      cap;
      header;
      ring = Queue.create ();
      head = 0;
      tail = 0;
      m_appended = 0;
      m_dropped = 0;
      m_bytes = 0;
    }
  in
  w t header hdr_magic;
  w t (header + 8) 1;
  w t (header + 16) 0;
  w t (header + 24) 0;
  w t (header + 32) 0;
  t

let pending t = t.head <> 0
let appended t = t.m_appended
let dropped t = t.m_dropped
let retained t = Queue.length t.ring
let bytes t = t.m_bytes

let align8 n = (n + 7) land lnot 7

let trunc s = if String.length s > str_cap then String.sub s 0 str_cap else s

let kind_code = function `Segv -> 0 | `Stack_smash -> 1 | `Explicit -> 2
let code_kind = function 0 -> `Segv | 1 -> `Stack_smash | _ -> `Explicit
let was_code = function `Entered -> 0 | `Ready -> 1 | `Dormant -> 2
let code_was = function 0 -> `Entered | 1 -> `Ready | _ -> `Dormant

let block_size ~si ~msg ~events ~subtree =
  blk_fixed
  + align8 (String.length si)
  + align8 (String.length msg)
  + (Flight.stored_size * List.length events)
  + List.fold_left
      (fun acc x -> acc + (8 * (5 + (2 * List.length x.x_regions))))
      0 subtree

(* Free one incident (its whole continuation chain). *)
let free_chain t addr =
  let rec go a =
    if a <> 0 then begin
      let next = r t (a + 24) in
      t.m_bytes <- t.m_bytes - Tlsf.usable_size t.heap a;
      Tlsf.free t.heap a;
      go next
    end
  in
  go addr

let drop_oldest t =
  match Queue.take_opt t.ring with
  | None -> false
  | Some oldest ->
      free_chain t oldest;
      w t (t.header + 24) (r t (t.header + 24) + 1);
      t.m_dropped <- t.m_dropped + 1;
      true

(* Allocate under memory pressure: committed history is worth less than
   the in-flight intent, so evict oldest records until the block fits. *)
let alloc_block t size =
  let rec go () =
    match Tlsf.malloc_opt t.heap size with
    | Some a ->
        t.m_bytes <- t.m_bytes + Tlsf.usable_size t.heap a;
        Some a
    | None -> if drop_oldest t then go () else None
  in
  go ()

let write_block t addr ~id ~target ~tid ~kind ~si ~fault_addr ~msg ~at ~events
    ~subtree =
  w t addr blk_magic;
  w t (addr + 8) id;
  w t (addr + 16) 0;
  w t (addr + 24) 0;
  w t (addr + 32) target;
  w t (addr + 40) tid;
  w t (addr + 48) (kind_code kind);
  w t (addr + 56) fault_addr;
  w t (addr + 64) (int_of_float at);
  w t (addr + 72) 0;
  w t (addr + 80) 0;
  w t (addr + 88) 0;
  w t (addr + 96) (List.length subtree);
  w t (addr + 104) 0;
  w t (addr + 112) (String.length si);
  w t (addr + 120) (String.length msg);
  w t (addr + 128) (List.length events);
  let p = addr + blk_fixed in
  if si <> "" then Space.store_string t.space p si;
  let p = p + align8 (String.length si) in
  if msg <> "" then Space.store_string t.space p msg;
  let p = ref (p + align8 (String.length msg)) in
  List.iter
    (fun ev ->
      Flight.store t.space !p ev;
      p := !p + Flight.stored_size)
    events;
  List.iter
    (fun x ->
      let base, len = x.x_stack in
      w t !p x.x_udi;
      w t (!p + 8) (was_code x.x_was);
      w t (!p + 16) base;
      w t (!p + 24) len;
      w t (!p + 32) (List.length x.x_regions);
      p := !p + 40;
      List.iter
        (fun (a, l) ->
          w t !p a;
          w t (!p + 8) l;
          p := !p + 16)
        x.x_regions)
    subtree

(* Phase 1: durably record what is about to be discarded. [continue]
   chains the subtree onto the in-flight incident (collateral exits of a
   grandparent rewind); a fresh incident takes the next id. Returns
   [false] — the rewind proceeds unaudited — when even eviction cannot
   make room, or when a continuation has no incident to continue. *)
let begin_incident t ~continue ~target ~tid ~kind ~si ~fault_addr ~msg ~at
    ?(events = []) ~subtree () =
  let si = trunc si and msg = trunc msg in
  if continue && t.head = 0 then false
  else
    match alloc_block t (block_size ~si ~msg ~events ~subtree) with
    | None -> false
    | Some addr ->
        if continue then begin
          write_block t addr ~id:(r t (t.head + 8)) ~target ~tid ~kind ~si
            ~fault_addr ~msg ~at ~events ~subtree;
          w t (t.tail + 24) addr;
          t.tail <- addr;
          true
        end
        else begin
          let id = r t (t.header + 8) in
          w t (t.header + 8) (id + 1);
          write_block t addr ~id ~target ~tid ~kind ~si ~fault_addr ~msg ~at
            ~events ~subtree;
          w t (t.header + 32) addr;
          t.head <- addr;
          t.tail <- addr;
          true
        end

(* {2 The in-flight intent} *)

let progress t = if t.tail = 0 then 0 else r t (t.tail + 104)

(* The udi the intent expects at discard step [idx] — the resume path
   cross-checks the live tree against the durable record. *)
(* Start of a block's per-domain extent section: skip the strings and
   the flight-recorder excerpt. *)
let subtree_off t addr =
  addr + blk_fixed
  + align8 (r t (addr + 112))
  + align8 (r t (addr + 120))
  + (Flight.stored_size * r t (addr + 128))

let domain_at t idx =
  if t.tail = 0 then None
  else begin
    let n = r t (t.tail + 96) in
    if idx < 0 || idx >= n then None
    else begin
      let p = ref (subtree_off t t.tail) in
      for _ = 1 to idx do
        p := !p + 40 + (16 * r t (!p + 32))
      done;
      Some (r t !p)
    end
  end

let mark_discarded t n = if t.tail <> 0 then w t (t.tail + 104) n

let note_interrupt t =
  if t.head <> 0 then w t (t.head + 80) (r t (t.head + 80) + 1)

let interrupts t = if t.head = 0 then 0 else r t (t.head + 80)

(* Phase 3: stamp and link the incident into the ring; clears the intent
   pointer so a later fault starts a fresh transaction. No-op when
   nothing is in flight. *)
let commit t ~at ~journal_replays =
  if t.head <> 0 then begin
    w t (t.head + 16) 1;
    w t (t.head + 72) (int_of_float at);
    w t (t.head + 88) journal_replays;
    Queue.add t.head t.ring;
    w t (t.header + 16) (r t (t.header + 16) + 1);
    t.m_appended <- t.m_appended + 1;
    w t (t.header + 32) 0;
    t.head <- 0;
    t.tail <- 0;
    while Queue.length t.ring > t.cap do
      ignore (drop_oldest t)
    done
  end

(* {1 Reading the log back} *)

let read_subtree t addr =
  let n = r t (addr + 96) in
  let p = ref (subtree_off t addr) in
  List.init n (fun _ ->
      let udi = r t !p in
      let was = code_was (r t (!p + 8)) in
      let stack = (r t (!p + 16), r t (!p + 24)) in
      let nreg = r t (!p + 32) in
      p := !p + 40;
      let regions =
        List.init nreg (fun _ ->
            let reg = (r t !p, r t (!p + 8)) in
            p := !p + 16;
            reg)
      in
      { x_udi = udi; x_was = was; x_stack = stack; x_regions = regions })

let read_record t addr =
  let str off_len off =
    let len = r t (addr + off_len) in
    if len = 0 then "" else Space.read_string t.space off len
  in
  let si = str 112 (addr + blk_fixed) in
  let msg = str 120 (addr + blk_fixed + align8 (r t (addr + 112))) in
  let read_events a =
    let base =
      a + blk_fixed + align8 (r t (a + 112)) + align8 (r t (a + 120))
    in
    List.init
      (r t (a + 128))
      (fun i -> Flight.load t.space (base + (i * Flight.stored_size)))
  in
  let rec chain f a = if a = 0 then [] else f a :: chain f (r t (a + 24)) in
  {
    r_id = r t (addr + 8);
    r_target = r t (addr + 32);
    r_tid = r t (addr + 40);
    r_kind = code_kind (r t (addr + 48));
    r_si = si;
    r_fault_addr = r t (addr + 56);
    r_msg = msg;
    r_subtree = List.concat (chain (read_subtree t) addr);
    r_replays = r t (addr + 88);
    r_start = float_of_int (r t (addr + 64));
    r_end = float_of_int (r t (addr + 72));
    r_interrupts = r t (addr + 80);
    r_events = List.concat (chain read_events addr);
  }

let records t =
  Queue.fold (fun acc addr -> read_record t addr :: acc) [] t.ring |> List.rev

let kind_to_string = function
  | `Segv -> "segv"
  | `Stack_smash -> "stack-smash"
  | `Explicit -> "explicit"
