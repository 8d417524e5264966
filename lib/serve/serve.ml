(* Charge order is part of this module's contract: every [Sched.charge]
   and every simulated-memory access sits where both servers had it
   before they shared this code — the syscall before the shed test, the
   per-request cost after it, and the copy into the connection buffer
   only when the server asks (kvcache picks a per-client udi first, which
   may charge a [dprotect]). *)

module Sched = Simkern.Sched
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Types = Sdrad.Types
module Journal = Resilience.Journal
module M = Telemetry.Metrics

type variant = Baseline | Tlsf_alloc | Sdrad

let conn_buf_size = 16 * 1024
let domain_opts = { Types.default_options with heap_size = 64 * 1024 }

(* glibc cost model for the Baseline variant: allocations come from a
   bump arena; the (amortized) malloc/free work is charged as constants. *)
let glibc_allocator space =
  (* Bump arena with per-size free lists: freed chunks are recycled, as
     glibc's bins would, so the model neither leaks RSS nor charges real
     allocator work (that is what the constants are for). *)
  let arena = ref 0 and off = ref 0 and arena_len = 256 * 1024 in
  let bins : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let bin n =
    match Hashtbl.find_opt bins n with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace bins n l;
        l
  in
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let alloc n =
    Sched.charge 80.0;
    let n = (n + 15) land lnot 15 in
    let p =
      match !(bin n) with
      | p :: rest ->
          (bin n) := rest;
          p
      | [] ->
          if !arena = 0 || !off + n > arena_len then begin
            arena := Space.mmap space ~len:(max arena_len n) ~prot:Prot.rw ~pkey:0;
            off := 0
          end;
          let p = !arena + !off in
          off := !off + n;
          p
    in
    Hashtbl.replace sizes p n;
    p
  in
  let free p =
    Sched.charge 50.0;
    match Hashtbl.find_opt sizes p with
    | Some n ->
        Hashtbl.remove sizes p;
        (bin n) := p :: !(bin n)
    | None -> ()
  in
  (alloc, free)

let tlsf_allocator space ~name ~malloc_region =
  let heap = Tlsf.create space ~name in
  let grow len =
    let len = max len (1024 * 1024) in
    let region = malloc_region len in
    Tlsf.add_region heap ~addr:region ~len
  in
  let alloc n =
    match Tlsf.malloc_opt heap n with
    | Some p -> p
    | None ->
        grow (n + 64);
        Tlsf.malloc heap n
  in
  (alloc, (fun p -> Tlsf.free heap p), heap)

type counters = {
  served : M.counter;
  rewinds : M.counter;
  busy : M.counter;
  shed : M.counter;
  rewind_cycles : M.histogram;
}

type buf = { addr : int; mutable len : int }

type t = {
  space : Space.t;
  variant : variant;
  sd : Api.t option;
  sup : Resilience.Supervisor.t option;
  metrics : M.t;
  journal : Journal.t;  (* root-domain state: survives nested discards *)
  c : counters;
  buf_alloc : int -> int;
  buf_free : int -> unit;
  conns : (int, buf) Hashtbl.t;  (* conn id -> connection buffer *)
  proc_cycles : float;
  shed_queue_limit : int;
  gate_batch_limit : int;
  race : Analysis.Race.t option;
  mutable rewind_lat : float list;
}

(* {1 Start-up} *)

let boot ~name variant ?sdrad space ~image_bytes =
  (match (variant, sdrad) with
  | Sdrad, None ->
      invalid_arg
        (String.capitalize_ascii name ^ ".Server.start: Sdrad variant needs ~sdrad")
  | _ -> ());
  if image_bytes > 0 then begin
    (* The process image: text, shared libraries, static data. *)
    let img = Space.mmap space ~len:image_bytes ~prot:Prot.rw ~pkey:0 in
    Space.fill space ~addr:img ~len:image_bytes '\x90'
  end

let create space variant ?sdrad ?supervisor ?faults ~name ~alloc_site
    ~malloc_region ~journal_cap ~proc_cycles ~shed_queue_limit
    ~gate_batch_limit ~race_detector ~counters () =
  let buf_alloc, buf_free =
    match variant with
    | Baseline -> glibc_allocator space
    | Tlsf_alloc | Sdrad ->
        let alloc, free, heap =
          tlsf_allocator space ~name:(name ^ "-bufs") ~malloc_region
        in
        Option.iter
          (fun fi -> Resilience.Fault_inject.arm_tlsf fi heap ~site:alloc_site)
          faults;
        (alloc, free)
  in
  (* Share the monitor's registry when there is one, so a scrape shows
     core, supervisor and server series together. *)
  let metrics =
    match sdrad with Some sd -> Api.metrics sd | None -> M.create ()
  in
  let journal = Journal.create ~metrics ~name ~capacity:journal_cap () in
  let c = counters metrics in
  (* Dynamic race detection over shared (data-domain) memory. Host-side
     only: attaching never perturbs the simulated run. It comes last in
     start-up so it sees the server's data domains as they will be
     served. *)
  let race =
    match (race_detector, sdrad) with
    | true, Some sd -> Some (Analysis.Race.attach sd)
    | _ -> None
  in
  (* Rewind audit records carry the journal's cumulative replay hits, so
     an operator can line an incident up against the "no acked write
     lost" guarantee. *)
  Option.iter
    (fun sd -> Api.add_journal_probe sd (fun () -> Journal.hits journal))
    sdrad;
  {
    space;
    variant;
    sd = sdrad;
    sup = supervisor;
    metrics;
    journal;
    c;
    buf_alloc;
    buf_free;
    conns = Hashtbl.create 64;
    proc_cycles;
    shed_queue_limit;
    gate_batch_limit;
    race;
    rewind_lat = [];
  }

(* {1 Connection buffers} *)

let alloc t n = t.buf_alloc n
let free t p = t.buf_free p

let accept t c =
  Hashtbl.replace t.conns (Netsim.id c)
    { addr = t.buf_alloc conn_buf_size; len = 0 }

let copy_in t c msg =
  let b = Hashtbl.find t.conns (Netsim.id c) in
  b.len <- min (String.length msg) (conn_buf_size - 2);
  Space.store_string t.space b.addr (String.sub msg 0 b.len);
  b

let forget t c =
  match Hashtbl.find_opt t.conns (Netsim.id c) with
  | Some b ->
      t.buf_free b.addr;
      Hashtbl.remove t.conns (Netsim.id c)
  | None -> ()

let drop t ws c =
  Netsim.Waitset.remove ws c;
  Netsim.close c;
  forget t c

(* {1 Admission} *)

(* Overload admission control: a request is shed — answered with the
   existing busy path — when the worker's queue depth says the server is
   behind, before any parsing or domain switch is spent on it. Composes
   with the supervisor: shedding protects against load, quarantine
   against repeat faulters. *)
let should_shed t ws =
  t.shed_queue_limit > 0 && Netsim.Waitset.backlog ws > t.shed_queue_limit

(* Shedding happens before the request touches simulated memory, but the
   dropped op still gets a flight-recorder event carrying its trace id:
   that is how the client's timeout shows up in forensics. *)
let shed t c ~trace ~udi reply =
  M.inc t.c.shed;
  (match t.sd with
  | Some sd ->
      Api.with_trace sd trace (fun () ->
          Api.flight_event sd ~udi Checkpoint.Flight.Shed)
  | None -> ());
  Netsim.send c reply

(* The context is per-request: clear it so later work on this worker
   thread (or the next request) is not mis-attributed. *)
let clear_trace t =
  match t.sd with Some sd -> Api.set_trace sd 0L | None -> ()

let on_busy ~until:_ = `Busy

(* Install the request's causal trace context before anything else: the
   admit decision, every domain switch, fault, replay and audit record
   triggered by this request carries its id. Supervised, a quarantined
   udi is turned away before any domain state is touched; the caller
   answers [`Busy] with {!busy}. *)
let run t sd ~trace ~udi ~on_rewind body =
  Api.set_trace sd trace;
  Api.flight_event sd ~udi Checkpoint.Flight.Admit;
  match t.sup with
  | Some sup ->
      Resilience.Supervisor.run sup ~udi ~opts:domain_opts ~on_rewind ~on_busy
        body
  | None -> Api.run sd ~udi ~opts:domain_opts ~on_rewind body

let busy t c reply =
  M.inc t.c.busy;
  Netsim.send c reply

let rewound t (f : Types.fault) =
  M.inc t.c.rewinds;
  let lat = Sched.now () -. f.Types.at in
  t.rewind_lat <- lat :: t.rewind_lat;
  M.observe t.c.rewind_cycles lat

(* At-most-once bracket around a mutation: a request id that is already
   journaled is answered with the journaled response instead of being
   re-applied; a fresh execution's response is journaled right after the
   commit, before it can be lost on the wire. Both halves run in the
   parent (root domain), so this is exactly the window a nested-domain
   rewind cannot touch: no entry = the commit never happened and the
   retry re-executes; entry = the commit happened and the retry replays. *)
let replay_or t rid compute =
  match rid with
  | None -> compute ()
  | Some r -> (
      match Journal.find t.journal r with
      | Some reply ->
          (* A journal hit is a causal consequence of the original op's
             earlier attempt: record it under the retry's trace id. *)
          (match t.sd with
          | Some sd -> Api.flight_event sd Checkpoint.Flight.Replay
          | None -> ());
          reply
      | None ->
          let reply = compute () in
          Journal.record t.journal r reply;
          reply)

(* {1 The worker event loop} *)

let worker t ?(after = ignore) ws ~drop ~shed ~handle =
  let batching = t.gate_batch_limit > 0 && t.variant = Sdrad in
  let syscall = (Space.cost t.space).Simkern.Cost.syscall in
  let serve c msg =
    (* epoll_wait + read(2) *)
    Sched.charge syscall;
    if should_shed t ws then shed c msg
    else begin
      Sched.charge t.proc_cycles;
      M.inc t.c.served;
      handle c msg
    end
  in
  (* Pull whatever else is already deliverable into the same open gate
     (a zero-deadline wait is a poll), up to the batch limit — the
     gate's privilege raise/drop then amortizes over the batch. *)
  let rec drain n =
    if n < t.gate_batch_limit then
      match Netsim.Waitset.wait_deadline ws ~deadline:(Sched.now ()) with
      | None -> ()
      | Some c -> (
          match Netsim.recv c with
          | None ->
              drop c;
              drain n
          | Some msg ->
              serve c msg;
              drain (n + 1))
  in
  let rec loop () =
    match Netsim.Waitset.wait ws with
    | None -> ()
    | Some c ->
        (match Netsim.recv c with
        | None -> drop c
        | Some msg ->
            if batching then
              Api.with_gate (Option.get t.sd) (fun () ->
                  serve c msg;
                  drain 1)
            else serve c msg);
        after ();
        loop ()
  in
  loop ()

(* {1 Introspection} *)

let metrics t = t.metrics
let journal t = t.journal
let race_detector t = t.race
let requests_served t = M.counter_value t.c.served
let rewinds t = M.counter_value t.c.rewinds
let rewind_latencies t = t.rewind_lat
let busy_rejections t = M.counter_value t.c.busy
let shed_count t = M.counter_value t.c.shed
let replay_hits t = Journal.hits t.journal
