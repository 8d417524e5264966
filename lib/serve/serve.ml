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

let log_src = Logs.Src.create "sdrad.serve" ~doc:"serving core"

module Log = (val Logs.src_log log_src : Logs.LOG)

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
    match Tlsf.try_malloc heap n with
    | 0 ->
        grow (n + 64);
        Tlsf.malloc heap n
    | p -> p
  in
  (alloc, (fun p -> Tlsf.free heap p), heap)

type counters = {
  served : M.counter;
  rewinds : M.counter;
  busy : M.counter;
  shed : M.counter;
  dropped : M.counter;
  rewind_cycles : M.histogram;
}

type process =
  | One_process
  | Per_worker of {
      restart_cost : float;
      max_restarts : int;
      rewind_limit : int option;
    }

type worker = {
  idx : int;
  mutable ws : Netsim.Waitset.ws;
  mutable tid : Sched.tid;
  mutable alive : bool;
  mutable rewinds : int;
}

type t = {
  space : Space.t;
  sd : Api.t option;
  sup : Resilience.Supervisor.t option;
  metrics : M.t;
  journal : Journal.t;  (* root-domain state: survives nested discards *)
  c : counters;
  buf_alloc : int -> int;
  buf_free : int -> unit;
  proc_cycles : float;
  shed_queue_limit : int;
  gate_batch_limit : int;  (* 0 unless [Sdrad]: only its gates batch *)
  race : Analysis.Race.t option;
  mutable rewind_lat : float list;
  process : process;
  listener : Netsim.listener;
  workers : worker array;
  mutable next : int;  (* the acceptor's round-robin position *)
  mutable acceptor : Sched.tid;
  (* [Per_worker]'s master: deaths to reap, its wait and its work *)
  deaths : (worker * float) Queue.t;
  mutable idle : Sched.handle;
  mutable stopping : bool;
  mutable restarts : int;
  mutable proactive : int;
  mutable restart_lat : float list;
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

let create space variant ?sdrad ?supervisor ?faults net ~port ~workers process
    ~name ~alloc_site ~malloc_region ~journal_cap ~proc_cycles
    ~shed_queue_limit ~gate_batch_limit ~race_detector ~counters () =
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
    sd = sdrad;
    sup = supervisor;
    metrics;
    journal;
    c;
    buf_alloc;
    buf_free;
    proc_cycles;
    shed_queue_limit;
    gate_batch_limit = (if variant = Sdrad then gate_batch_limit else 0);
    race;
    rewind_lat = [];
    process;
    listener = Netsim.listen net ~port;
    workers =
      Array.init workers (fun idx ->
          { idx; ws = Netsim.Waitset.create (); tid = -1; alive = false;
            rewinds = 0 });
    next = 0;
    acceptor = -1;
    deaths = Queue.create ();
    idle = Sched.no_handle;
    stopping = false;
    restarts = 0;
    proactive = 0;
    restart_lat = [];
  }

(* {1 Connection buffers}

   A connection's buffer address is its endpoint's data word
   ({!Netsim.set_data}); 0, which no allocator returns, while it has
   none. *)

let alloc t n = t.buf_alloc n
let free t p = t.buf_free p
let buffer c = Netsim.data c
let accept t c = Netsim.set_data c (t.buf_alloc conn_buf_size)

let copy_in t c req =
  let len = min (Netsim.Buf.length req) (conn_buf_size - 2) in
  Space.store_from t.space (Netsim.data c) (Netsim.Buf.bytes req) 0 len;
  len

let forget t c =
  let addr = Netsim.data c in
  if addr <> 0 then begin
    Netsim.set_data c 0;
    t.buf_free addr
  end

let close t w c =
  Netsim.Waitset.remove w.ws c;
  Netsim.close c;
  forget t c

let drop t w c =
  close t w c;
  M.inc t.c.dropped

(* {1 Wire text} *)

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec index_from s i stop c =
  if i >= stop then -1
  else if String.unsafe_get s i = c then i
  else index_from s (i + 1) stop c

let rec skip_blanks s i stop =
  if i < stop && is_blank (String.unsafe_get s i) then
    skip_blanks s (i + 1) stop
  else i

let rec trim_blanks s start stop =
  if stop > start && is_blank (String.unsafe_get s (stop - 1)) then
    trim_blanks s start (stop - 1)
  else stop

(* Digits are taken from the non-positive value, which cannot overflow
   (unlike [-min_int]). *)
let dec_width n =
  let rec go m w = if m > -10 then w else go (m / 10) (w + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* A top-level loop rather than a local one, which would capture [b] in
   a closure on every call. *)
let rec put_digits b i m =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (i - 1) (m / 10)

let put_dec b ~stop n =
  put_digits b (stop - 1) (if n < 0 then n else -n);
  if n < 0 then Bytes.unsafe_set b (stop - dec_width n) '-'

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
  | Some sd -> Api.record_flight sd ~udi ~trace ~arg:0 Checkpoint.Flight.Shed
  | None -> ());
  Netsim.send c reply

let on_busy ~until:_ = `Busy

(* [?opts] passed as this option, made once: passing [~opts] would
   allocate a [Some] per request. *)
let some_domain_opts = Some domain_opts

(* Install the request's causal trace context before anything else: the
   admit decision, every domain switch, fault, replay and audit record
   triggered by this request carries its id. Supervised, a quarantined
   udi is turned away before any domain state is touched. What every
   server does with two of the results is done here: [`Busy] gets the
   busy reply, and a rewound request's connection is dropped. *)
let run t w sd c ~trace ~udi ~busy:reply ~on_rewind body =
  Api.set_trace sd trace;
  Api.record_flight sd ~udi ~trace ~arg:0 Checkpoint.Flight.Admit;
  let r =
    match t.sup with
    | Some sup ->
        Resilience.Supervisor.run sup ~udi ?opts:some_domain_opts ~on_rewind
          ~on_busy body
    | None -> Api.run sd ~udi ?opts:some_domain_opts ~on_rewind body
  in
  (match r with
  | `Busy ->
      M.inc t.c.busy;
      Netsim.send c reply
  | `Rewound -> drop t w c
  | _ -> ());
  r

let rewound t w (f : Types.fault) =
  Log.info (fun m -> m "worker %d rewound a request: %a" w.idx Types.pp_fault f);
  M.inc t.c.rewinds;
  w.rewinds <- w.rewinds + 1;
  let lat = Sched.now () -. f.Types.at in
  t.rewind_lat <- lat :: t.rewind_lat;
  M.observe t.c.rewind_cycles lat

(* At-most-once bracket around a mutation: a request id that is already
   journaled is answered with the journaled response instead of being
   re-applied; a fresh execution's response is journaled right after the
   commit, before it can be lost on the wire. Both halves run in the
   parent (root domain), so this is exactly the window a nested-domain
   rewind cannot touch: no entry = the commit never happened and the
   retry re-executes; entry = the commit happened and the retry replays.
   An empty id is no id: the mutation is simply applied. *)
let replay_or t s off len compute a b =
  if len = 0 then compute a b
  else
    match Journal.find t.journal s off len with
    | reply ->
        (* A journal hit is a causal consequence of the original op's
           earlier attempt: record it under the retry's trace id. *)
        (match t.sd with
        | Some sd -> Api.flight_event sd Checkpoint.Flight.Replay
        | None -> ());
        reply
    | exception Not_found ->
        let reply = compute a b in
        Journal.record t.journal s off len reply;
        reply

(* {1 The worker process} *)

(* A process's death: the kernel closes the connections it watched, all
   of them under [One_process] (with the listener), and they count as
   dropped. The buffers go back only after the master is told, so a
   failing free cannot lose the respawn. *)
let die t w =
  let dead =
    match t.process with
    | One_process ->
        Log.err (fun m -> m "server process crashed; all connections lost");
        Netsim.close_listener t.listener;
        Array.to_list t.workers
    | Per_worker _ -> [ w ]
  in
  let close_all w = w.alive <- false; Netsim.Waitset.close_all w.ws in
  let conns = List.concat_map close_all dead in
  M.add t.c.dropped (List.length conns);
  Queue.add (w, Sched.now ()) t.deaths;
  ignore (Sched.wake t.idle);
  List.iter (forget t) conns

(* Serve the worker's waitset until it closes, receiving every request
   into one buffer. *)
let serve_waitset t w ~shed ~handle =
  let ws = w.ws in
  let batching = t.gate_batch_limit > 0 in
  let syscall = (Space.cost t.space).Simkern.Cost.syscall in
  let req = Netsim.Buf.create () in
  let serve c =
    (* epoll_wait + read(2) *)
    Sched.charge syscall;
    if should_shed t ws then shed w c req
    else begin
      Sched.charge t.proc_cycles;
      M.inc t.c.served;
      handle c req;
      (* The trace was the request's alone. *)
      match t.sd with Some sd -> Api.set_trace sd 0 | None -> ()
    end
  in
  (* Pull whatever else is already deliverable into the same open gate
     (a zero-deadline wait is a poll), up to the batch limit — the
     gate's privilege raise/drop then amortizes over the batch. *)
  let rec drain n =
    if n < t.gate_batch_limit then
      let c = Netsim.Waitset.wait_deadline ws ~deadline:(Sched.now ()) in
      if c != Netsim.no_conn then
        if Netsim.recv_buf c req then begin
          serve c;
          drain (n + 1)
        end
        else begin
          close t w c;
          drain n
        end
  in
  let rec loop () =
    let c = Netsim.Waitset.wait ws in
    if c != Netsim.no_conn then begin
      (if not (Netsim.recv_buf c req) then close t w c
       else if batching then
         Api.with_gate (Option.get t.sd) (fun () ->
             serve c;
             drain 1)
       else serve c);
      (* §VI: re-exec to re-randomize the address space. *)
      (match t.process with
      | Per_worker { rewind_limit = Some limit; _ } when w.rewinds >= limit ->
          Log.info (fun m ->
              m "worker %d reached its rewind limit (%d); re-exec" w.idx limit);
          t.proactive <- t.proactive + 1;
          raise Exit
      | _ -> ());
      loop ()
    end
  in
  loop ()

(* An exception out of a worker's loop is its process's death: a crash
   that fails the thread, or a worker process's for the master to reap. *)
let spawn_worker t sched ~threads ~shed ~serve w =
  w.rewinds <- 0;
  w.alive <- true;
  let handle = serve w in
  w.tid <-
    Sched.spawn sched
      ~name:(threads ^ "-worker" ^ Int.to_string w.idx)
      (fun () ->
        match serve_waitset t w ~shed ~handle with
        | () -> ()
        | exception e ->
            die t w;
            if t.process = One_process then raise e)

(* The first live worker at or after [i], cyclically; -1 when none is. *)
let rec live_from t i left =
  if left = 0 then -1
  else
    let w = t.workers.(i mod Array.length t.workers) in
    if w.alive then w.idx else live_from t (i + 1) (left - 1)

(* Round-robin over the live workers. The round moves on past a
   connection placed, or refused for want of a live worker (all of a
   crashed process's backlog), but not past one closed for want of
   buffer room (memcached closes a connection it cannot allocate). *)
let rec accept_loop t =
  match Netsim.accept t.listener with
  | None -> ()
  | Some c ->
      (match live_from t t.next (Array.length t.workers) with
      | -1 ->
          Netsim.close c;
          t.next <- t.next + 1
      | i -> (
          match accept t c with
          | () ->
              Netsim.Waitset.add t.workers.(i).ws c;
              t.next <- t.next + 1
          | exception (Space.Exhausted | Tlsf.Out_of_memory) -> Netsim.close c));
      accept_loop t

let start t sched ~threads ~shed ~serve =
  let spawn = spawn_worker t sched ~threads ~shed ~serve in
  let acceptor name =
    t.acceptor <-
      Sched.spawn sched ~name:(threads ^ name) (fun () -> accept_loop t)
  in
  match t.process with
  | Per_worker { restart_cost; max_restarts; _ } ->
      let rec master () =
        match Queue.take_opt t.deaths with
        | None ->
            if not t.stopping then begin
              t.idle <- Sched.handle ();
              Sched.block ();
              master ()
            end
        | Some (w, died_at) ->
            if (not t.stopping) && t.restarts < max_restarts then begin
              Log.warn (fun m -> m "worker %d died; respawning" w.idx);
              t.restarts <- t.restarts + 1;
              Sched.charge restart_cost;
              w.ws <- Netsim.Waitset.create ();
              spawn w;
              t.restart_lat <- (Sched.now () -. died_at) :: t.restart_lat
            end;
            master ()
      in
      Array.iter spawn t.workers;
      ignore (Sched.spawn sched ~name:(threads ^ "-master") master);
      acceptor "-accept"
  | One_process ->
      acceptor "-dispatch";
      Array.iter spawn t.workers

let stop t =
  t.stopping <- true;
  Netsim.close_listener t.listener;
  Array.iter (fun w -> Netsim.Waitset.close w.ws) t.workers;
  (* Wake the master so it observes [stopping]. *)
  ignore (Sched.wake t.idle)

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
let dropped_connections t = M.counter_value t.c.dropped
let alive t = Array.exists (fun w -> w.alive) t.workers
let idx w = w.idx
let threads t = t.acceptor :: Array.fold_right (fun w l -> w.tid :: l) t.workers []

let live_connections t =
  Array.fold_left (fun n w -> n + Netsim.Waitset.size w.ws) 0 t.workers

let worker_restarts t = t.restarts
let proactive_restarts t = t.proactive
let restart_latencies t = t.restart_lat
