module Sched = Simkern.Sched
module Cost = Simkern.Cost
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Types = Sdrad.Types
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module Journal = Resilience.Journal

let log_src = Logs.Src.create "sdrad.kvcache" ~doc:"key-value cache server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type variant = Baseline | Tlsf_alloc | Sdrad

type config = {
  variant : variant;
  workers : int;
  port : int;
  buckets : int;
  vulnerable : bool;
  nested_udi : int;
  db_udi : int;
  lock_udi : int;
  proc_cycles : float;
  conn_buf_size : int;
  image_bytes : int;
  max_db_bytes : int;
  per_client_domains : bool;
  client_udi_base : int;
  journal_cap : int;  (* replay-journal capacity (idempotency keys) *)
  shed_queue_limit : int;  (* shed when waitset backlog exceeds this; 0 = off *)
  shed_wait_limit : float;  (* shed when queueing delay exceeds this; 0 = off *)
  nonblocking_admit : bool;  (* turn supervisor backoff waits into busy *)
  verify_policy : bool;  (* run the static policy verifier after setup *)
  race_detector : bool;  (* attach the dynamic race detector at start *)
  gate_batch_limit : int;  (* requests coalesced per batched gate; 0 = off *)
}

let default_config =
  {
    variant = Baseline;
    workers = 4;
    port = 11211;
    buckets = 16384;
    vulnerable = false;
    nested_udi = 1;
    db_udi = 11;
    lock_udi = 12;
    proc_cycles = 12_000.0;
    conn_buf_size = 16 * 1024;
    image_bytes = 4 * 1024 * 1024;
    max_db_bytes = max_int;
    per_client_domains = false;
    client_udi_base = 100;
    journal_cap = 512;
    shed_queue_limit = 0;
    shed_wait_limit = 0.0;
    nonblocking_admit = false;
    verify_policy = false;
    race_detector = false;
    gate_batch_limit = 0;
  }

type conn_state = { cbuf : int; mutable outstanding : bool }

type t = {
  sched : Sched.t;
  space : Space.t;
  cfg : config;
  sd : Api.t option;
  sup : Supervisor.t option;
  faults : Fault_inject.t option;
  client_udis : (int, int) Hashtbl.t;  (* source address -> stable udi *)
  mutable next_client_udi : int;
  slab : Slab.t;
  db : Store.t;
  listener : Netsim.listener;
  waitsets : Netsim.Waitset.ws array;
  mutable tids : Sched.tid list;
  conns : (int, conn_state) Hashtbl.t;
  mutable all_conns : Netsim.conn list;
  glock : Sched.Mutex.mutex;
  lock_word : int;
  (* allocator used for connection-lifetime and per-request buffers *)
  buf_alloc : int -> int;
  buf_free : int -> unit;
  metrics : Telemetry.Metrics.t;
  journal : Journal.t;  (* root-domain state: survives nested discards *)
  c_served : Telemetry.Metrics.counter;
  c_rewinds : Telemetry.Metrics.counter;
  c_dropped : Telemetry.Metrics.counter;
  c_busy : Telemetry.Metrics.counter;
  c_shed : Telemetry.Metrics.counter;
  h_rewind_cycles : Telemetry.Metrics.histogram;
  mutable rewind_lat : float list;
  mutable crashed : bool;
  mutable race : Analysis.Race.t option;
}

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

let tlsf_allocator space ~malloc_region =
  let heap = Tlsf.create space ~name:"kvcache-bufs" in
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

(* The unchecked copy of CVE-2011-4971: the length field from the request
   header is used directly as the memcpy length; a negative 32-bit value
   becomes a huge unsigned size and the copy overruns both the item
   allocation and the source buffer. *)
let vulnerable_copy t ~src ~dst ~declared =
  let huge = declared land 0xFFFFFFFF in
  let rec copy off =
    if off < huge then begin
      let n = min 1024 (huge - off) in
      Space.blit t.space ~src:(src + off) ~dst:(dst + off) ~len:n;
      copy (off + n)
    end
  in
  copy 0

(* [add] requires absence, [replace] requires presence (memcached). *)
let storage_mode_blocked t mode key =
  match mode with
  | `Set -> false
  | `Add -> Store.peek t.db key <> None
  | `Replace -> Store.peek t.db key = None

let global_lock t f =
  Sched.Mutex.lock t.glock;
  (* The lock word itself lives in (protected) memory: a real CAS. *)
  Space.store64 t.space t.lock_word 1;
  let finish () =
    Space.store64 t.space t.lock_word 0;
    Sched.Mutex.unlock t.glock
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Response formatting differs between the text and binary protocols;
   request handling is shared. *)
type wire = {
  w_stored : string;
  w_oom : string;
  w_busy : string;
  w_deleted : string;
  w_not_found : string;
  w_miss : string;
  w_error : string;
  w_value : key:string -> flags:int -> value:string -> string;
  w_values : (string * int * string) list -> string;  (* (key, flags, value) *)
}

let text_wire =
  {
    w_stored = Proto.stored;
    w_oom = Proto.server_error_oom;
    w_busy = Proto.server_error_busy;
    w_deleted = Proto.deleted;
    w_not_found = Proto.not_found;
    w_miss = Proto.end_;
    w_error = Proto.error;
    w_value = Proto.value_reply;
    w_values =
      (fun hits ->
        String.concat ""
          (List.map
             (fun (key, flags, value) ->
               Proto.value_header ~key ~flags ~len:(String.length value)
               ^ value ^ "\r\n")
             hits)
        ^ Proto.end_);
  }

let binary_wire =
  {
    w_stored = Binproto.res_stored;
    w_oom = Binproto.res_error Binproto.status_oom;
    w_busy = Binproto.res_error Binproto.status_busy;
    w_deleted = Binproto.res_deleted;
    w_not_found = Binproto.res_not_found;
    w_miss = Binproto.res_not_found;
    w_error = Binproto.res_error Binproto.status_einval;
    w_value = (fun ~key:_ ~flags ~value -> Binproto.res_value ~flags ~value);
    (* The binary protocol has no multi-get frame in our subset. *)
    w_values = (fun _ -> Binproto.res_error Binproto.status_einval);
  }

(* incr/decr: parse the stored decimal value, apply the delta (clamping
   decrements at zero, as memcached does), store the new decimal back. *)
let apply_arith t ~key ~delta ~negate =
  match Store.peek t.db key with
  | None -> None
  | Some (vaddr, vlen, flags) -> (
      match int_of_string_opt (Space.read_string t.space vaddr vlen) with
      | None -> Some (Result.Error "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
      | Some v ->
          let v' = if negate then max 0 (v - delta) else v + delta in
          let s = string_of_int v' in
          let buf = t.buf_alloc (String.length s) in
          Space.store_string t.space buf s;
          (match Store.prepare t.db ~key ~flags ~value_src:buf
                   ~value_len:(String.length s) with
          | Some item -> Store.commit t.db ~key item
          | None -> ());
          t.buf_free buf;
          Some (Result.Ok v'))

let stats_reply t =
  Proto.fmt_stats_reply
    [
      ("curr_items", string_of_int (Store.count t.db));
      ("bytes", string_of_int (Store.value_bytes t.db));
      ("evictions", string_of_int (Store.evictions t.db));
      ("total_requests",
       string_of_int (Telemetry.Metrics.counter_value t.c_served));
      ("rewinds", string_of_int (Telemetry.Metrics.counter_value t.c_rewinds));
      ("dropped_connections",
       string_of_int (Telemetry.Metrics.counter_value t.c_dropped));
      ("busy_rejections",
       string_of_int (Telemetry.Metrics.counter_value t.c_busy));
      ("slab_pages", string_of_int (Slab.pages_allocated t.slab));
      (* Operator truth about the bounded incident log: how many rewind
         reports the monitor had to evict (0 for the Baseline variant). *)
      ("dropped_incidents",
       match t.sd with
       | Some sd -> string_of_int (Api.dropped_incidents sd)
       | None -> "0");
    ]

(* [stats telemetry]: the registry's Prometheus exposition as the reply
   body. Under SDRaD the registry is the monitor's, so core, supervisor
   and server series all appear in one scrape. *)
let telemetry_reply t = Telemetry.Metrics.expose t.metrics

let parse_any space ~addr ~len =
  if Binproto.is_binary space ~addr ~len then
    (binary_wire, Binproto.parse space ~addr ~len)
  else (text_wire, Proto.parse space ~addr ~len)

let rec start sched space ?sdrad ?supervisor ?faults net cfg =
  let sd = sdrad in
  (match (cfg.variant, sd) with
  | Sdrad, None -> invalid_arg "Server.start: Sdrad variant needs ~sdrad"
  | _ -> ());
  if cfg.image_bytes > 0 then begin
    (* The process image: text, shared libraries, static data. *)
    let img = Space.mmap space ~len:cfg.image_bytes ~prot:Prot.rw ~pkey:0 in
    Space.fill space ~addr:img ~len:cfg.image_bytes '\x90'
  end;
  (* Database memory: a plain mapping for Baseline/Tlsf, a data domain
     under SDRaD (readable by nested domains, writable from root). *)
  let db_page_alloc =
    match (cfg.variant, sd) with
    | Sdrad, Some sd ->
        Api.init_data sd ~udi:cfg.db_udi ~heap_size:(2 * 1024 * 1024) ();
        Api.dprotect sd ~udi:cfg.nested_udi ~tddi:cfg.db_udi Prot.read;
        fun len -> Api.malloc sd ~udi:cfg.db_udi len
    | _ -> fun len -> Space.mmap space ~len ~prot:Prot.rw ~pkey:0
  in
  let slab = Slab.create ~max_bytes:cfg.max_db_bytes space ~alloc_page:db_page_alloc in
  let db = Store.create space ~buckets:cfg.buckets ~slab ~alloc_table:db_page_alloc in
  (* The shared mutex lives in its own data domain under SDRaD (§V-A). *)
  let lock_word =
    match (cfg.variant, sd) with
    | Sdrad, Some sd ->
        Api.init_data sd ~udi:cfg.lock_udi ~heap_size:4096 ();
        Api.malloc sd ~udi:cfg.lock_udi 8
    | _ -> Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0
  in
  let buf_alloc, buf_free, buf_heap =
    match cfg.variant with
    | Baseline ->
        let alloc, free = glibc_allocator space in
        (alloc, free, None)
    | Tlsf_alloc ->
        let alloc, free, heap =
          tlsf_allocator space ~malloc_region:(fun len ->
              Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
        in
        (alloc, free, Some heap)
    | Sdrad ->
        let sd = Option.get sd in
        let alloc, free, heap =
          tlsf_allocator space ~malloc_region:(fun len ->
              (* Root-domain memory: grow via the SDRaD root heap so pages
                 carry the root protection key. *)
              Api.malloc sd ~udi:Types.root_udi len)
        in
        (alloc, free, Some heap)
  in
  (match (faults, buf_heap) with
  | Some fi, Some heap -> Fault_inject.arm_tlsf fi heap ~site:"kv.alloc"
  | _ -> ());
  let listener = Netsim.listen net ~port:cfg.port in
  (* Share the monitor's registry when there is one, so `stats telemetry`
     scrapes core + supervisor + server series together. *)
  let metrics =
    match sd with
    | Some sd -> Api.metrics sd
    | None -> Telemetry.Metrics.create ()
  in
  let module M = Telemetry.Metrics in
  let t =
    {
      sched;
      space;
      cfg;
      sd;
      sup = supervisor;
      faults;
      client_udis = Hashtbl.create 16;
      next_client_udi = cfg.client_udi_base;
      slab;
      db;
      listener;
      waitsets = Array.init cfg.workers (fun _ -> Netsim.Waitset.create ());
      tids = [];
      conns = Hashtbl.create 64;
      all_conns = [];
      glock = Sched.Mutex.create ();
      lock_word;
      buf_alloc;
      buf_free;
      metrics;
      journal = Journal.create ~metrics ~name:"kvcache" ~capacity:cfg.journal_cap ();
      c_served =
        M.counter metrics "kvcache_requests_total" ~help:"Requests handled";
      c_rewinds =
        M.counter metrics "kvcache_rewinds_total"
          ~help:"Events discarded by a domain rewind";
      c_dropped =
        M.counter metrics "kvcache_dropped_connections_total"
          ~help:"Connections closed after a rewind";
      c_busy =
        M.counter metrics "kvcache_busy_rejections_total"
          ~help:"Requests answered busy while quarantined";
      c_shed =
        M.counter metrics "kvcache_shed_total"
          ~help:"Requests shed by overload admission control";
      h_rewind_cycles =
        M.histogram metrics "kvcache_rewind_cycles"
          ~help:"Cycles from fault to connection closed";
      rewind_lat = [];
      crashed = false;
      race = None;
    }
  in
  M.gauge_fn metrics "kvcache_items" ~help:"Items currently stored" (fun () ->
      float_of_int (Store.count t.db));
  M.gauge_fn metrics "kvcache_value_bytes" ~help:"Bytes of stored values"
    (fun () -> float_of_int (Store.value_bytes t.db));
  M.counter_fn metrics "kvcache_evictions_total" ~help:"LRU evictions"
    (fun () -> Store.evictions t.db);
  (* Static policy check over the compartments set up above: key
     disjointness, cross-domain visibility, gate buffers, abort hooks,
     reachability. Raises [Analysis.Policy.Rejected] on any error. *)
  (match (cfg.verify_policy, sd) with
  | true, Some sd ->
      Analysis.Policy.assert_ok (Analysis.Policy.of_api sd)
  | _ -> ());
  (* Dynamic race detection over shared (data-domain) memory. Host-side
     only: attaching never perturbs the simulated run. *)
  (match (cfg.race_detector, sd) with
  | true, Some sd -> t.race <- Some (Analysis.Race.attach sd)
  | _ -> ());
  (* Rewind audit records carry the journal's cumulative replay hits, so
     an operator can line an incident up against PR 4's "no acked write
     lost" guarantee. *)
  (match sd with
  | Some sd -> Api.add_journal_probe sd (fun () -> Journal.hits t.journal)
  | None -> ());
  let dispatcher_tid = Sched.spawn sched ~name:"mc-dispatch" (fun () -> dispatcher t) in
  let worker_tids =
    List.init cfg.workers (fun i ->
        Sched.spawn sched ~name:(Printf.sprintf "mc-worker%d" i) (fun () -> worker t i))
  in
  t.tids <- dispatcher_tid :: worker_tids;
  t

(* The process died: the kernel closes its sockets and listener. *)
and crash_cleanup t =
  Log.err (fun m -> m "server process crashed; all connections lost");
  t.crashed <- true;
  Netsim.close_listener t.listener;
  Array.iter Netsim.Waitset.close t.waitsets;
  List.iter Netsim.close t.all_conns

and dispatcher t =
  let next = ref 0 in
  let rec loop () =
    match Netsim.accept t.listener with
    | None -> ()
    | Some c ->
        if t.crashed then Netsim.close c
        else begin
          let cbuf = t.buf_alloc t.cfg.conn_buf_size in
          Hashtbl.replace t.conns (Netsim.id c) { cbuf; outstanding = false };
          t.all_conns <- c :: t.all_conns;
          Netsim.Waitset.add t.waitsets.(!next mod t.cfg.workers) c;
          incr next;
          loop ()
        end
  in
  try loop () with e -> crash_cleanup t; raise e

and worker t i =
  let ws = t.waitsets.(i) in
  let batching = t.cfg.gate_batch_limit > 0 && t.cfg.variant = Sdrad in
  let serve c msg arrival =
    Sched.charge (Space.cost t.space).Cost.syscall;
    (* epoll_wait + read(2) *)
    if should_shed t ws ~arrival then shed t c msg
    else handle_event t ws c msg
  in
  (* Pull whatever else is already deliverable into the same open gate
     (a zero-deadline wait is a poll), up to the batch limit — the
     gate's privilege raise/drop then amortizes over the batch. *)
  let rec drain n =
    if n < t.cfg.gate_batch_limit then
      match Netsim.Waitset.wait_deadline ws ~deadline:(Sched.now ()) with
      | None -> ()
      | Some c -> (
          match Netsim.recv_with_arrival c with
          | None ->
              drop_conn t ws c;
              drain n
          | Some (msg, arrival) ->
              serve c msg arrival;
              drain (n + 1))
  in
  let rec loop () =
    match Netsim.Waitset.wait ws with
    | None -> ()
    | Some c ->
        (match Netsim.recv_with_arrival c with
        | None -> drop_conn t ws c
        | Some (msg, arrival) ->
            if batching then
              Api.with_gate (Option.get t.sd) (fun () ->
                  serve c msg arrival;
                  drain 1)
            else serve c msg arrival);
        loop ()
  in
  try loop () with e -> crash_cleanup t; raise e

(* Overload admission control: a request is shed — answered with the
   existing busy path — when the worker's queue depth or the request's
   time-in-queue says the server is behind, *before* any parsing or
   domain switch is spent on it. Composes with the supervisor: shedding
   protects against load, quarantine against repeat faulters. *)
and should_shed t ws ~arrival =
  (t.cfg.shed_queue_limit > 0
  && Netsim.Waitset.backlog ws > t.cfg.shed_queue_limit)
  || (t.cfg.shed_wait_limit > 0.0
     && Sched.now () -. arrival > t.cfg.shed_wait_limit)

and shed t c msg =
  Telemetry.Metrics.inc t.c_shed;
  let binary =
    String.length msg > 0 && Char.code msg.[0] = Binproto.magic_request
  in
  (* Shedding happens before the request touches simulated memory, but
     the dropped op still deserves a flight-recorder event carrying its
     trace id — that is how the client's timeout shows up in forensics. *)
  (match t.sd with
  | Some sd ->
      let trace =
        if binary then Binproto.trace_of_string msg
        else Proto.trace_of_string msg
      in
      Api.with_trace sd trace (fun () ->
          Api.flight_event sd ~udi:(udi_for_conn t c) Checkpoint.Flight.Shed)
  | None -> ());
  Netsim.send c (if binary then binary_wire.w_busy else text_wire.w_busy)

and drop_conn t ws c =
  Netsim.Waitset.remove ws c;
  Netsim.close c;
  (match Hashtbl.find_opt t.conns (Netsim.id c) with
  | Some st ->
      t.buf_free st.cbuf;
      Hashtbl.remove t.conns (Netsim.id c)
  | None -> ())

and handle_event t ws c msg =
  Sched.charge t.cfg.proc_cycles;
  match t.cfg.variant with
  | Baseline | Tlsf_alloc -> handle_plain t ws c msg
  | Sdrad -> handle_sdrad t ws c msg

and handle_plain t ws c msg =
  let space = t.space in
  let st = Hashtbl.find t.conns (Netsim.id c) in
  let len = min (String.length msg) (t.cfg.conn_buf_size - 2) in
  Space.store_string space st.cbuf (String.sub msg 0 len);
  Telemetry.Metrics.inc t.c_served;
  let w, cmd = parse_any space ~addr:st.cbuf ~len in
  match cmd with
  | Get key -> (
      match Store.get t.db key with
      | Some (vaddr, vlen, flags) ->
          (* Stage the response through a per-request buffer (exercises
             the allocator variant), then send. *)
          let out = t.buf_alloc (vlen + 64) in
          Space.blit space ~src:vaddr ~dst:out ~len:vlen;
          let value = Space.read_string space out vlen in
          t.buf_free out;
          Netsim.send c (w.w_value ~key ~flags ~value)
      | None -> Netsim.send c w.w_miss)
  | Set { mode; key; flags; declared_len; data_off; data_len; rid } ->
      if t.cfg.vulnerable && declared_len < 0 then begin
        (* item allocated from the (bogus, truncated) length... *)
        let item =
          match Slab.alloc t.slab (Store.item_size ~key ~value_len:data_len) with
          | Some p -> p
          | None -> failwith "slab exhausted"
        in
        (* ...then the unchecked copy rampages until it faults. *)
        vulnerable_copy t ~src:data_off
          ~dst:(item + Store.header_size + String.length key)
          ~declared:declared_len;
        Netsim.send c w.w_stored
      end
      else
        let reply =
          replay_or t rid (fun () ->
              if declared_len <> data_len then w.w_error
              else if storage_mode_blocked t mode key then Proto.not_stored
              else
                (* Allocate and fill outside the lock; link under it. *)
                match
                  Store.prepare t.db ~key ~flags ~value_src:data_off
                    ~value_len:data_len
                with
                | None -> w.w_oom
                | Some item ->
                    global_lock t (fun () -> Store.commit t.db ~key item);
                    w.w_stored)
        in
        Netsim.send c reply
  | Delete { key; rid } ->
      let reply =
        replay_or t rid (fun () ->
            global_lock t (fun () ->
                if Store.delete t.db key then w.w_deleted else w.w_not_found))
      in
      Netsim.send c reply
  | Multi_get keys ->
      let hits =
        List.filter_map
          (fun key ->
            match Store.get t.db key with
            | Some (vaddr, vlen, flags) ->
                let out = t.buf_alloc (vlen + 64) in
                Space.blit space ~src:vaddr ~dst:out ~len:vlen;
                let value = Space.read_string space out vlen in
                t.buf_free out;
                Some (key, flags, value)
            | None -> None)
          keys
      in
      Netsim.send c (w.w_values hits)
  | Arith { key; delta; negate; rid } ->
      let reply =
        replay_or t rid (fun () ->
            global_lock t (fun () ->
                match apply_arith t ~key ~delta ~negate with
                | None -> w.w_not_found
                | Some (Error msg) -> msg
                | Some (Ok v) -> Printf.sprintf "%d\r\n" v))
      in
      Netsim.send c reply
  | Stats -> Netsim.send c (stats_reply t)
  | Stats_telemetry -> Netsim.send c (telemetry_reply t)
  | Quit -> drop_conn t ws c
  | Bad _ -> Netsim.send c w.w_error

(* At-most-once bracket around a mutation: a request id that is already
   journaled is answered with the journaled response instead of being
   re-applied; a fresh execution's response is journaled right after the
   commit, before it can be lost on the wire. Both halves run in the
   parent (root domain), so this is exactly the window a nested-domain
   rewind cannot touch: no entry = the commit never happened and the
   retry re-executes; entry = the commit happened and the retry replays. *)
and replay_or t rid compute =
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

(* Deferred update computed inside the nested domain, applied in the
   parent after a normal exit (Figure 3 steps 8-9). *)
and apply_deferred t w rid d =
  let compute d =
    match d with
    | `Set (mode, key, flags, src, len) ->
        (* The presence check belongs inside the lock: the deferred commit
           must be atomic with it. *)
        global_lock t (fun () ->
            if storage_mode_blocked t mode key then Proto.not_stored
            else
              match
                Store.prepare t.db ~key ~flags ~value_src:src ~value_len:len
              with
              | None -> w.w_oom
              | Some item ->
                  Store.commit t.db ~key item;
                  w.w_stored)
    | `Delete key ->
        global_lock t (fun () ->
            if Store.delete t.db key then w.w_deleted else w.w_not_found)
    | `Arith (key, delta, negate) ->
        global_lock t (fun () ->
            match apply_arith t ~key ~delta ~negate with
            | None -> w.w_not_found
            | Some (Error msg) -> msg
            | Some (Ok v) -> Printf.sprintf "%d\r\n" v)
  in
  match d with
  | `None -> None
  | (`Set _ | `Delete _ | `Arith _) as d ->
      Some (replay_or t rid (fun () -> compute d))

(* With per-client domains, the udi is keyed by the connection's source
   address, so a client that reconnects (e.g. after its connection was
   dropped by a rewind) lands back in the same domain — its supervision
   history (budget, backoff, quarantine) follows it across connections,
   which is what defeats the reconnect-and-fault-again DoS loop. *)
and udi_for_conn t c =
  if not t.cfg.per_client_domains then t.cfg.nested_udi
  else
    let src = Netsim.remote_addr c in
    match Hashtbl.find_opt t.client_udis src with
    | Some udi -> udi
    | None ->
        let udi = t.next_client_udi in
        t.next_client_udi <- udi + 1;
        Hashtbl.replace t.client_udis src udi;
        (match t.sd with
        | Some sd -> Api.dprotect sd ~udi ~tddi:t.cfg.db_udi Prot.read
        | None -> ());
        udi

and handle_sdrad t ws c msg =
  let sd = Option.get t.sd in
  let space = t.space in
  let udi = udi_for_conn t c in
  let st = Hashtbl.find t.conns (Netsim.id c) in
  let len = min (String.length msg) (t.cfg.conn_buf_size - 2) in
  Space.store_string space st.cbuf (String.sub msg 0 len);
  Telemetry.Metrics.inc t.c_served;
  let binary = Binproto.is_binary space ~addr:st.cbuf ~len in
  let w = if binary then binary_wire else text_wire in
  (* Install the request's causal trace context before anything else: the
     admit decision, every domain switch, fault, replay and audit record
     triggered by this request carries its id. *)
  let trace =
    if binary then Binproto.parse_trace space ~addr:st.cbuf ~len
    else Proto.parse_trace space ~addr:st.cbuf ~len
  in
  Api.set_trace sd trace;
  Api.flight_event sd ~udi Checkpoint.Flight.Admit;
  let opts = { Types.default_options with heap_size = 64 * 1024 } in
  let on_rewind f =
    (* Abnormal exit: discard the event, close only this client. *)
    Log.info (fun m ->
        m "rewound event on conn %d: %a" (Netsim.id c) Types.pp_fault f);
    Telemetry.Metrics.inc t.c_rewinds;
    drop_conn t ws c;
    Telemetry.Metrics.inc t.c_dropped;
    let lat = Sched.now () -. f.Types.at in
    t.rewind_lat <- lat :: t.rewind_lat;
    Telemetry.Metrics.observe t.h_rewind_cycles lat;
    `Rewound
  in
  let body () =
    (* Deep copy of the connection buffer into the domain (step 4),
       through the cached per-(caller, callee) marshalling buffer: the
       persistent sub-heap keeps it across events, so steady state does
       no malloc/free per request. *)
    let dbuf = Api.gate_buffer sd ~udi (t.cfg.conn_buf_size + 8) in
    Space.blit space ~src:st.cbuf ~dst:dbuf ~len;
    Api.enter sd udi;
    (match t.faults with
    | Some fi ->
        ignore (Fault_inject.fire_in_domain fi ~site:"kv.domain" ~sd ~buf:dbuf ~len)
    | None -> ());
    let outcome = drive_machine_in_domain t sd ~udi ~dbuf ~len in
    Api.exit_domain sd;
    (* Apply the deferred update atomically in the parent (step 9),
       then format the response from the (accessible) domain data. *)
    let reply =
      match outcome with
      | `Value (addr, vlen, flags, key) ->
          let value = Space.read_string space addr vlen in
          Api.free sd ~udi addr;
          (* Deferred LRU bump, applied with parent privileges. *)
          global_lock t (fun () -> Store.touch t.db key);
          Some (w.w_value ~key ~flags ~value)
      | `Multi_value hits ->
          let materialized =
            List.map
              (fun (key, flags, addr, vlen) ->
                let v = Space.read_string space addr vlen in
                Api.free sd ~udi addr;
                global_lock t (fun () -> Store.touch t.db key);
                (key, flags, v))
              hits
          in
          Some (w.w_values materialized)
      | `Miss -> Some w.w_miss
      | `Bad_cmd -> Some w.w_error
      | `Stats_cmd -> Some (stats_reply t)
      | `Telemetry_cmd -> Some (telemetry_reply t)
      | `Quit_cmd -> None
      | `Deferred (rid, d, staged) ->
          let r = apply_deferred t w rid d in
          Option.iter (fun p -> Api.free sd ~udi p) staged;
          r
    in
    (* The marshalling buffer is cache-owned and reused by the next
       event; only the saved context is dropped here. *)
    Api.deinit sd udi;
    `Reply reply
  in
  let result =
    match t.sup with
    | Some sup ->
        (* Supervised: a quarantined client udi is turned away before any
           domain state is touched. With [nonblocking_admit] a backoff
           wait is also turned into a busy reply instead of parking the
           worker — overloaded servers shed rather than sleep. *)
        let run =
          if t.cfg.nonblocking_admit then Supervisor.run_nb else Supervisor.run
        in
        run sup ~udi ~opts ~on_rewind ~on_busy:(fun ~until:_ -> `Busy) body
    | None -> Api.run sd ~udi ~opts ~on_rewind body
  in
  (match result with
  | `Busy ->
      Telemetry.Metrics.inc t.c_busy;
      Netsim.send c w.w_busy
  | `Rewound -> ()
  | `Reply (Some reply) -> Netsim.send c reply
  | `Reply None -> drop_conn t ws c);
  (* The context is per-request: clear it so later work on this worker
     thread (or the next request) is not mis-attributed. *)
  Api.set_trace sd 0L

(* drive_machine (Figure 3 step 6), executing inside the nested domain:
   reads the DB read-only, allocates only in its own sub-heap, and stages
   values and mutations for the parent. *)
and drive_machine_in_domain t sd ~udi ~dbuf ~len =
  let space = t.space in
  let _, cmd = parse_any space ~addr:dbuf ~len in
  match cmd with
  | Get key -> (
      (* The domain may only read the database: the LRU recency update is
         a write, so it is deferred to the parent like every mutation. *)
      match Store.peek t.db key with
      | Some (vaddr, vlen, flags) ->
          (* Copy the value into the domain: the response is assembled by
             the parent from this staged copy. *)
          let out = Api.malloc sd ~udi (max 8 vlen) in
          Space.blit space ~src:vaddr ~dst:out ~len:vlen;
          `Value (out, vlen, flags, key)
      | None -> `Miss)
  | Set { mode; key; flags; declared_len; data_off; data_len; rid } ->
      if t.cfg.vulnerable && declared_len < 0 then begin
        (* Wrapped slabs_alloc: the copy item lives in the nested domain,
           so the rampaging copy hits the domain boundary, not the DB. *)
        let icopy = Api.malloc sd ~udi (Store.item_size ~key ~value_len:data_len) in
        vulnerable_copy t ~src:data_off
          ~dst:(icopy + Store.header_size + String.length key)
          ~declared:declared_len;
        `Deferred (None, `None, Some icopy)
      end
      else if declared_len <> data_len then `Bad_cmd
      else begin
        let vcopy = Api.malloc sd ~udi (max 8 data_len) in
        Space.blit space ~src:data_off ~dst:vcopy ~len:data_len;
        `Deferred (rid, `Set (mode, key, flags, vcopy, data_len), Some vcopy)
      end
  | Multi_get keys ->
      let hits =
        List.filter_map
          (fun key ->
            match Store.peek t.db key with
            | Some (vaddr, vlen, flags) ->
                let out = Api.malloc sd ~udi (max 8 vlen) in
                Space.blit space ~src:vaddr ~dst:out ~len:vlen;
                Some (key, flags, out, vlen)
            | None -> None)
          keys
      in
      `Multi_value hits
  | Delete { key; rid } -> `Deferred (rid, `Delete key, None)
  | Arith { key; delta; negate; rid } ->
      `Deferred (rid, `Arith (key, delta, negate), None)
  | Stats -> `Stats_cmd
  | Stats_telemetry -> `Telemetry_cmd
  | Quit -> `Quit_cmd
  | Bad _ -> `Bad_cmd

let stop t =
  Netsim.close_listener t.listener;
  Array.iter Netsim.Waitset.close t.waitsets

let join t = List.iter Sched.join t.tids
let worker_busy_cycles t =
  List.fold_left
    (fun acc tid ->
      match (Sched.thread_clock t.sched tid, Sched.thread_waited t.sched tid) with
      | Some c, Some w -> acc +. (c -. w)
      | _ -> acc)
    0.0 t.tids

let worker_utilization t =
  match t.tids with
  | [] -> []
  | _dispatcher :: workers ->
      List.filter_map (fun tid -> Sched.busy_fraction t.sched tid) workers

let store t = t.db
let crashed t = t.crashed
let requests_served t = Telemetry.Metrics.counter_value t.c_served
let rewinds t = Telemetry.Metrics.counter_value t.c_rewinds
let busy_rejections t = Telemetry.Metrics.counter_value t.c_busy
let shed_count t = Telemetry.Metrics.counter_value t.c_shed
let replay_hits t = Journal.hits t.journal
let journal t = t.journal
let client_domains t = Hashtbl.length t.client_udis
let supervisor t = t.sup
let rewind_latencies t = t.rewind_lat
let dropped_connections t = Telemetry.Metrics.counter_value t.c_dropped
let metrics t = t.metrics
let race_detector t = t.race
let db_bytes t = Slab.pages_allocated t.slab * Slab.slab_page_size
let db_check t = Store.check t.db
let evictions t = Store.evictions t.db
