module Sched = Simkern.Sched
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Types = Sdrad.Types
module Fault_inject = Resilience.Fault_inject

let log_src = Logs.Src.create "sdrad.kvcache" ~doc:"key-value cache server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type variant = Serve.variant = Baseline | Tlsf_alloc | Sdrad

type config = {
  variant : variant;
  workers : int;
  port : int;
  vulnerable : bool;
  db_udi : int;
  proc_cycles : float;
  image_bytes : int;
  max_db_bytes : int;
  per_client_domains : bool;
  journal_cap : int;  (* replay-journal capacity (idempotency keys) *)
  shed_queue_limit : int;  (* shed when waitset backlog exceeds this; 0 = off *)
  race_detector : bool;  (* attach the dynamic race detector at start *)
  gate_batch_limit : int;  (* requests coalesced per batched gate; 0 = off *)
}

let default_config =
  {
    variant = Baseline;
    workers = 4;
    port = 11211;
    vulnerable = false;
    db_udi = 11;
    proc_cycles = 12_000.0;
    image_bytes = 4 * 1024 * 1024;
    max_db_bytes = max_int;
    per_client_domains = false;
    journal_cap = 512;
    shed_queue_limit = 0;
    race_detector = false;
    gate_batch_limit = 0;
  }

let buckets = 16384
let nested_udi = 1  (* the shared event domain *)
let lock_udi = 12  (* data domain holding the shared lock word *)
let client_udi_base = 100  (* first per-client udi; clear of db/lock udis *)

type t = {
  sched : Sched.t;
  space : Space.t;
  cfg : config;
  core : Serve.t;
  sd : Api.t option;
  faults : Fault_inject.t option;
  client_udis : (int, int) Hashtbl.t;  (* source address -> stable udi *)
  mutable next_client_udi : int;
  slab : Slab.t;
  db : Store.t;
  listener : Netsim.listener;
  waitsets : Netsim.Waitset.ws array;
  mutable tids : Sched.tid list;
  mutable all_conns : Netsim.conn list;
  glock : Sched.Mutex.mutex;
  lock_word : int;
  c_dropped : Telemetry.Metrics.counter;
  mutable crashed : bool;
}

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

let lock t =
  Sched.Mutex.lock t.glock;
  (* The lock word itself lives in (protected) memory: a real CAS. *)
  Space.store64 t.space t.lock_word 1

let unlock t =
  Space.store64 t.space t.lock_word 0;
  Sched.Mutex.unlock t.glock

let global_lock t f =
  lock t;
  match f () with
  | v -> unlock t; v
  | exception e -> unlock t; raise e

(* The deferred LRU bump of a GET, under the lock without a closure. *)
let touch_locked t key =
  lock t;
  match Store.touch t.db key with
  | () -> unlock t
  | exception e -> unlock t; raise e

(* Response formatting differs between the text and binary protocols;
   request handling is shared. A value reply reads the value out of
   simulated memory straight into the worker's reply buffer. *)
type wire = {
  w_stored : string;
  w_oom : string;
  w_busy : string;
  w_deleted : string;
  w_not_found : string;
  w_miss : string;
  w_error : string;
  w_value :
    Space.t -> Netsim.Buf.t -> key:string -> flags:int -> addr:int -> len:int ->
    unit;
  w_values : string -> string;  (* the multi-get reply, from the text one *)
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
    w_values = Fun.id;
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
    w_value =
      (fun space out ~key:_ ~flags ~addr ~len ->
        Binproto.res_value space out ~flags ~addr ~len);
    (* The binary protocol has no multi-get frame in our subset. A
       binary request only reaches a multi-get when a fault rewrote its
       domain copy into text; its hits are still read and released. *)
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
          let buf = Serve.alloc t.core (String.length s) in
          Space.store_string t.space buf s;
          (match Store.prepare t.db ~key ~flags ~value_src:buf
                   ~value_len:(String.length s) with
          | Some item -> Store.commit t.db ~key item
          | None -> ());
          Serve.free t.core buf;
          Some (Result.Ok v'))

let stats_reply t =
  Proto.fmt_stats_reply
    [
      ("curr_items", string_of_int (Store.count t.db));
      ("bytes", string_of_int (Store.value_bytes t.db));
      ("evictions", string_of_int (Store.evictions t.db));
      ("total_requests", string_of_int (Serve.requests_served t.core));
      ("rewinds", string_of_int (Serve.rewinds t.core));
      ("dropped_connections",
       string_of_int (Telemetry.Metrics.counter_value t.c_dropped));
      ("busy_rejections", string_of_int (Serve.busy_rejections t.core));
      ("slab_pages", string_of_int (Slab.pages_allocated t.slab));
      (* Operator truth about the bounded audit log: how many incident
         records the monitor had to evict (0 for the Baseline variant). *)
      ("dropped_incidents",
       match t.sd with
       | Some sd -> string_of_int (Api.audit_dropped sd)
       | None -> "0");
    ]

(* [stats telemetry]: the registry's Prometheus exposition as the reply
   body. Under SDRaD the registry is the monitor's, so core, supervisor
   and server series all appear in one scrape. *)
let telemetry_reply t = Telemetry.Metrics.expose (Serve.metrics t.core)

(* Plain variants stage a value through a per-request buffer (exercising
   the allocator variant): [read] reads it from there, before the buffer
   is freed. *)
let staged t ~vaddr ~vlen read =
  let out = Serve.alloc t.core (vlen + 64) in
  Space.blit t.space ~src:vaddr ~dst:out ~len:vlen;
  let r = read out in
  Serve.free t.core out;
  r

let parse_any space ~addr ~len =
  if Binproto.is_binary space ~addr ~len then
    (binary_wire, Binproto.parse space ~addr ~len)
  else (text_wire, Proto.parse space ~addr ~len)

let rec start sched space ?sdrad ?supervisor ?faults net cfg =
  let sd = sdrad in
  Serve.boot ~name:"kvcache" cfg.variant ?sdrad space
    ~image_bytes:cfg.image_bytes;
  (* Database memory: a plain mapping for Baseline/Tlsf, a data domain
     under SDRaD (readable by nested domains, writable from root). *)
  let db_page_alloc =
    match (cfg.variant, sd) with
    | Sdrad, Some sd ->
        Api.init_data sd ~udi:cfg.db_udi ~heap_size:(2 * 1024 * 1024) ();
        Api.dprotect sd ~udi:nested_udi ~tddi:cfg.db_udi Prot.read;
        fun len -> Api.malloc sd ~udi:cfg.db_udi len
    | _ -> fun len -> Space.mmap space ~len ~prot:Prot.rw ~pkey:0
  in
  let slab = Slab.create ~max_bytes:cfg.max_db_bytes space ~alloc_page:db_page_alloc in
  let db = Store.create space ~buckets ~slab ~alloc_table:db_page_alloc in
  (* The shared mutex lives in its own data domain under SDRaD (§V-A). *)
  let lock_word =
    match (cfg.variant, sd) with
    | Sdrad, Some sd ->
        Api.init_data sd ~udi:lock_udi ~heap_size:4096 ();
        Api.malloc sd ~udi:lock_udi 8
    | _ -> Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0
  in
  let module M = Telemetry.Metrics in
  let core =
    Serve.create space cfg.variant ?sdrad ?supervisor ?faults ~name:"kvcache"
      ~alloc_site:"kv.alloc"
      ~malloc_region:(fun len ->
        match (cfg.variant, sd) with
        | Sdrad, Some sd ->
            (* Root-domain memory: grow via the SDRaD root heap so pages
               carry the root protection key. *)
            Api.malloc sd ~udi:Types.root_udi len
        | _ -> Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
      ~journal_cap:cfg.journal_cap ~proc_cycles:cfg.proc_cycles
      ~shed_queue_limit:cfg.shed_queue_limit
      ~gate_batch_limit:cfg.gate_batch_limit ~race_detector:cfg.race_detector
      ~counters:(fun m ->
        {
          Serve.served =
            M.counter m "kvcache_requests_total" ~help:"Requests handled";
          rewinds =
            M.counter m "kvcache_rewinds_total"
              ~help:"Events discarded by a domain rewind";
          busy =
            M.counter m "kvcache_busy_rejections_total"
              ~help:"Requests answered busy while quarantined";
          shed =
            M.counter m "kvcache_shed_total"
              ~help:"Requests shed by overload admission control";
          rewind_cycles =
            M.histogram m "kvcache_rewind_cycles"
              ~help:"Cycles from fault to connection closed";
        })
      ()
  in
  let metrics = Serve.metrics core in
  let t =
    {
      sched;
      space;
      cfg;
      core;
      sd;
      faults;
      client_udis = Hashtbl.create 16;
      next_client_udi = client_udi_base;
      slab;
      db;
      listener = Netsim.listen net ~port:cfg.port;
      waitsets = Array.init cfg.workers (fun _ -> Netsim.Waitset.create ());
      tids = [];
      all_conns = [];
      glock = Sched.Mutex.create ();
      lock_word;
      c_dropped =
        M.counter metrics "kvcache_dropped_connections_total"
          ~help:"Connections closed after a rewind";
      crashed = false;
    }
  in
  M.gauge_fn metrics "kvcache_items" ~help:"Items currently stored" (fun () ->
      float_of_int (Store.count t.db));
  M.gauge_fn metrics "kvcache_value_bytes" ~help:"Bytes of stored values"
    (fun () -> float_of_int (Store.value_bytes t.db));
  M.counter_fn metrics "kvcache_evictions_total" ~help:"LRU evictions"
    (fun () -> Store.evictions t.db);
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
          Serve.accept t.core c;
          t.all_conns <- c :: t.all_conns;
          Netsim.Waitset.add t.waitsets.(!next mod t.cfg.workers) c;
          incr next;
          loop ()
        end
  in
  try loop () with e -> crash_cleanup t; raise e

(* Each worker writes its value replies into one buffer of its own. *)
and worker t i =
  let ws = t.waitsets.(i) in
  let reply = Netsim.Buf.create () in
  let handle =
    match t.cfg.variant with
    | Baseline | Tlsf_alloc -> handle_plain t ws reply
    | Sdrad -> handle_sdrad t ws reply
  in
  try Serve.worker t.core ws ~drop:(Serve.drop t.core ws) ~shed:(shed t) ~handle
  with e -> crash_cleanup t; raise e

and shed t c req =
  let msg = Netsim.Buf.view req and n = Netsim.Buf.length req in
  let binary = n > 0 && Char.code msg.[0] = Binproto.magic_request in
  Serve.shed t.core c
    ~trace:
      (if binary then Binproto.trace_of_string msg n
       else Proto.trace_of_string msg n)
    ~udi:(udi_for_conn t c)
    (if binary then binary_wire.w_busy else text_wire.w_busy)

and handle_plain t ws reply c req =
  let space = t.space in
  let { Serve.addr = cbuf; len } = Serve.copy_in t.core c req in
  let w, cmd = parse_any space ~addr:cbuf ~len in
  match cmd with
  | Get key -> (
      match Store.get t.db key with
      | Some (vaddr, vlen, flags) ->
          staged t ~vaddr ~vlen (fun addr ->
              w.w_value space reply ~key ~flags ~addr ~len:vlen);
          Netsim.send_buf c reply
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
        let r =
          Serve.replay_or t.core rid (fun () ->
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
        Netsim.send c r
  | Delete { key; rid } ->
      Option.iter (Netsim.send c) (apply_deferred t w rid (`Delete key))
  | Multi_get keys ->
      (* Each hit's staging buffer is freed before the next key is looked
         up, so the values are read out as strings first. *)
      let hits =
        List.filter_map
          (fun key ->
            match Store.get t.db key with
            | Some (vaddr, vlen, flags) ->
                Some
                  ( key,
                    flags,
                    vlen,
                    staged t ~vaddr ~vlen (fun addr ->
                        Space.read_string space addr vlen) )
            | None -> None)
          keys
      in
      Netsim.send c
        (w.w_values
           (Proto.values_reply hits ~write:(fun v b off len ->
                Bytes.blit_string v 0 b off len)))
  | Arith { key; delta; negate; rid } ->
      Option.iter (Netsim.send c)
        (apply_deferred t w rid (`Arith (key, delta, negate)))
  | Stats -> Netsim.send c (stats_reply t)
  | Stats_telemetry -> Netsim.send c (telemetry_reply t)
  | Quit -> Serve.drop t.core ws c
  | Bad _ -> Netsim.send c w.w_error

(* Deferred update computed inside the nested domain, applied in the
   parent after a normal exit (Figure 3 steps 8-9). The plain variants
   apply their deletes and arithmetic through it directly. *)
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
      Some (Serve.replay_or t.core rid (fun () -> compute d))

(* With per-client domains, the udi is keyed by the connection's source
   address, so a client that reconnects (e.g. after its connection was
   dropped by a rewind) lands back in the same domain — its supervision
   history (budget, backoff, quarantine) follows it across connections,
   which is what defeats the reconnect-and-fault-again DoS loop. *)
and udi_for_conn t c =
  if not t.cfg.per_client_domains then nested_udi
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

and handle_sdrad t ws reply c req =
  let sd = Option.get t.sd in
  let space = t.space in
  let udi = udi_for_conn t c in
  let { Serve.addr = cbuf; len } = Serve.copy_in t.core c req in
  let binary = Binproto.is_binary space ~addr:cbuf ~len in
  let w = if binary then binary_wire else text_wire in
  let trace =
    if binary then Binproto.parse_trace space ~addr:cbuf ~len
    else Proto.parse_trace space ~addr:cbuf ~len
  in
  let on_rewind f =
    (* Abnormal exit: discard the event, close only this client. *)
    Log.info (fun m ->
        m "rewound event on conn %d: %a" (Netsim.id c) Types.pp_fault f);
    Serve.drop t.core ws c;
    Telemetry.Metrics.inc t.c_dropped;
    Serve.rewound t.core f;
    `Rewound
  in
  let body () =
    (* Deep copy of the connection buffer into the domain (step 4),
       through the cached per-(caller, callee) marshalling buffer: the
       persistent sub-heap keeps it across events, so steady state does
       no malloc/free per request. *)
    let dbuf = Api.gate_buffer sd ~udi (Serve.conn_buf_size + 8) in
    Space.blit space ~src:cbuf ~dst:dbuf ~len;
    Api.enter sd udi;
    (match t.faults with
    | Some fi ->
        ignore (Fault_inject.fire_in_domain fi ~site:"kv.domain" ~sd ~buf:dbuf ~len)
    | None -> ());
    let outcome = drive_machine_in_domain t sd ~udi ~dbuf ~len in
    Api.exit_domain sd;
    (* Apply the deferred update atomically in the parent (step 9),
       then format the response from the (accessible) domain data: a
       value into the reply buffer ([`Value]), anything else as a
       string. *)
    let outcome =
      match outcome with
      | `Value (addr, vlen, flags, key) ->
          w.w_value space reply ~key ~flags ~addr ~len:vlen;
          Api.free sd ~udi addr;
          (* Deferred LRU bump, applied with parent privileges. *)
          touch_locked t key;
          `Value
      | `Multi_value hits ->
          (* Per hit: read into the reply, free, bump. *)
          let text =
            Proto.values_reply hits ~write:(fun (key, addr) b off len ->
                Space.read_into space addr b off len;
                Api.free sd ~udi addr;
                touch_locked t key)
          in
          `Reply (w.w_values text)
      | `Miss -> `Reply w.w_miss
      | `Bad_cmd -> `Reply w.w_error
      | `Stats_cmd -> `Reply (stats_reply t)
      | `Telemetry_cmd -> `Reply (telemetry_reply t)
      | `Quit_cmd -> `Drop
      | `Deferred (rid, d, staged) -> (
          let r = apply_deferred t w rid d in
          Option.iter (fun p -> Api.free sd ~udi p) staged;
          match r with Some r -> `Reply r | None -> `Drop)
    in
    (* The marshalling buffer is cache-owned and reused by the next
       event; only the saved context is dropped here. *)
    Api.deinit sd udi;
    outcome
  in
  (match Serve.run t.core sd ~trace ~udi ~on_rewind body with
  | `Busy -> Serve.busy t.core c w.w_busy
  | `Rewound -> ()
  | `Value -> Netsim.send_buf c reply
  | `Reply r -> Netsim.send c r
  | `Drop -> Serve.drop t.core ws c);
  Serve.clear_trace t.core

(* drive_machine (Figure 3 step 6), executing inside the nested domain:
   reads the DB read-only, allocates only in its own sub-heap, and stages
   values and mutations for the parent. *)
and drive_machine_in_domain t sd ~udi ~dbuf ~len =
  let space = t.space in
  let _, cmd = parse_any space ~addr:dbuf ~len in
  match cmd with
  | Get key -> (
      (* The domain may only read the database: the LRU recency update is
         a write, so it is deferred to the parent like every mutation.
         The item's fields are read in [Store.peek]'s order. *)
      match Store.find t.db key with
      | 0 -> `Miss
      | item ->
          let flags = Store.item_flags t.db item in
          let vlen = Store.value_len t.db item in
          let vaddr = Store.value_addr t.db item in
          (* Copy the value into the domain: the response is assembled by
             the parent from this staged copy. *)
          let out = Api.malloc sd ~udi (max 8 vlen) in
          Space.blit space ~src:vaddr ~dst:out ~len:vlen;
          `Value (out, vlen, flags, key))
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
                Some (key, flags, vlen, (key, out))
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
let requests_served t = Serve.requests_served t.core
let rewinds t = Serve.rewinds t.core
let busy_rejections t = Serve.busy_rejections t.core
let shed_count t = Serve.shed_count t.core
let replay_hits t = Serve.replay_hits t.core
let journal t = Serve.journal t.core
let rewind_latencies t = Serve.rewind_latencies t.core
let dropped_connections t = Telemetry.Metrics.counter_value t.c_dropped
let race_detector t = Serve.race_detector t.core
let db_bytes t = Slab.pages_allocated t.slab * Slab.slab_page_size
let db_check t = Store.check t.db
let evictions t = Store.evictions t.db
