module Sched = Simkern.Sched
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Types = Sdrad.Types
module Fault_inject = Resilience.Fault_inject

type variant = Serve.variant = Baseline | Tlsf_alloc | Sdrad

type config = {
  variant : variant;
  workers : int;
  port : int;
  vulnerable : bool;
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
let db_udi = 11  (* data domain holding slabs + hash table *)
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
  glock : Sched.Mutex.mutex;
  lock_word : int;
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

let lock t =
  Sched.Mutex.lock t.glock;
  (* The lock word itself lives in (protected) memory: a real CAS. *)
  Space.store64 t.space t.lock_word 1

let unlock t =
  Space.store64 t.space t.lock_word 0;
  Sched.Mutex.unlock t.glock

(* The deferred LRU bump of a GET's key [s.[off, off + len)], under the
   lock without a closure. *)
let touch_locked t s off len =
  lock t;
  match Store.touch t.db s off len with
  | () -> unlock t
  | exception e -> unlock t; raise e

(* Response formatting differs between the text and binary protocols;
   request handling is shared. A value reply reads the value out of
   simulated memory straight into the worker's reply buffer. *)
type wire = {
  w_stored : string;
  w_oom : string;
  w_oom_get : string;
  w_busy : string;
  w_deleted : string;
  w_not_found : string;
  w_miss : string;
  w_error : string;
  w_value :
    Space.t -> Netsim.Buf.t -> Proto.req -> flags:int -> addr:int -> len:int ->
    unit;
  w_values : string -> string;  (* the multi-get reply, from the text one *)
}

let text_wire =
  {
    w_stored = Proto.stored;
    w_oom = Proto.server_error_oom;
    w_oom_get = Proto.server_error_oom_get;
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
    w_oom_get = Binproto.res_error Binproto.status_oom;
    w_busy = Binproto.res_error Binproto.status_busy;
    w_deleted = Binproto.res_deleted;
    w_not_found = Binproto.res_not_found;
    w_miss = Binproto.res_not_found;
    w_error = Binproto.res_error Binproto.status_einval;
    w_value =
      (fun space out _ ~flags ~addr ~len ->
        Binproto.res_value space out ~flags ~addr ~len);
    (* The binary protocol has no multi-get frame in our subset. A
       binary request only reaches a multi-get when a fault rewrote its
       domain copy into text; its hits are still read and released. *)
    w_values = (fun _ -> Binproto.res_error Binproto.status_einval);
  }

(* A worker's request state, made once with the worker: the scanned
   request, the reply buffer, and what a request's domain body hands
   back to the parent. Between requests it holds stale values. *)
type slot = {
  w : Serve.worker;
  reply : Netsim.Buf.t;
  req : Proto.req;
  mutable wire : wire;
  mutable udi : int;
  cbuf : int;  (* the worker's read buffer and the request's length *)
  mutable len : int;
  mutable vaddr : int;  (* a GET hit's value, staged in the domain *)
  mutable vlen : int;
  mutable vflags : int;
  mutable staged : int;  (* a write's staged copy in the domain; 0 = none *)
  mutable hits : (string * int * int * (string * int)) list;  (* multi-get *)
  mutable text : string;  (* a reply sent as a string *)
  mutable fault : Types.fault;  (* the fault a rewound request hit *)
}

let no_fault = { Types.failed_udi = 0; cause = Types.Stack_smash; tid = 0; at = 0.0 }

let make_slot w =
  {
    w;
    reply = Netsim.Buf.create ();
    req = Proto.create ();
    wire = text_wire;
    udi = 0;
    cbuf = Serve.buffer w;
    len = 0;
    vaddr = 0;
    vlen = 0;
    vflags = 0;
    staged = 0;
    hits = [];
    text = "";
    fault = no_fault;
  }

(* [Store.peek]'s reads of the request's key, in its order: whether an
   item is stored under it. *)
let present t (r : Proto.req) =
  match Store.find t.db r.src r.key r.key_len with
  | 0 -> false
  | item ->
      ignore (Store.item_flags t.db item);
      ignore (Store.value_len t.db item);
      ignore (Store.value_addr t.db item);
      true

(* [add] requires absence, [replace] requires presence (memcached). *)
let storage_mode_blocked t (r : Proto.req) =
  match r.kind with
  | Add -> present t r
  | Replace -> not (present t r)
  | _ -> false

(* incr/decr: parse the stored decimal value, apply the delta (clamping
   decrements at zero, as memcached does), store the new decimal back. *)
let apply_arith t w (r : Proto.req) =
  match Store.find t.db r.src r.key r.key_len with
  | 0 -> w.w_not_found
  | item -> (
      let flags = Store.item_flags t.db item in
      let vlen = Store.value_len t.db item in
      let vaddr = Store.value_addr t.db item in
      match Proto.decimal_value (Space.read_string t.space vaddr vlen) with
      | None ->
          "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
      | Some v ->
          let v' = if r.kind = Decr then max 0 (v - r.delta) else v + r.delta in
          let s = string_of_int v' in
          let buf = Serve.alloc t.core (String.length s) in
          Space.store_string t.space buf s;
          (match
             Store.prepare t.db r.src r.key r.key_len ~flags ~value_src:buf
               ~value_len:(String.length s)
           with
          | 0 -> ()
          | item -> Store.commit t.db r.src r.key r.key_len item);
          Serve.free t.core buf;
          Printf.sprintf "%d\r\n" v')

(* A deferred update, computed inside the nested domain and applied in
   the parent after a normal exit (Figure 3 steps 8-9), under the lock;
   a write's value is the copy staged in the domain. The plain variants
   apply their deletes and arithmetic through it directly. *)
let deferred t slot =
  let r = slot.req and w = slot.wire in
  lock t;
  match
    match r.kind with
    | Set | Add | Replace ->
        (* The presence check belongs inside the lock: the deferred
           commit must be atomic with it. *)
        if storage_mode_blocked t r then Proto.not_stored
        else
          let item =
            Store.prepare t.db r.src r.key r.key_len ~flags:r.flags
              ~value_src:slot.staged ~value_len:r.data_len
          in
          if item = 0 then w.w_oom
          else begin
            Store.commit t.db r.src r.key r.key_len item;
            w.w_stored
          end
    | Delete ->
        if Store.remove t.db r.src r.key r.key_len then w.w_deleted
        else w.w_not_found
    | _ -> apply_arith t w r
  with
  | v -> unlock t; v
  | exception e -> unlock t; raise e

(* A plain variant's store: allocate and fill outside the lock, link
   under it. *)
let plain_store t slot =
  let r = slot.req and w = slot.wire in
  if r.declared_len <> r.data_len then w.w_error
  else if storage_mode_blocked t r then Proto.not_stored
  else
    match
      Store.prepare t.db r.src r.key r.key_len ~flags:r.flags
        ~value_src:r.data_off ~value_len:r.data_len
    with
    | 0 -> w.w_oom
    | item ->
        lock t;
        (match Store.commit t.db r.src r.key r.key_len item with
        | () -> unlock t
        | exception e -> unlock t; raise e);
        w.w_stored

let stats_reply t =
  Proto.fmt_stats_reply
    [
      ("curr_items", string_of_int (Store.count t.db));
      ("bytes", string_of_int (Store.value_bytes t.db));
      ("evictions", string_of_int (Store.evictions t.db));
      ("total_requests", string_of_int (Serve.requests_served t.core));
      ("rewinds", string_of_int (Serve.rewinds t.core));
      ("dropped_connections", string_of_int (Serve.dropped_connections t.core));
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

(* Parse the request at [addr] into the slot's record with its own
   protocol's parser; the protocol's replies. *)
let parse_any space slot ~addr ~len =
  if Binproto.is_binary space ~addr ~len then begin
    Binproto.parse slot.req space ~addr ~len;
    binary_wire
  end
  else begin
    Proto.parse slot.req space ~addr ~len;
    text_wire
  end

(* A multi-get's keys, copied out: the words of the request's
   [src.[key, stop)]. *)
let multi_keys (r : Proto.req) =
  let s = r.src in
  let rec go i acc =
    let a = Proto.word_start s i r.stop in
    if a = r.stop then List.rev acc
    else
      let b = Proto.word_stop s a r.stop in
      go b (String.sub s a (b - a) :: acc)
  in
  go r.key []

let rec start sched space ?sdrad ?supervisor ?faults net cfg =
  let sd = sdrad in
  Serve.boot ~name:"kvcache" cfg.variant ?sdrad space
    ~image_bytes:cfg.image_bytes;
  (* Database memory: a plain mapping for Baseline/Tlsf, a data domain
     under SDRaD (readable by nested domains, writable from root). Its
     allocator answers 0, as malloc answers NULL, once the space is
     exhausted: the slab then evicts and the table keeps its size. *)
  let db_alloc, db_free =
    match (cfg.variant, sd) with
    | Sdrad, Some sd ->
        Api.init_data sd ~udi:db_udi ~heap_size:(2 * 1024 * 1024) ();
        Api.dprotect sd ~udi:nested_udi ~tddi:db_udi Prot.read;
        ( (fun len ->
            match Api.malloc sd ~udi:db_udi len with
            | p -> p
            | exception Tlsf.Out_of_memory -> 0),
          fun addr -> Api.free sd ~udi:db_udi addr )
    | _ ->
        ( (fun len ->
            match Space.mmap space ~len ~prot:Prot.rw ~pkey:0 with
            | p -> p
            | exception Space.Exhausted -> 0),
          Space.munmap space )
  in
  let slab =
    Slab.create ~max_bytes:cfg.max_db_bytes space ~alloc_page:db_alloc
  in
  let db =
    Store.create space ~buckets ~slab ~alloc_table:db_alloc ~free_table:db_free
  in
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
    Serve.create space cfg.variant ?sdrad ?supervisor ?faults net
      ~port:cfg.port ~workers:cfg.workers One_process ~name:"kvcache"
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
          dropped =
            M.counter m "kvcache_dropped_connections_total"
              ~help:"Connections lost to faults or the process's crash";
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
      glock = Sched.Mutex.create ();
      lock_word;
    }
  in
  M.gauge_fn metrics "kvcache_items" ~help:"Items currently stored" (fun () ->
      float_of_int (Store.count t.db));
  M.gauge_fn metrics "kvcache_value_bytes" ~help:"Bytes of stored values"
    (fun () -> float_of_int (Store.value_bytes t.db));
  M.counter_fn metrics "kvcache_evictions_total" ~help:"LRU evictions"
    (fun () -> Store.evictions t.db);
  Serve.start core sched ~threads:"mc" ~shed:(shed t) ~serve:(worker t);
  t

(* Each worker serves its requests through one slot of its own, and
   under SDRaD builds its domain closures once. *)
and worker t w =
  let slot = make_slot w in
  match (t.cfg.variant, t.sd) with
  | Sdrad, Some sd ->
      (* Abnormal exit: the event is discarded, and [Serve.run] closes
         only this client. *)
      let on_rewind f =
        slot.fault <- f;
        `Rewound
      in
      let body () = domain_body t slot sd in
      fun c req -> handle_sdrad t slot sd ~on_rewind ~body c req
  | _ -> (
      fun c req ->
        match handle_plain t slot c req with
        | () -> ()
        | exception Space.Exhausted ->
            (* A staging buffer the space has no room for, asked for
               before any reply: memcached's out-of-memory reply, and
               the worker goes on. *)
            let w = slot.wire in
            Netsim.send c
              (match slot.req.kind with
              | Get | Multi_get -> w.w_oom_get
              | _ -> w.w_oom))

and shed t _ c req =
  let msg = Netsim.Buf.view req and n = Netsim.Buf.length req in
  let binary = n > 0 && Char.code msg.[0] = Binproto.magic_request in
  Serve.shed t.core c
    ~trace:
      (if binary then Binproto.trace_of_string msg n
       else Proto.trace_of_string msg n)
    ~udi:(udi_for_conn t c)
    (if binary then binary_wire.w_busy else text_wire.w_busy)

and handle_plain t slot c req =
  let space = t.space in
  let len = Serve.copy_in t.core slot.w req in
  let w = parse_any space slot ~addr:slot.cbuf ~len in
  slot.wire <- w;
  let r = slot.req in
  match r.kind with
  | Get -> (
      match Store.find t.db r.src r.key r.key_len with
      | 0 -> Netsim.send c w.w_miss
      | item ->
          (* A hit's reads: bump, then flags, length, address. Plain
             variants stage the value through a per-request buffer
             (exercising the allocator variant) and read the reply from
             there. *)
          Store.bump t.db item;
          let flags = Store.item_flags t.db item in
          let vlen = Store.value_len t.db item in
          let vaddr = Store.value_addr t.db item in
          let out = Serve.alloc t.core (vlen + 64) in
          Space.blit space ~src:vaddr ~dst:out ~len:vlen;
          w.w_value space slot.reply r ~flags ~addr:out ~len:vlen;
          Serve.free t.core out;
          Netsim.send_buf c slot.reply)
  | Set | Add | Replace ->
      if t.cfg.vulnerable && r.declared_len < 0 then begin
        (* item allocated from the (bogus, truncated) length... *)
        let item =
          match Slab.alloc t.slab (Store.header_size + r.key_len + r.data_len) with
          | 0 -> failwith "slab exhausted"
          | p -> p
        in
        (* ...then the unchecked copy rampages until it faults. *)
        vulnerable_copy t ~src:r.data_off
          ~dst:(item + Store.header_size + r.key_len)
          ~declared:r.declared_len;
        Netsim.send c w.w_stored
      end
      else
        Netsim.send c
          (Serve.replay_or t.core r.src r.rid r.rid_len plain_store t slot)
  | Delete | Incr | Decr ->
      Netsim.send c
        (Serve.replay_or t.core r.src r.rid r.rid_len deferred t slot)
  | Multi_get ->
      (* Each hit's staging buffer is freed before the next key is looked
         up, so the values are read out as strings first. *)
      let hits =
        List.filter_map
          (fun key ->
            match Store.find t.db key 0 (String.length key) with
            | 0 -> None
            | item ->
                (* A GET hit's reads, in its order. *)
                Store.bump t.db item;
                let flags = Store.item_flags t.db item in
                let vlen = Store.value_len t.db item in
                let vaddr = Store.value_addr t.db item in
                let out = Serve.alloc t.core (vlen + 64) in
                Space.blit space ~src:vaddr ~dst:out ~len:vlen;
                let v = Space.read_string space out vlen in
                Serve.free t.core out;
                Some (key, flags, vlen, v))
          (multi_keys r)
      in
      Netsim.send c
        (w.w_values
           (Proto.values_reply hits ~write:(fun v b off len ->
                Bytes.blit_string v 0 b off len)))
  | Stats -> Netsim.send c (stats_reply t)
  | Stats_telemetry -> Netsim.send c (telemetry_reply t)
  | Quit -> Serve.close slot.w c
  | Bad -> Netsim.send c w.w_error

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
        | Some sd -> Api.dprotect sd ~udi ~tddi:db_udi Prot.read
        | None -> ());
        udi

(* [on_rewind] and [body] are the worker's, built once: [Serve.run] runs
   [body] in the request's event domain. *)
and handle_sdrad t slot sd ~on_rewind ~body c req =
  let space = t.space in
  slot.udi <- udi_for_conn t c;
  slot.len <- Serve.copy_in t.core slot.w req;
  let binary = Binproto.is_binary space ~addr:slot.cbuf ~len:slot.len in
  let w = if binary then binary_wire else text_wire in
  slot.wire <- w;
  let trace =
    if binary then Binproto.parse_trace space ~addr:slot.cbuf ~len:slot.len
    else Proto.parse_trace slot.req space ~addr:slot.cbuf ~len:slot.len
  in
  match
    Serve.run t.core slot.w sd c ~trace ~udi:slot.udi ~busy:w.w_busy
      ~on_rewind body
  with
  | `Busy -> ()
  | `Rewound ->
      (* The event was discarded and only this client closed: the
         latency ends here. *)
      Serve.rewound t.core slot.w slot.fault
  | `Value -> Netsim.send_buf c slot.reply
  | `Reply -> Netsim.send c slot.text
  | `Drop -> Serve.close slot.w c

(* The request's event-domain run (Figure 3): the read buffer is
   deep-copied into the domain (step 4) through the cached
   per-(caller, callee) marshalling buffer — the persistent sub-heap
   keeps it across events, so steady state does no malloc/free per
   request — and [drive_machine] runs there. After a normal exit the
   deferred update is applied atomically in the parent (step 9) and the
   response formatted from the (accessible) domain data: a value into
   the reply buffer ([`Value]), anything else as a string ([`Reply]). *)
and domain_body t slot sd =
  let space = t.space and udi = slot.udi and w = slot.wire in
  let dbuf = Api.gate_buffer sd ~udi (Serve.conn_buf_size + 8) in
  Space.blit space ~src:slot.cbuf ~dst:dbuf ~len:slot.len;
  Api.enter sd udi;
  (match t.faults with
  | Some fi ->
      ignore
        (Fault_inject.fire_in_domain fi ~site:"kv.domain" ~sd ~buf:dbuf
           ~len:slot.len)
  | None -> ());
  let outcome = drive_machine_in_domain t sd slot ~dbuf in
  Api.exit_domain sd;
  let outcome =
    match outcome with
    | `Value ->
        w.w_value space slot.reply slot.req ~flags:slot.vflags
          ~addr:slot.vaddr ~len:slot.vlen;
        Api.free sd ~udi slot.vaddr;
        (* Deferred LRU bump, applied with parent privileges. *)
        touch_locked t slot.req.src slot.req.key slot.req.key_len;
        `Value
    | `Multi_value ->
        (* Per hit: read into the reply, free, bump. *)
        let text =
          Proto.values_reply slot.hits ~write:(fun (key, addr) b off len ->
              Space.read_into space addr b off len;
              Api.free sd ~udi addr;
              touch_locked t key 0 (String.length key))
        in
        slot.text <- w.w_values text;
        `Reply
    | `Miss -> slot.text <- w.w_miss; `Reply
    | `Bad_cmd -> slot.text <- w.w_error; `Reply
    | `Stats_cmd -> slot.text <- stats_reply t; `Reply
    | `Telemetry_cmd -> slot.text <- telemetry_reply t; `Reply
    | `Quit_cmd -> `Drop
    | `Deferred ->
        let r = slot.req in
        slot.text <- Serve.replay_or t.core r.src r.rid r.rid_len deferred t slot;
        if slot.staged <> 0 then Api.free sd ~udi slot.staged;
        `Reply
    | `Discarded ->
        if slot.staged <> 0 then Api.free sd ~udi slot.staged;
        `Drop
  in
  (* The marshalling buffer is cache-owned and reused by the next
     event; only the saved context is dropped here. *)
  Api.deinit sd udi;
  outcome

(* drive_machine (Figure 3 step 6), executing inside the nested domain:
   reads the DB read-only, allocates only in its own sub-heap, and stages
   values and mutations for the parent in the slot. *)
and drive_machine_in_domain t sd slot ~dbuf =
  let space = t.space and udi = slot.udi in
  ignore (parse_any space slot ~addr:dbuf ~len:slot.len);
  let r = slot.req in
  slot.staged <- 0;
  match r.kind with
  | Get -> (
      (* The domain may only read the database: the LRU recency update is
         a write, so it is deferred to the parent like every mutation.
         The item's fields are read in [Store.peek]'s order. *)
      match Store.find t.db r.src r.key r.key_len with
      | 0 -> `Miss
      | item ->
          slot.vflags <- Store.item_flags t.db item;
          let vlen = Store.value_len t.db item in
          let vaddr = Store.value_addr t.db item in
          (* Copy the value into the domain: the response is assembled by
             the parent from this staged copy. *)
          let out = Api.malloc sd ~udi (max 8 vlen) in
          Space.blit space ~src:vaddr ~dst:out ~len:vlen;
          slot.vaddr <- out;
          slot.vlen <- vlen;
          `Value)
  | Set | Add | Replace ->
      if t.cfg.vulnerable && r.declared_len < 0 then begin
        (* Wrapped slabs_alloc: the copy item lives in the nested domain,
           so the rampaging copy hits the domain boundary, not the DB. *)
        let icopy =
          Api.malloc sd ~udi (Store.header_size + r.key_len + r.data_len)
        in
        vulnerable_copy t ~src:r.data_off
          ~dst:(icopy + Store.header_size + r.key_len)
          ~declared:r.declared_len;
        slot.staged <- icopy;
        `Discarded
      end
      else if r.declared_len <> r.data_len then `Bad_cmd
      else begin
        let vcopy = Api.malloc sd ~udi (max 8 r.data_len) in
        Space.blit space ~src:r.data_off ~dst:vcopy ~len:r.data_len;
        slot.staged <- vcopy;
        `Deferred
      end
  | Multi_get ->
      slot.hits <-
        List.filter_map
          (fun key ->
            match Store.peek t.db key with
            | Some (vaddr, vlen, flags) ->
                let out = Api.malloc sd ~udi (max 8 vlen) in
                Space.blit space ~src:vaddr ~dst:out ~len:vlen;
                Some (key, flags, vlen, (key, out))
            | None -> None)
          (multi_keys r);
      `Multi_value
  | Delete | Incr | Decr -> `Deferred
  | Stats -> `Stats_cmd
  | Stats_telemetry -> `Telemetry_cmd
  | Quit -> `Quit_cmd
  | Bad -> `Bad_cmd

let stop t = Serve.stop t.core
let join t = List.iter Sched.join (Serve.threads t.core)

let worker_busy_cycles t =
  List.fold_left
    (fun acc tid ->
      match (Sched.thread_clock t.sched tid, Sched.thread_waited t.sched tid) with
      | Some c, Some w -> acc +. (c -. w)
      | _ -> acc)
    0.0 (Serve.threads t.core)

(* [Serve.threads] less the dispatcher's. *)
let worker_utilization t =
  List.filter_map (Sched.busy_fraction t.sched) (List.tl (Serve.threads t.core))

let store t = t.db
let crashed t = not (Serve.alive t.core)
let requests_served t = Serve.requests_served t.core
let rewinds t = Serve.rewinds t.core
let busy_rejections t = Serve.busy_rejections t.core
let shed_count t = Serve.shed_count t.core
let replay_hits t = Serve.replay_hits t.core
let journal t = Serve.journal t.core
let rewind_latencies t = Serve.rewind_latencies t.core
let dropped_connections t = Serve.dropped_connections t.core
let live_connections t = Serve.live_connections t.core
let race_detector t = Serve.race_detector t.core
let db_bytes t = Slab.pages_allocated t.slab * Slab.slab_page_size
let db_check t = Store.check t.db
let evictions t = Store.evictions t.db
