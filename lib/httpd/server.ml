module Sched = Simkern.Sched
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Fault_inject = Resilience.Fault_inject

let log_src = Logs.Src.create "sdrad.httpd" ~doc:"web server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type variant = Serve.variant = Baseline | Tlsf_alloc | Sdrad

type config = {
  variant : variant;
  workers : int;
  port : int;
  vulnerable : bool;
  verify_certs : bool;
  parser_udi : int;
  rewind_limit : int option;
  per_worker_domains : bool;
  shed_queue_limit : int;
  race_detector : bool;  (* attach the dynamic race detector at start *)
}

let default_config =
  {
    variant = Baseline;
    workers = 1;
    port = 8080;
    vulnerable = false;
    verify_certs = false;
    parser_udi = 1;
    rewind_limit = None;
    per_worker_domains = false;
    shed_queue_limit = 0;
    race_detector = false;
  }

let cert_udi = 2
let pool_udi = 13  (* data domain for request pools under SDRaD *)
let proc_cycles = 11_000.0  (* per-request base processing cost *)
let max_restarts = 1_000
let image_bytes = 2 * 1024 * 1024
let journal_cap = 256
let uri_dst_cap = 2048
let worker_restart_cost = 2.1e6 (* ~1 ms: fork + exec + init *)

type worker_slot = {
  idx : int;
  mutable ws : Netsim.Waitset.ws;
  mutable live_conns : Netsim.conn list;
  mutable tid : Sched.tid;
  mutable pool : int;  (* per-worker request pool base (bump-reset) *)
  mutable slot_rewinds : int;  (* since this worker (re)started *)
  mutable alive : bool;
}

type t = {
  sched : Sched.t;
  space : Space.t;
  cfg : config;
  core : Serve.t;
  sd : Api.t option;
  faults : Fault_inject.t option;
  fs : Fs.t;
  listener : Netsim.listener;
  slots : worker_slot array;
  deaths : (int * float) Queue.t;
  death_lock : Sched.Mutex.mutex;
  death_cond : Sched.Cond.cond;
  mutable stopping : bool;
  pool_alloc : int -> int;
  mutable post_count : int;  (* the mutable state behind POST /count *)
  c_restarts : Telemetry.Metrics.counter;
  c_dropped : Telemetry.Metrics.counter;
  c_proactive : Telemetry.Metrics.counter;
  mutable restart_lat : float list;
}

let conn_token keep_alive = if keep_alive then "keep-alive" else "close"

let http_200 ~keep_alive body =
  Printf.sprintf
    "HTTP/1.1 200 OK\r\nServer: simginx\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n%s"
    (String.length body) (conn_token keep_alive) body

let http_200_head ~keep_alive size =
  Printf.sprintf
    "HTTP/1.1 200 OK\r\nServer: simginx\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n"
    size (conn_token keep_alive)

let http_404 = "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"

let http_503 =
  "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n"

let http_400 = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
let http_403 = "HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n"
let http_405 = "HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n"

(* Pre-parse scan of the raw request bytes for the [traceparent] header:
   admission decisions (shed, admit) are taken before the sandboxed
   header parse, but their flight-recorder events should still carry the
   client's causal trace id. The authoritative parse is the header
   phase's. *)
let trace_of_msg msg =
  let rec scan off =
    match String.index_from_opt msg off '\n' with
    | None -> 0L
    | Some nl ->
        let line = String.trim (String.sub msg off (nl - off)) in
        if line = "" then 0L (* end of headers: no traceparent *)
        else if
          String.length line > 12
          && String.lowercase_ascii (String.sub line 0 12) = "traceparent:"
        then
          match
            Telemetry.Context.of_traceparent
              (String.trim (String.sub line 12 (String.length line - 12)))
          with
          | Some ctx -> Telemetry.Context.trace ctx
          | None -> 0L
        else scan (nl + 1)
  in
  scan 0

(* Serve the (already parsed) request: certificate check, file lookup,
   response. Runs in the worker's root context for every variant. *)
(* RFC 7230 §6.3: HTTP/1.1 persists unless "Connection: close"; HTTP/1.0
   closes unless "Connection: keep-alive". *)
let wants_keep_alive ~version ~headers =
  match Http_parse.find_header headers "connection" with
  | Some v -> String.lowercase_ascii v <> "close"
  | None -> version <> "HTTP/1.0"

let respond t slot c ~meth ~version ~path ~headers ~body =
  let keep_alive = wants_keep_alive ~version ~headers in
  let cert_ok =
    if not t.cfg.verify_certs then `Ok
    else
      match Http_parse.find_header headers "x-client-cert" with
      | None -> `Ok
      | Some cert -> (
          match (t.cfg.variant, t.sd) with
          | Sdrad, Some sd ->
              (* §V-C: the X.509 verification API isolated in its own
                 nested domain; the punycode overflow is caught by the
                 stack canary and triggers a rewind. *)
              Api.run sd ~udi:cert_udi
                ~on_rewind:(fun f ->
                  Serve.rewound t.core f;
                  slot.slot_rewinds <- slot.slot_rewinds + 1;
                  `Faulted)
                (fun () ->
                  Api.enter sd cert_udi;
                  let ok = Crypto.X509.verify sd cert in
                  Api.exit_domain sd;
                  Api.destroy sd cert_udi ~heap:`Discard;
                  if ok then `Ok else `Bad)
          | _, Some sd ->
              (* Unprotected build: verification in the root domain; a
                 smashed canary kills the worker. *)
              if Crypto.X509.verify sd cert then `Ok else `Bad
          | _, None -> `Ok)
  in
  match cert_ok with
  | `Faulted -> `Close
  | `Bad ->
      Netsim.send c http_403;
      `Keep
  | `Ok ->
      (match meth with
      | "GET" when path = "/metrics" ->
          (* Prometheus scrape endpoint: the registry's text exposition. *)
          Netsim.send c
            (http_200 ~keep_alive (Telemetry.Metrics.expose (Serve.metrics t.core)))
      | "GET" -> (
          match Fs.lookup t.fs path with
          | Some _ -> Netsim.send c (http_200 ~keep_alive (Fs.read_body t.fs path))
          | None ->
              (* Autoindex for directories, as nginx with autoindex on. *)
              if Vfs.is_dir (Fs.vfs t.fs) path then begin
                let entries = Vfs.list_dir (Fs.vfs t.fs) path in
                let body =
                  Printf.sprintf "<html><body><h1>Index of %s</h1><ul>%s</ul></body></html>"
                    path
                    (String.concat ""
                       (List.map (fun e -> Printf.sprintf "<li>%s</li>" e) entries))
                in
                Netsim.send c (http_200 ~keep_alive body)
              end
              else Netsim.send c http_404)
      | "HEAD" -> (
          match Fs.lookup t.fs path with
          | Some size -> Netsim.send c (http_200_head ~keep_alive size)
          | None -> Netsim.send c http_404)
      | "POST" ->
          (* POSTs are the server's mutations: an [X-Request-Id] header
             keys the replay journal, which lives in the master process's
             memory — the part of the address space a parser-domain
             discard can never reclaim — so a client retrying after a
             rewind gets the journaled response instead of re-applying. *)
          let compute () =
            if path = "/echo" then begin
              (* The request body still sits in the connection buffer;
                 only its *parsing* was sandboxed. *)
              let addr, len = body in
              let payload = Space.read_string t.space addr len in
              http_200 ~keep_alive payload
            end
            else if path = "/count" then begin
              (* The non-idempotent endpoint: applying a retry twice
                 would be observable here. *)
              t.post_count <- t.post_count + 1;
              http_200 ~keep_alive (string_of_int t.post_count)
            end
            else http_405
          in
          Netsim.send c
            (Serve.replay_or t.core
               (Http_parse.find_header headers "x-request-id")
               compute)
      | _ -> Netsim.send c http_405);
      if keep_alive then `Keep else `Close_graceful

(* The parser's three phases — request line, complex URI, headers — over
   a request in [buf], with the normalized URI written to [dst] and the
   body returned relative to [buf]. [enter]/[exit] bracket every phase:
   no-ops for the plain variants, one domain transition each under
   SDRaD. A memory fault inside a phase must reach the rewind machinery
   with the domain still entered (a signal, not a return), so only a
   normal return or a parse error exits it.
   @raise Http_parse.Bad_request *)
let parse t ~enter ~exit ~buf ~len ~dst =
  let phase f =
    enter ();
    match f () with
    | v ->
        exit ();
        v
    | exception (Http_parse.Bad_request _ as e) ->
        exit ();
        raise e
  in
  let rl, hdr_off =
    phase (fun () -> Http_parse.parse_request_line t.space ~addr:buf ~len)
  in
  let norm =
    phase (fun () ->
        Http_parse.parse_complex_uri t.space ~src:rl.Http_parse.raw_uri_off
          ~len:rl.Http_parse.raw_uri_len ~dst ~dst_cap:uri_dst_cap
          ~vulnerable:t.cfg.vulnerable)
  in
  let headers, body_rel, body_len =
    phase (fun () ->
        let headers, hdr_len =
          Http_parse.parse_headers t.space ~addr:hdr_off
            ~len:(len - (hdr_off - buf))
        in
        let body_off = hdr_off + hdr_len in
        ( headers,
          body_off - buf,
          Http_parse.validate_body headers ~avail:(buf + len - body_off) ))
  in
  ( rl.Http_parse.meth,
    rl.Http_parse.version,
    Space.read_string t.space dst norm,
    headers,
    (body_rel, body_len) )

(* Baseline parsing: directly in the connection buffer; the normalized
   URI goes to the head of the worker's request pool (so the CVE's
   backward scan falls off the pool's guard page). *)
let handle_plain t slot c ~cbuf ~len =
  match parse t ~enter:ignore ~exit:ignore ~buf:cbuf ~len ~dst:slot.pool with
  | meth, version, path, headers, (body_rel, body_len) ->
      respond t slot c ~meth ~version ~path ~headers
        ~body:(cbuf + body_rel, body_len)
  | exception Http_parse.Bad_request _ ->
      Netsim.send c http_400;
      `Keep

(* With per-worker domains each slot parses in its own udi, so the
   supervisor can quarantine one worker's parser without fencing the
   others. [parser_udi] must leave [workers] consecutive udis free. *)
let slot_udi t slot =
  if t.cfg.per_worker_domains then t.cfg.parser_udi + slot.idx
  else t.cfg.parser_udi

(* SDRaD parsing (§V-B): request bytes are copied into the persistent
   parser domain, each parse phase is its own domain transition, and the
   normalized URI is copied back out on success. *)
let handle_sdrad t slot sd c msg ~cbuf ~len =
  let udi = slot_udi t slot in
  let on_rewind f =
    Serve.rewound t.core f;
    slot.slot_rewinds <- slot.slot_rewinds + 1;
    `Close_faulted
  in
  let body () =
      (* [dst] first (slot 0) so it sits at the bottom of the domain
         sub-heap: the underflow exits the domain instead of finding
         stale '/' bytes. Both are cached marshalling buffers — the
         persistent parser domain keeps them across requests, so steady
         state pays no malloc/free pair per request. *)
      let dst = Api.gate_buffer sd ~slot:0 ~udi uri_dst_cap in
      let copy = Api.gate_buffer sd ~slot:1 ~udi (Serve.conn_buf_size + 8) in
      Space.blit t.space ~src:cbuf ~dst:copy ~len;
      let enter () =
        Api.enter sd udi;
        match t.faults with
        | Some fi ->
            ignore
              (Fault_inject.fire_in_domain fi ~site:"httpd.parse" ~sd ~buf:copy
                 ~len)
        | None -> ()
      in
      let parsed =
        match
          parse t ~enter ~exit:(fun () -> Api.exit_domain sd) ~buf:copy ~len
            ~dst
        with
        | request -> `Parsed request
        | exception Http_parse.Bad_request _ -> `Bad_request
      in
      Api.deinit sd udi;
      parsed
  in
  (* The request's trace covers its whole handling, [respond] included:
     parse-phase switches, faults, replays and audit records inherit it. *)
  match Serve.run t.core sd ~trace:(trace_of_msg msg) ~udi ~on_rewind body with
  | `Busy ->
      (* Quarantined parser domain: degrade instead of serving — the
         client gets a retryable 503 and keeps its connection. *)
      Serve.busy t.core c http_503;
      `Keep
  | `Close_faulted -> `Close
  | `Bad_request ->
      Netsim.send c http_400;
      `Keep
  | `Parsed (meth, version, path, headers, (body_rel, body_len)) ->
      (* Body bytes are served from the original connection buffer. *)
      respond t slot c ~meth ~version ~path ~headers
        ~body:(cbuf + body_rel, body_len)


let rec start sched space ?sdrad ?supervisor ?faults net ~fs cfg =
  let sd = sdrad in
  Serve.boot ~name:"httpd" cfg.variant ?sdrad space ~image_bytes;
  let pool_alloc =
    match (cfg.variant, sd) with
    | Sdrad, Some sd ->
        (* Request pools live in a dedicated data domain (§V-B). Every
           parser udi a slot may use needs write access to it. *)
        Api.init_data sd ~udi:pool_udi ~heap_size:(256 * 1024) ();
        let parser_udis =
          if cfg.per_worker_domains then
            List.init cfg.workers (fun i -> cfg.parser_udi + i)
          else [ cfg.parser_udi ]
        in
        List.iter
          (fun udi -> Api.dprotect sd ~udi ~tddi:pool_udi Prot.rw)
          parser_udis;
        fun len -> Api.malloc sd ~udi:pool_udi len
    | _ ->
        (* One pool region per worker; a fresh mapping, so the guard page
           sits right below the URI buffer. *)
        fun len -> Space.mmap space ~len ~prot:Prot.rw ~pkey:0
  in
  let module M = Telemetry.Metrics in
  let core =
    Serve.create space cfg.variant ?sdrad ?supervisor ?faults ~name:"httpd"
      ~alloc_site:"httpd.alloc"
      ~malloc_region:(fun len -> Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
      ~journal_cap ~proc_cycles ~shed_queue_limit:cfg.shed_queue_limit
      ~gate_batch_limit:0 ~race_detector:cfg.race_detector
      ~counters:(fun m ->
        {
          Serve.served =
            M.counter m "httpd_requests_total" ~help:"Requests handled";
          rewinds =
            M.counter m "httpd_rewinds_total"
              ~help:"Requests discarded by a domain rewind";
          busy =
            M.counter m "httpd_busy_503_total"
              ~help:"Requests answered 503 while quarantined";
          shed =
            M.counter m "httpd_shed_total"
              ~help:"Requests shed by overload admission control";
          rewind_cycles =
            M.histogram m "httpd_rewind_cycles"
              ~help:"Cycles from fault to request discarded";
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
      fs;
      listener = Netsim.listen net ~port:cfg.port;
      slots =
        Array.init cfg.workers (fun idx ->
            {
              idx;
              ws = Netsim.Waitset.create ();
              live_conns = [];
              tid = -1;
              pool = 0;
              slot_rewinds = 0;
              alive = false;
            });
      deaths = Queue.create ();
      death_lock = Sched.Mutex.create ();
      death_cond = Sched.Cond.create ();
      stopping = false;
      pool_alloc;
      post_count = 0;
      c_restarts =
        M.counter metrics "httpd_worker_restarts_total"
          ~help:"Worker processes respawned by the master";
      c_dropped =
        M.counter metrics "httpd_dropped_connections_total"
          ~help:"Connections lost to faults or worker deaths";
      c_proactive =
        M.counter metrics "httpd_proactive_restarts_total"
          ~help:"Voluntary re-execs after the rewind limit";
      restart_lat = [];
    }
  in
  Array.iter (fun slot -> spawn_worker t slot) t.slots;
  ignore (Sched.spawn sched ~name:"nginx-master" (fun () -> master t));
  ignore (Sched.spawn sched ~name:"nginx-accept" (fun () -> acceptor t));
  t

and spawn_worker t slot =
  slot.slot_rewinds <- 0;
  slot.alive <- true;
  slot.pool <- t.pool_alloc uri_dst_cap;
  slot.tid <-
    Sched.spawn t.sched
      ~name:(Printf.sprintf "nginx-worker%d" slot.idx)
      (fun () -> worker t slot)

and acceptor t =
  let next = ref 0 in
  (* Round-robin over workers that are actually alive: a connection handed
     to a dead worker's (closed) waitset would never be served. *)
  let pick_slot () =
    let rec try_from i remaining =
      if remaining = 0 then None
      else
        let slot = t.slots.(i mod t.cfg.workers) in
        if slot.alive then Some slot else try_from (i + 1) (remaining - 1)
    in
    let r = try_from !next t.cfg.workers in
    incr next;
    r
  in
  let rec loop () =
    match Netsim.accept t.listener with
    | None -> ()
    | Some c ->
        (match pick_slot () with
        | None ->
            (* No worker alive right now: connection refused. *)
            Netsim.close c
        | Some slot ->
            Serve.accept t.core c;
            slot.live_conns <- c :: slot.live_conns;
            Netsim.Waitset.add slot.ws c);
        loop ()
  in
  loop ()

and worker t slot =
  let drop c =
    Serve.drop t.core slot.ws c;
    slot.live_conns <- List.filter (fun x -> not (x == c)) slot.live_conns
  in
  (* Overload: answer the retryable 503 before any parsing or domain
     switch is spent on this request. *)
  let shed c msg =
    Serve.shed t.core c ~trace:(trace_of_msg msg) ~udi:(slot_udi t slot)
      http_503
  in
  let handle c msg =
    let { Serve.addr = cbuf; len } = Serve.copy_in t.core c msg in
    let verdict =
      match (t.cfg.variant, t.sd) with
      | Sdrad, Some sd -> handle_sdrad t slot sd c msg ~cbuf ~len
      | _ -> handle_plain t slot c ~cbuf ~len
    in
    Serve.clear_trace t.core;
    (match verdict with
    | `Keep -> ()
    | (`Close | `Close_graceful) as v ->
        drop c;
        if v = `Close then Telemetry.Metrics.inc t.c_dropped);
    (* Scheduler-level chaos: lose this worker "process" between
       requests; the master observes the death and respawns. *)
    match t.faults with
    | Some fi ->
        ignore
          (Fault_inject.maybe_kill fi ~site:"httpd.worker" ~sched:t.sched
             ~tid:slot.tid)
    | None -> ()
  in
  (* §VI mitigation: after too many rewinds, re-exec voluntarily to
     re-randomize the address space. *)
  let after () =
    match t.cfg.rewind_limit with
    | Some limit when slot.slot_rewinds >= limit ->
        Log.info (fun m ->
            m "worker %d reached its rewind limit (%d); re-exec" slot.idx limit);
        Telemetry.Metrics.inc t.c_proactive;
        raise Exit
    | Some _ | None -> ()
  in
  try Serve.worker t.core ~after slot.ws ~drop ~shed ~handle
  with _e ->
    (* The worker process dies: its connections are torn down by the
       kernel and the master is notified via SIGCHLD. *)
    slot.alive <- false;
    let at = Sched.now () in
    let conns = slot.live_conns in
    Telemetry.Metrics.add t.c_dropped (List.length conns);
    List.iter Netsim.close conns;
    slot.live_conns <- [];
    Netsim.Waitset.close slot.ws;
    Sched.Mutex.with_lock t.death_lock (fun () ->
        Queue.add (slot.idx, at) t.deaths;
        Sched.Cond.signal t.death_cond);
    (* Their buffers go back only after the death notice is queued, so a
       failing free cannot lose the respawn. *)
    List.iter (Serve.forget t.core) conns

and master t =
  let rec loop () =
    let event =
      Sched.Mutex.with_lock t.death_lock (fun () ->
          while Queue.is_empty t.deaths && not t.stopping do
            Sched.Cond.wait t.death_cond t.death_lock
          done;
          Queue.take_opt t.deaths)
    in
    match event with
    | Some (idx, died_at) ->
        if
          (not t.stopping)
          && Telemetry.Metrics.counter_value t.c_restarts < max_restarts
        then begin
          Log.warn (fun m -> m "worker %d died; respawning" idx);
          Telemetry.Metrics.inc t.c_restarts;
          Sched.charge worker_restart_cost;
          let slot = t.slots.(idx) in
          slot.ws <- Netsim.Waitset.create ();
          spawn_worker t slot;
          t.restart_lat <- (Sched.now () -. died_at) :: t.restart_lat
        end;
        loop ()
    | None -> if not t.stopping then loop ()
  in
  loop ()

let stop t =
  t.stopping <- true;
  Netsim.close_listener t.listener;
  Array.iter (fun slot -> Netsim.Waitset.close slot.ws) t.slots;
  (* Wake the master so it observes [stopping]. *)
  Sched.Mutex.with_lock t.death_lock (fun () -> Sched.Cond.signal t.death_cond)

let requests_served t = Serve.requests_served t.core
let rewinds t = Serve.rewinds t.core
let rewind_latencies t = Serve.rewind_latencies t.core
let worker_restarts t = Telemetry.Metrics.counter_value t.c_restarts
let proactive_restarts t = Telemetry.Metrics.counter_value t.c_proactive
let restart_latencies t = t.restart_lat
let dropped_connections t = Telemetry.Metrics.counter_value t.c_dropped
let shed_count t = Serve.shed_count t.core
let replay_hits t = Serve.replay_hits t.core
let post_count t = t.post_count
let race_detector t = Serve.race_detector t.core

let alive t =
  Array.exists
    (fun slot ->
      match Sched.outcome t.sched slot.tid with None -> true | Some _ -> false)
    t.slots
