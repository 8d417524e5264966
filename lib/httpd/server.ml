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
  reply : Netsim.Buf.t;  (* 200 replies of up to [Netsim.max_pooled] bytes *)
  req : Http_parse.t;  (* the request being handled, parsed in place *)
  mutable cbuf : int;  (* its bytes in the connection buffer *)
  mutable len : int;
  mutable path : string;  (* its normalized URI *)
  mutable body_rel : int;  (* its body, relative to the buffer parsed *)
  mutable body_len : int;
  mutable ws : Netsim.Waitset.ws;  (* its live connections *)
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
  parser_sd : Api.t option;  (* [sd] under SDRaD: parse phases enter a domain *)
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

let status_200 = "HTTP/1.1 200 OK\r\nServer: simginx\r\nContent-Length: "
let connection_field = "\r\nConnection: "

(* Length of the header of a 200 reply announcing [len] body bytes. *)
let header_200 ~keep_alive len =
  String.length status_200 + Serve.dec_width len
  + String.length connection_field
  + String.length (conn_token keep_alive)
  + 4

(* Write that header, [h] bytes, at the start of [b]. *)
let put_header_200 b ~keep_alive ~len h =
  let conn = conn_token keep_alive in
  let c = String.length connection_field in
  let k = h - 4 - String.length conn in  (* the connection token's offset *)
  Bytes.blit_string status_200 0 b 0 (String.length status_200);
  Serve.put_dec b ~stop:(k - c) len;
  Bytes.blit_string connection_field 0 b (k - c) c;
  Bytes.blit_string conn 0 b k (String.length conn);
  Bytes.blit_string "\r\n\r\n" 0 b (h - 4) 4

(* Write a 200 reply carrying [body] into [b], its header [h] bytes. *)
let put_200 b ~keep_alive h body =
  let len = String.length body in
  put_header_200 b ~keep_alive ~len h;
  Bytes.blit_string body 0 b h len

(* A 200 reply as a string, for the replay journal to keep. *)
let http_200 ~keep_alive body =
  let h = header_200 ~keep_alive (String.length body) in
  let b = Bytes.create (h + String.length body) in
  put_200 b ~keep_alive h body;
  Bytes.unsafe_to_string b

(* Room for an [n]-byte reply: the worker's reply buffer when a pooled
   frame holds it, or else bytes of its own, which [send_reply] queues by
   reference, written once, where [send_buf] would copy them into a
   fresh frame. *)
let reply_bytes slot n =
  if n <= Netsim.max_pooled then Netsim.Buf.reset slot.reply n
  else Bytes.create n

(* Send the [n]-byte reply [b] from [reply_bytes slot n]. *)
let send_reply slot c b n =
  if n <= Netsim.max_pooled then Netsim.send_buf c slot.reply
  else Netsim.send c (Bytes.unsafe_to_string b)

let send_200 slot c ~keep_alive body =
  let h = header_200 ~keep_alive (String.length body) in
  let n = h + String.length body in
  let b = reply_bytes slot n in
  put_200 b ~keep_alive h body;
  send_reply slot c b n

let http_404 = "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"

let http_503 =
  "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n"

let http_400 = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
let http_403 = "HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\n\r\n"
let http_405 = "HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n"

let rec lower_prefix s off lit i =
  i = String.length lit
  || Char.lowercase_ascii s.[off + i] = lit.[i]
     && lower_prefix s off lit (i + 1)

(* Pre-parse scan of the raw request bytes for the [traceparent] header:
   admission decisions (shed, admit) are taken before the sandboxed
   header parse, but their flight-recorder events should still carry the
   client's causal trace id. The authoritative parse is the header
   phase's. Lines are trimmed as [String.trim] would and scanned in
   place; only a traceparent value is copied out. *)
let rec trace_of_msg msg len off =
  let nl = Serve.index_from msg off len '\n' in
  if nl < 0 then 0
  else
    let a = Serve.skip_blanks msg off nl in
    let b = Serve.trim_blanks msg a nl in
    if a = b then 0 (* end of headers: no traceparent *)
    else if b - a > 12 && lower_prefix msg a "traceparent:" 0 then
      let v = Serve.skip_blanks msg (a + 12) b in
      match Telemetry.Context.of_traceparent (String.sub msg v (b - v)) with
      | Some ctx -> Telemetry.Context.trace ctx
      | None -> 0
    else trace_of_msg msg len (nl + 1)

let trace_of_req req =
  trace_of_msg (Netsim.Buf.view req) (Netsim.Buf.length req) 0

(* Serve the (already parsed) request in [slot]: certificate check, file
   lookup, response. Runs in the worker's root context for every
   variant. *)
let respond t slot c =
  let req = slot.req and path = slot.path in
  let keep_alive = Http_parse.keep_alive req in
  let cert_ok =
    if not t.cfg.verify_certs then `Ok
    else
      match req.Http_parse.client_cert with
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
      (match req.Http_parse.meth with
      | "GET" when path = "/metrics" ->
          (* Prometheus scrape endpoint: the registry's text exposition. *)
          send_200 slot c ~keep_alive
            (Telemetry.Metrics.expose (Serve.metrics t.core))
      | "GET" -> (
          match Fs.lookup t.fs path with
          | Some size ->
              (* Header and file in one reply; the file is read from
                 simulated memory straight into it. *)
              let h = header_200 ~keep_alive size in
              let b = reply_bytes slot (h + size) in
              put_header_200 b ~keep_alive ~len:size h;
              ignore (Fs.read_body_into t.fs path b h);
              send_reply slot c b (h + size)
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
                send_200 slot c ~keep_alive body
              end
              else Netsim.send c http_404)
      | "HEAD" -> (
          match Fs.lookup t.fs path with
          | Some size ->
              let h = header_200 ~keep_alive size in
              put_header_200 (Netsim.Buf.reset slot.reply h) ~keep_alive
                ~len:size h;
              Netsim.send_buf c slot.reply
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
              let payload =
                Space.read_string t.space (slot.cbuf + slot.body_rel)
                  slot.body_len
              in
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
            (Serve.replay_or t.core req.Http_parse.request_id compute)
      | _ -> Netsim.send c http_405);
      if keep_alive then `Keep else `Close_graceful

(* With per-worker domains each slot parses in its own udi, so the
   supervisor can quarantine one worker's parser without fencing the
   others. [parser_udi] must leave [workers] consecutive udis free. *)
let slot_udi t slot =
  if t.cfg.per_worker_domains then t.cfg.parser_udi + slot.idx
  else t.cfg.parser_udi

(* Under SDRaD each parse phase is its own entry into the parser domain,
   through the fault-injection site; the plain variants parse in place. *)
let enter_phase t slot ~buf ~len =
  match t.parser_sd with
  | None -> ()
  | Some sd -> (
      Api.enter sd (slot_udi t slot);
      match t.faults with
      | Some fi ->
          ignore
            (Fault_inject.fire_in_domain fi ~site:"httpd.parse" ~sd ~buf ~len)
      | None -> ())

let exit_phase t =
  match t.parser_sd with Some sd -> Api.exit_domain sd | None -> ()

let bad_exit t e =
  exit_phase t;
  raise e

(* The parser's three phases — request line, complex URI, headers — over
   a request in [buf], into [slot]: the normalized URI is written to
   [dst] and read back as [slot.path], and the body is kept relative to
   [buf]. A memory fault inside a phase must reach the rewind machinery
   with the domain still entered (a signal, not a return), so only a
   normal return or a parse error exits it.
   @raise Http_parse.Bad_request *)
let parse t slot ~buf ~len ~dst =
  let p = slot.req in
  enter_phase t slot ~buf ~len;
  let hdr_off =
    try Http_parse.request_line p t.space ~addr:buf ~len
    with Http_parse.Bad_request _ as e -> bad_exit t e
  in
  exit_phase t;
  enter_phase t slot ~buf ~len;
  let norm =
    try
      Http_parse.parse_complex_uri t.space ~src:p.Http_parse.raw_uri_off
        ~len:p.Http_parse.raw_uri_len ~dst ~dst_cap:uri_dst_cap
        ~vulnerable:t.cfg.vulnerable
    with Http_parse.Bad_request _ as e -> bad_exit t e
  in
  exit_phase t;
  enter_phase t slot ~buf ~len;
  (try
     let body_off =
       hdr_off
       + Http_parse.headers p t.space ~addr:hdr_off ~len:(len - (hdr_off - buf))
     in
     slot.body_rel <- body_off - buf;
     slot.body_len <- Http_parse.body_length p ~avail:(buf + len - body_off)
   with Http_parse.Bad_request _ as e -> bad_exit t e);
  exit_phase t;
  slot.path <- Space.read_string t.space dst norm

(* Baseline parsing: directly in the connection buffer; the normalized
   URI goes to the head of the worker's request pool (so the CVE's
   backward scan falls off the pool's guard page). *)
let handle_plain t slot c =
  match parse t slot ~buf:slot.cbuf ~len:slot.len ~dst:slot.pool with
  | () -> respond t slot c
  | exception Http_parse.Bad_request _ ->
      Netsim.send c http_400;
      `Keep

(* SDRaD parsing (§V-B), the body of the request's domain run: request
   bytes are copied into the persistent parser domain, each parse phase
   is its own domain transition, and the normalized URI is copied back
   out on success. *)
let parse_in_domain t slot sd =
  let udi = slot_udi t slot in
  (* [dst] first (slot 0) so it sits at the bottom of the domain
     sub-heap: the underflow exits the domain instead of finding stale
     '/' bytes. Both are cached marshalling buffers — the persistent
     parser domain keeps them across requests, so steady state pays no
     malloc/free pair per request. *)
  let dst = Api.gate_buffer sd ~slot:0 ~udi uri_dst_cap in
  let copy = Api.gate_buffer sd ~slot:1 ~udi (Serve.conn_buf_size + 8) in
  Space.blit t.space ~src:slot.cbuf ~dst:copy ~len:slot.len;
  let parsed =
    match parse t slot ~buf:copy ~len:slot.len ~dst with
    | () -> `Parsed
    | exception Http_parse.Bad_request _ -> `Bad_request
  in
  Api.deinit sd udi;
  parsed

(* [on_rewind] and [body] are the worker's, built once: [Serve.run]
   runs [body] in the parser domain. *)
let handle_sdrad t slot sd c req ~on_rewind ~body =
  (* The request's trace covers its whole handling, [respond] included:
     parse-phase switches, faults, replays and audit records inherit it. *)
  match
    Serve.run t.core sd ~trace:(trace_of_req req) ~udi:(slot_udi t slot)
      ~on_rewind body
  with
  | `Busy ->
      (* Quarantined parser domain: degrade instead of serving — the
         client gets a retryable 503 and keeps its connection. *)
      Serve.busy t.core c http_503;
      `Keep
  | `Close_faulted -> `Close
  | `Bad_request ->
      Netsim.send c http_400;
      `Keep
  | `Parsed ->
      (* Body bytes are served from the original connection buffer. *)
      respond t slot c

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
      parser_sd =
        (match cfg.variant with Sdrad -> sd | Baseline | Tlsf_alloc -> None);
      faults;
      fs;
      listener = Netsim.listen net ~port:cfg.port;
      slots =
        Array.init cfg.workers (fun idx ->
            {
              idx;
              reply = Netsim.Buf.create ();
              req = Http_parse.create ();
              cbuf = 0;
              len = 0;
              path = "";
              body_rel = 0;
              body_len = 0;
              ws = Netsim.Waitset.create ();
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
            Netsim.Waitset.add slot.ws c);
        loop ()
  in
  loop ()

and worker t slot =
  let drop c = Serve.drop t.core slot.ws c in
  (* Overload: answer the retryable 503 before any parsing or domain
     switch is spent on this request. *)
  let shed c req =
    Serve.shed t.core c ~trace:(trace_of_req req) ~udi:(slot_udi t slot)
      http_503
  in
  let serve_request =
    match t.parser_sd with
    | Some sd ->
        let on_rewind f =
          Serve.rewound t.core f;
          slot.slot_rewinds <- slot.slot_rewinds + 1;
          `Close_faulted
        in
        let body () = parse_in_domain t slot sd in
        fun c req -> handle_sdrad t slot sd c req ~on_rewind ~body
    | None -> fun c _ -> handle_plain t slot c
  in
  let handle c req =
    slot.len <- Serve.copy_in t.core c req;
    slot.cbuf <- Serve.buffer c;
    let verdict = serve_request c req in
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
    (* The worker process dies: its connections, the ones its waitset
       still watches, are torn down by the kernel and the master is
       notified via SIGCHLD. *)
    slot.alive <- false;
    let at = Sched.now () in
    let conns = Netsim.Waitset.close_all slot.ws in
    Telemetry.Metrics.add t.c_dropped (List.length conns);
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
