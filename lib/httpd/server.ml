module Sched = Simkern.Sched
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Fault_inject = Resilience.Fault_inject

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
let image_bytes = 2 * 1024 * 1024
let journal_cap = 256
let uri_dst_cap = 2048

(* A worker's request state, made with each (re)spawn of the worker. *)
type worker_slot = {
  w : Serve.worker;
  reply : Netsim.Buf.t;  (* 200 replies of up to [Netsim.max_pooled] bytes *)
  req : Http_parse.t;  (* the request being handled, parsed in place *)
  mutable cbuf : int;  (* its bytes in the connection buffer *)
  mutable len : int;
  mutable path : string;  (* its normalized URI *)
  mutable body_rel : int;  (* its body, relative to the buffer parsed *)
  mutable body_len : int;
  pool : int;  (* per-worker request pool base (bump-reset) *)
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
  pool_alloc : int -> int;
  mutable post_count : int;  (* the mutable state behind POST /count *)
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

(* A POST's reply, computed once per request id. *)
let post t slot =
  let keep_alive = Http_parse.keep_alive slot.req in
  if slot.path = "/echo" then begin
    (* The request body still sits in the connection buffer; only its
       *parsing* was sandboxed. *)
    let payload =
      Space.read_string t.space (slot.cbuf + slot.body_rel) slot.body_len
    in
    http_200 ~keep_alive payload
  end
  else if slot.path = "/count" then begin
    (* The non-idempotent endpoint: applying a retry twice would be
       observable here. *)
    t.post_count <- t.post_count + 1;
    http_200 ~keep_alive (string_of_int t.post_count)
  end
  else http_405

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
                  Serve.rewound t.core slot.w f;
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
          let id = Option.value req.Http_parse.request_id ~default:"" in
          Netsim.send c
            (Serve.replay_or t.core id 0 (String.length id) post t slot)
      | _ -> Netsim.send c http_405);
      if keep_alive then `Keep else `Close_graceful

(* With per-worker domains each worker parses in its own udi, so the
   supervisor can quarantine one worker's parser without fencing the
   others. [parser_udi] must leave [workers] consecutive udis free. *)
let worker_udi t w =
  if t.cfg.per_worker_domains then t.cfg.parser_udi + Serve.idx w
  else t.cfg.parser_udi

(* Under SDRaD each parse phase is its own entry into the parser domain,
   through the fault-injection site; the plain variants parse in place. *)
let enter_phase t slot ~buf ~len =
  match t.parser_sd with
  | None -> ()
  | Some sd -> (
      Api.enter sd (worker_udi t slot.w);
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
  let udi = worker_udi t slot.w in
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
    Serve.create space cfg.variant ?sdrad ?supervisor ?faults net
      ~port:cfg.port ~workers:cfg.workers
      (* nginx's processes: a respawn (fork, exec, init) costs ~1 ms *)
      (Per_worker
         { restart_cost = 2.1e6; max_restarts = 1_000;
           rewind_limit = cfg.rewind_limit })
      ~name:"httpd"
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
          dropped =
            M.counter m "httpd_dropped_connections_total"
              ~help:"Connections lost to faults or worker deaths";
          rewind_cycles =
            M.histogram m "httpd_rewind_cycles"
              ~help:"Cycles from fault to request discarded";
        })
      ()
  in
  M.counter_fn (Serve.metrics core) "httpd_worker_restarts_total"
    ~help:"Worker processes respawned by the master" (fun () ->
      Serve.worker_restarts core);
  M.counter_fn (Serve.metrics core) "httpd_proactive_restarts_total"
    ~help:"Voluntary re-execs after the rewind limit" (fun () ->
      Serve.proactive_restarts core);
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
      pool_alloc;
      post_count = 0;
    }
  in
  Serve.start core sched ~threads:"nginx" ~shed:(shed t) ~serve:(worker t);
  t

(* Overload: a retryable 503 before any parsing or domain switch. *)
and shed t w c req =
  Serve.shed t.core c ~trace:(trace_of_req req) ~udi:(worker_udi t w) http_503

(* Each (re)spawn of a worker gets a fresh slot and request pool. *)
and worker t w =
  let slot =
    {
      w;
      reply = Netsim.Buf.create ();
      req = Http_parse.create ();
      cbuf = 0;
      len = 0;
      path = "";
      body_rel = 0;
      body_len = 0;
      pool = t.pool_alloc uri_dst_cap;
    }
  in
  let serve_request =
    match t.parser_sd with
    | Some sd ->
        (* [Serve.run] runs [body] in the parser domain. The request's
           trace covers its whole handling, [respond] included:
           parse-phase switches, faults, replays and audit records
           inherit it. *)
        let on_rewind f =
          Serve.rewound t.core w f;
          `Rewound
        in
        let body () = parse_in_domain t slot sd in
        fun c req -> (
          match
            Serve.run t.core w sd c ~trace:(trace_of_req req)
              ~udi:(worker_udi t w) ~busy:http_503 ~on_rewind body
          with
          (* A quarantined parser domain degrades instead of serving:
             the client gets a retryable 503 and keeps its connection.
             A rewound request's connection is already closed. *)
          | `Busy | `Rewound -> `Keep
          | `Bad_request ->
              Netsim.send c http_400;
              `Keep
          | `Parsed ->
              (* Body bytes are served from the original connection
                 buffer. *)
              respond t slot c)
    | None -> fun c _ -> handle_plain t slot c
  in
  fun c req ->
    slot.len <- Serve.copy_in t.core c req;
    slot.cbuf <- Serve.buffer c;
    (match serve_request c req with
    | `Keep -> ()
    | `Close -> Serve.drop t.core w c
    | `Close_graceful -> Serve.close t.core w c);
    (* Scheduler-level chaos: lose this worker "process" between
       requests; the master observes the death and respawns. *)
    match t.faults with
    | Some fi ->
        ignore
          (Fault_inject.maybe_kill fi ~site:"httpd.worker" ~sched:t.sched
             ~tid:(Sched.self ()))
    | None -> ()

let stop t = Serve.stop t.core
let requests_served t = Serve.requests_served t.core
let rewinds t = Serve.rewinds t.core
let rewind_latencies t = Serve.rewind_latencies t.core
let worker_restarts t = Serve.worker_restarts t.core
let proactive_restarts t = Serve.proactive_restarts t.core
let restart_latencies t = Serve.restart_latencies t.core
let dropped_connections t = Serve.dropped_connections t.core
let shed_count t = Serve.shed_count t.core
let replay_hits t = Serve.replay_hits t.core
let post_count t = t.post_count
let race_detector t = Serve.race_detector t.core

let alive t = Serve.alive t.core
