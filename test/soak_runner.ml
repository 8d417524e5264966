(* Chaos soak (`dune build @chaos-soak` / `make chaos-soak`): end-to-end
   recovery correctness under a mixed fault diet — network drops,
   truncation and delays, injected domain corruption (rewinds), and
   overload shedding — driven by retrying clients carrying idempotency
   keys. For every seed the campaign checks the two properties the replay
   journal exists to provide:

   - no acknowledged write is lost, and
   - no non-idempotent operation is applied twice.

   Each client owns one counter key and performs a fixed number of
   logical increments, each with its own request id, looping until the
   increment is acknowledged. At-most-once journaling makes the loop
   safe, so afterwards the counter must equal the number of logical
   increments {e exactly}: a lost acknowledged write would leave it low,
   a duplicated apply would leave it high. Exits non-zero on the first
   violated invariant, replayable from the printed seed. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module Retry = Resilience.Retry
module Journal = Resilience.Journal
module KServer = Kvcache.Server
module Proto = Kvcache.Proto
module HServer = Httpd.Server

let seeds = [ 11; 23; 37; 41; 53 ]
let failures = ref 0

let expect ~seed name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL [seed %d] %s\n%!" seed name
  end

(* One rewind of a server's event domain is counted four times: by the
   monitor ([sdrad_rewinds_total]), the server ([*_rewinds_total]), the
   supervisor ([supervisor_rewinds_seen_total]) and the audit log. *)
let rewind_counts_agree ~seed leg sd ~server =
  let counter name =
    Telemetry.Metrics.(counter_value (counter (Api.metrics sd) name))
  in
  let counts =
    [
      counter "sdrad_rewinds_total";
      server;
      counter "supervisor_rewinds_seen_total";
      Api.audit_appended sd;
    ]
  in
  expect ~seed
    (Printf.sprintf "%s: the four rewind counts agree (%s)" leg
       (String.concat ", " (List.map string_of_int counts)))
    (List.for_all (( = ) server) counts)

(* A retrying client op that must eventually commit exactly once: the
   request id is pinned {e outside} the retry engine, so even a whole
   failed [execute] (attempts exhausted, budget dry) can be relaunched
   under the same id without risking a second application. *)
let until_acked eng ~send_req ~classify =
  let rec loop () =
    match
      Retry.execute eng (fun eng ->
          match send_req ~deadline:(Float.Array.get (Retry.deadline_slot eng) 0) with
          | Some r -> classify r
          | None -> Error (`Retry "timeout"))
    with
    | Ok () -> ()
    | Error _ ->
        (* Budget dry or attempts exhausted: cool off, then insist. *)
        Sched.sleep 100_000.0;
        loop ()
  in
  loop ()

(* {1 kvcache leg} *)

let kv_soak ~seed =
  let clients = 6 and incrs = 40 in
  let fi =
    Fault_inject.create ~seed
      [ Fault_inject.rule ~prob:0.03 ~site:"kv.domain" Fault_inject.Wild_write ]
  in
  (* Lenient supervision: the injected corruption is random noise, not a
     single abusive client, so the budget is high enough that the shared
     event domain never gets quarantined outright — backoff verdicts
     still surface as busy replies the clients must retry through. *)
  let policy =
    {
      Supervisor.default_policy with
      budget_max = 100;
      backoff_base = 2_000.0;
      backoff_max = 20_000.0;
    }
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:Api.create
      ~supervisor:(Supervisor.attach ~policy) ()
  in
  let sched = w.sched and net = w.net in
  let cfg =
    {
      KServer.default_config with
      variant = KServer.Sdrad;
      workers = 2;
      shed_queue_limit = 6;
    }
  in
  (* Network chaos: ~2% drops, ~1% truncations, ~2% delays. *)
  let net_rng = Rng.create (seed * 7 + 1) in
  Netsim.set_fault_hook net
    (Some
       (fun ~len ->
         let p = Rng.float net_rng in
         if p < 0.02 then Netsim.Drop
         else if p < 0.03 then Netsim.Truncate (max 1 (len / 2))
         else if p < 0.05 then Netsim.Delay 20_000.0
         else Netsim.Deliver));
  let retry_policy =
    {
      Retry.default_policy with
      attempt_timeout = 120_000.0;
      overall_timeout = 4.0e6;
      backoff_base = 5_000.0;
      backoff_cap = 160_000.0;
    }
  in
  let retries = ref 0 in
  let { Scenario.server = s; _ } =
    Scenario.kvcache ~faults:fi w cfg
      (Script
         (fun _ ->
           let tids =
             List.init clients (fun i ->
                 Sched.spawn sched
                   ~name:(Printf.sprintf "soak%d" i)
                   (fun () ->
                     let rng = Rng.create (seed + (100 * i)) in
                     let eng =
                       Retry.create retry_policy
                         ~rng:(Rng.create (seed + (200 * i) + 1))
                         ~name:(Printf.sprintf "s%d" i)
                     in
                     let key = Printf.sprintf "ctr%d" i in
                     let conn = ref (Netsim.connect net ~port:11211) in
                     let live () =
                       let c = !conn in
                       if Netsim.is_open c && not (Netsim.peer_closed c) then c
                       else begin
                         Netsim.close c;
                         conn := Netsim.connect net ~port:11211;
                         !conn
                       end
                     in
                     let acked_op req ~ok =
                       until_acked eng
                         ~send_req:(fun ~deadline ->
                           let c = live () in
                           Netsim.send c req;
                           match Timed_recv.recv_deadline c ~deadline with
                           | Some r -> Some r
                           | None ->
                               (* A late reply would desynchronize the
                                  stream: abandon the connection. *)
                               Netsim.close c;
                               None)
                         ~classify:(fun r ->
                           if r = Proto.server_error_busy then
                             Error (`Retry "busy")
                           else if ok (Proto.parse_reply r) then Ok ()
                           else Error (`Retry "bad reply"))
                     in
                     (* Seed the counter (idempotent, so no id needed). *)
                     acked_op
                       (Proto.fmt_set ~key ~flags:0 ~value:"0")
                       ~ok:(fun r -> r = Proto.Stored);
                     for n = 1 to incrs do
                       Sched.sleep (float_of_int (Rng.int rng 12_000));
                       let rid = Printf.sprintf "s%d-op%d" i n in
                       acked_op
                         (Proto.fmt_incr ~rid key 1)
                         ~ok:(function Proto.Number _ -> true | _ -> false)
                     done;
                     Netsim.close !conn;
                     retries := !retries + Retry.retries eng))
           in
           (* Overload burst: one client pipelines far past the backlog
              limit, so admission control must turn the excess away with
              busy replies before any parsing or domain switch — while the
              retrying writers above ride through the shed verdicts. *)
           let burst =
             Sched.spawn sched ~name:"burst" (fun () ->
                 Sched.sleep 300_000.0;
                 let c = Netsim.connect net ~port:11211 in
                 let n = 40 in
                 for j = 1 to n do
                   Netsim.send c (Proto.fmt_get (Printf.sprintf "burst%d" j))
                 done;
                 for _ = 1 to n do
                   ignore
                     (Timed_recv.recv_deadline c ~deadline:(Sched.now () +. 500_000.0))
                 done;
                 Netsim.close c)
           in
           List.iter Sched.join (burst :: tids);
           (* Read the counters back over a clean link. The injection plan is
              still armed, so a get may itself be hit by a rewind (conn
              closed) or a backoff busy reply: reconnect and insist. *)
           Netsim.set_fault_hook net None;
           let rec read_back key tries =
             if tries = 0 then None
             else begin
               let c = Netsim.connect net ~port:11211 in
               Netsim.send c (Proto.fmt_get key);
               let r = Netsim.recv c in
               Netsim.close c;
               match r with
               | Some r when r = Proto.server_error_busy ->
                   Sched.sleep 50_000.0;
                   read_back key (tries - 1)
               | Some r -> Some (Proto.parse_reply r)
               | None -> read_back key (tries - 1)
             end
           in
           List.iteri
             (fun i _ ->
               match read_back (Printf.sprintf "ctr%d" i) 50 with
               | Some (Proto.Value v) ->
                   expect ~seed
                     (Printf.sprintf
                        "kv: ctr%d applied exactly once per ack (got %s, want %d)"
                        i v incrs)
                     (v = string_of_int incrs)
               | _ -> expect ~seed (Printf.sprintf "kv: ctr%d readable" i) false)
             (List.init clients Fun.id)))
  in
  expect ~seed "kv: server never crashed" (not (KServer.crashed s));
  expect ~seed "kv: store integrity" (KServer.db_check s = []);
  expect ~seed "kv: overload burst was shed" (KServer.shed_count s > 0);
  rewind_counts_agree ~seed "kv" (Option.get w.sd) ~server:(KServer.rewinds s);
  Printf.printf
    "seed %2d  kv: %d acked incrs, %d retries, %d rewinds, %d shed, %d \
     replays, %d evictions\n\
     %!"
    seed (clients * incrs) !retries (KServer.rewinds s) (KServer.shed_count s)
    (KServer.replay_hits s)
    (Journal.evictions (KServer.journal s))

(* {1 httpd leg} *)

let http_soak ~seed =
  let clients = 4 and posts = 25 in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(Api.create ~virtual_keys:true)
      ~supervisor:Supervisor.attach ()
  in
  let sched = w.sched and net = w.net in
  let fs = Httpd.Fs.create w.space in
  Httpd.Fs.add fs ~path:"/index.html" ~size:1024;
  let cfg =
    {
      HServer.default_config with
      variant = HServer.Sdrad;
      workers = 2;
      shed_queue_limit = 6;
    }
  in
  let net_rng = Rng.create (seed * 13 + 5) in
  Netsim.set_fault_hook net
    (Some
       (fun ~len:_ ->
         let p = Rng.float net_rng in
         if p < 0.02 then Netsim.Drop
         else if p < 0.04 then Netsim.Delay 15_000.0
         else Netsim.Deliver));
  let retry_policy =
    {
      Retry.default_policy with
      attempt_timeout = 120_000.0;
      overall_timeout = 4.0e6;
      backoff_base = 5_000.0;
      backoff_cap = 160_000.0;
    }
  in
  let retries = ref 0 in
  (* Whether the workers are alive is taken before the server stops. *)
  let { Scenario.server = s; result = alive; _ } =
    Scenario.httpd w ~files:(Fun.const fs) cfg
      (Script
         (fun s ->
           let tids =
             List.init clients (fun i ->
                 Sched.spawn sched
                   ~name:(Printf.sprintf "web%d" i)
                   (fun () ->
                     let rng = Rng.create (seed + (300 * i)) in
                     let eng =
                       Retry.create retry_policy
                         ~rng:(Rng.create (seed + (400 * i) + 1))
                         ~name:(Printf.sprintf "w%d" i)
                     in
                     let conn = ref (Netsim.connect net ~port:8080) in
                     let live () =
                       let c = !conn in
                       if Netsim.is_open c && not (Netsim.peer_closed c) then c
                       else begin
                         Netsim.close c;
                         conn := Netsim.connect net ~port:8080;
                         !conn
                       end
                     in
                     for n = 1 to posts do
                       Sched.sleep (float_of_int (Rng.int rng 12_000));
                       let req =
                         Printf.sprintf
                           "POST /count HTTP/1.1\r\n\
                            Host: soak\r\n\
                            X-Request-Id: w%d-%d\r\n\
                            Content-Length: 0\r\n\
                            \r\n"
                           i n
                       in
                       until_acked eng
                         ~send_req:(fun ~deadline ->
                           let c = live () in
                           Netsim.send c req;
                           match Timed_recv.recv_deadline c ~deadline with
                           | Some r -> Some r
                           | None ->
                               Netsim.close c;
                               None)
                         ~classify:(fun r ->
                           if Workload.Http_load.is_200 r then Ok ()
                           else Error (`Retry "non-200"))
                     done;
                     Netsim.close !conn;
                     retries := !retries + Retry.retries eng))
           in
           List.iter Sched.join tids;
           Netsim.set_fault_hook net None;
           HServer.alive s))
  in
  expect ~seed "httpd: server alive" alive;
  expect ~seed "httpd: no worker restarts" (HServer.worker_restarts s = 0);
  expect ~seed
    (Printf.sprintf "httpd: POST /count applied exactly once per ack (got %d, \
                     want %d)"
       (HServer.post_count s) (clients * posts))
    (HServer.post_count s = clients * posts);
  rewind_counts_agree ~seed "httpd" (Option.get w.sd)
    ~server:(HServer.rewinds s);
  Printf.printf
    "seed %2d  httpd: %d acked posts, %d retries, %d rewinds, %d shed, %d \
     replays\n\
     %!"
    seed (clients * posts) !retries (HServer.rewinds s) (HServer.shed_count s)
    (HServer.replay_hits s)

let () =
  List.iter (fun seed -> kv_soak ~seed) seeds;
  List.iter (fun seed -> http_soak ~seed) seeds;
  if !failures > 0 then begin
    Printf.printf "%d soak invariant(s) violated\n%!" !failures;
    exit 1
  end;
  print_endline "all soak invariants held: no acked write lost, none applied twice"
