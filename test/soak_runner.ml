(* Chaos soak (`dune build @chaos-soak` / `make chaos-soak`): end-to-end
   recovery correctness under a mixed fault diet — network drops,
   truncation and delays, injected domain corruption (rewinds), and
   overload shedding — driven by retrying clients carrying idempotency
   keys. For every seed the campaign checks the two properties the replay
   journal exists to provide:

   - no acknowledged write is lost, and
   - no non-idempotent operation is applied twice.

   Each kvcache client owns one counter key and performs a fixed number
   of logical increments, each with its own request id, looping until the
   increment is acknowledged; each httpd client does the same with POST
   /count. At-most-once journaling makes the loop safe, so afterwards the
   counter must equal the number of logical increments {e exactly}: a
   lost acknowledged write would leave it low, a duplicated apply would
   leave it high. The clients, the read-back and the checks both legs
   make are [Invariants]'. Exits non-zero if any invariant was violated,
   replayable from the printed seed. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module Journal = Resilience.Journal
module KServer = Kvcache.Server
module Proto = Kvcache.Proto
module HServer = Httpd.Server

(* {1 kvcache leg} *)

let kv_soak ~seed =
  let expect = Invariants.expect ~seed and clients = 6 and incrs = 40 in
  let fi =
    Fault_inject.create ~seed
      [
        Fault_inject.rule ~prob:0.03 ~site:"kv.domain" Fault_inject.Wild_write;
        (* Network chaos: ~2% drops, ~1% truncations, ~2% delays. *)
        Fault_inject.rule ~prob:0.02 ~site:"net" Fault_inject.Net_drop;
        Fault_inject.rule ~prob:0.01 ~site:"net" Fault_inject.Net_truncate;
        Fault_inject.rule ~prob:0.02 ~site:"net" (Fault_inject.Net_delay 20_000.0);
      ]
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:Api.create
      ~supervisor:(Supervisor.attach ~policy:Invariants.lenient_policy) ()
  in
  Fault_inject.arm_netsim fi w.net ~site:"net";
  let cfg =
    {
      KServer.default_config with
      variant = KServer.Sdrad;
      workers = 2;
      shed_queue_limit = 6;
    }
  in
  let retries = ref 0 in
  let { Scenario.server = s; _ } =
    Scenario.kvcache ~faults:fi w cfg
      (Script
         (fun _ ->
           let tids =
             Invariants.spawn_counters w ~seed ~name:"s" ~clients ~incrs
               ~retries
           in
           (* Overload burst: one client pipelines far past the backlog
              limit, so admission control must turn the excess away with
              busy replies before any parsing or domain switch — while the
              retrying writers above ride through the shed verdicts. *)
           let burst =
             Sched.spawn w.sched ~name:"burst" (fun () ->
                 Sched.sleep 300_000.0;
                 let c = Netsim.connect w.net ~port:11211 in
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
           Invariants.counters_exact expect "kv" w.net ~clients ~incrs))
  in
  Invariants.kv_holds expect "kv" w s;
  Invariants.faults_rewound expect "kv" ~faults:(Invariants.domain_faults fi)
    ~rewinds:(KServer.rewinds s);
  expect "kv: overload burst was shed" (KServer.shed_count s > 0);
  Printf.printf
    "seed %2d  kv: %d acked incrs, %d retries, %d rewinds, %d shed, %d \
     replays, %d evictions\n\
     %!"
    seed (clients * incrs) !retries (KServer.rewinds s) (KServer.shed_count s)
    (KServer.replay_hits s)
    (Journal.evictions (KServer.journal s))

(* {1 httpd leg}

   The same treatment for POST /count: parser-domain corruption rewinds
   requests mid-parse while the network drops and delays messages. *)

let http_soak ~seed =
  let expect = Invariants.expect ~seed and clients = 4 and posts = 25 in
  let fi =
    Fault_inject.create ~seed
      [
        Fault_inject.rule ~prob:0.03 ~site:"httpd.parse" Fault_inject.Wild_write;
        Fault_inject.rule ~prob:0.02 ~site:"net" Fault_inject.Net_drop;
        Fault_inject.rule ~prob:0.02 ~site:"net" (Fault_inject.Net_delay 15_000.0);
      ]
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(fun space -> Api.create space)
      ~supervisor:(Supervisor.attach ~policy:Invariants.lenient_policy) ()
  in
  Fault_inject.arm_netsim fi w.net ~site:"net";
  let fs = Httpd.Fs.create w.space in
  Httpd.Fs.add fs ~path:"/index.html" ~size:1024;
  let cfg = { HServer.default_config with variant = HServer.Sdrad; workers = 2 } in
  let retries = ref 0 in
  (* Whether the workers are alive is taken before the server stops. *)
  let { Scenario.server = s; result = alive; _ } =
    Scenario.httpd ~faults:fi w ~files:(Fun.const fs) cfg
      (Script
         (fun s ->
           let tids =
             List.init clients (fun i ->
                 Sched.spawn w.sched
                   ~name:(Printf.sprintf "web%d" i)
                   (fun () ->
                     let rng = Rng.create (seed + (300 * i)) in
                     let c =
                       Invariants.client w.net ~port:8080
                         ~rng:(Rng.create (seed + (400 * i) + 1))
                         ~name:(Printf.sprintf "w%d" i)
                     in
                     for n = 1 to posts do
                       Sched.sleep (float_of_int (Rng.int rng 12_000));
                       Invariants.until_acked c
                         (Printf.sprintf
                            "POST /count HTTP/1.1\r\n\
                             Host: soak\r\n\
                             X-Request-Id: w%d-%d\r\n\
                             Content-Length: 0\r\n\
                             \r\n"
                            i n)
                         ~acked:Workload.Http_load.is_200
                     done;
                     retries := !retries + Invariants.finish c))
           in
           List.iter Sched.join tids;
           Netsim.set_fault_hook w.net None;
           HServer.alive s))
  in
  let rewinds = HServer.rewinds s in
  expect "httpd: server alive" alive;
  expect "httpd: no worker restarts" (HServer.worker_restarts s = 0);
  Invariants.exactly_once expect "httpd" ~key:"POST /count"
    ~want:(clients * posts)
    (Some (string_of_int (HServer.post_count s)));
  expect "httpd: parser faults were injected" (rewinds > 0);
  Invariants.faults_rewound expect "httpd"
    ~faults:(Invariants.domain_faults fi) ~rewinds;
  Invariants.quiescent expect "httpd" w ~rewinds;
  Printf.printf
    "seed %2d  httpd: %d acked posts, %d retries, %d rewinds, %d replays\n%!"
    seed (clients * posts) !retries rewinds (HServer.replay_hits s)

let () =
  Invariants.run ~what:"soak"
    ~held:"all soak invariants held: no acked write lost, none applied twice"
    [ kv_soak; http_soak ]
