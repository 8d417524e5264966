(* Chaos entry point (`dune build @chaos` / `make chaos`): the long
   fault-injection and DoS suites, run across [Invariants.seeds] so a
   regression in any one schedule is caught and is replayable from the
   printed seed. The DoS and injection scenarios and the checks more than
   one leg makes live in [Invariants]. Exits non-zero if any invariant
   was violated. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module Server = Kvcache.Server
module Proto = Kvcache.Proto

(* {1 Supervised DoS scenario} *)

let dos_suite ~seed =
  let expect = Invariants.expect ~seed and attacks = 10 in
  let unsupervised = Invariants.run_dos ~seed ~supervised:false ~attacks in
  let supervised = Invariants.run_dos ~seed ~supervised:true ~attacks in
  Invariants.dos_holds expect ~attacks ~unsupervised ~supervised;
  Printf.printf
    "seed %2d  dos: unsup=%d rewinds, sup=%d rewinds %d busy, recovered=%b\n%!"
    seed
    (Server.rewinds unsupervised.dos_server)
    (Server.rewinds supervised.dos_server)
    supervised.busy supervised.recovered

(* {1 Injected kvcache chaos} *)

let injected_suite ~seed =
  let expect = Invariants.expect ~seed in
  let a = Invariants.run_injected ~seed in
  let b = Invariants.run_injected ~seed in
  Invariants.injected_holds expect a;
  Invariants.injected_replays expect a b;
  Printf.printf "seed %2d  inject: %d fires, %d rewinds, replayable\n%!" seed
    (Fault_inject.fires a.inj_faults)
    (Server.rewinds a.inj_server)

(* {1 Injected httpd chaos} *)

let httpd_suite ~seed =
  let expect = Invariants.expect ~seed in
  let fi =
    Fault_inject.create ~seed
      [
        Fault_inject.rule ~prob:0.04 ~site:"httpd.parse" Fault_inject.Wild_write;
        Fault_inject.rule ~max_fires:1 ~site:"httpd.worker"
          Fault_inject.Kill_thread;
      ]
  in
  (* Lenient policy: the parse faults here are injected noise, not an
     attack, so the budget is set high enough that no worker gets
     quarantined — the DoS suite covers the quarantine path. *)
  let policy =
    {
      Supervisor.default_policy with
      budget_max = 50;
      backoff_base = 2_000.0;
      backoff_max = 10_000.0;
    }
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(fun space -> Api.create space)
      ~supervisor:(Supervisor.attach ~policy) ()
  in
  let sched = w.sched and net = w.net in
  let fs = Httpd.Fs.create w.space in
  Httpd.Fs.add fs ~path:"/index.html" ~size:2048;
  let cfg =
    {
      Httpd.Server.default_config with
      variant = Httpd.Server.Sdrad;
      workers = 2;
      per_worker_domains = true;
    }
  in
  let ok = ref 0 in
  let { Scenario.server = s; _ } =
    Scenario.httpd ~faults:fi w ~files:(Fun.const fs) cfg
      (Script
         (fun _ ->
           let tids = ref [] in
           for i = 0 to 3 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "cl%d" i)
                 (fun () ->
                   let rng = Rng.create (seed + i) in
                   for _ = 1 to 30 do
                     Sched.sleep (float_of_int (Rng.int rng 15_000));
                     (* Reconnect per request: survives rewinds and kills. *)
                     let c = Netsim.connect net ~port:8080 in
                     Netsim.send c
                       (Workload.Http_load.request ~path:"/index.html");
                     (match Netsim.recv c with
                     | Some r when Workload.Http_load.is_200 r -> incr ok
                     | Some _ | None -> ());
                     Netsim.close c
                   done)
               :: !tids
           done;
           List.iter Sched.join !tids))
  in
  let fires = Fault_inject.fires fi and rewinds = Httpd.Server.rewinds s in
  let restarts = Httpd.Server.worker_restarts s in
  expect "httpd: faults were injected" (fires > 0);
  expect "httpd: kill produced a worker restart" (restarts >= 1);
  expect "httpd: most benign requests served" (!ok >= 100);
  Invariants.faults_rewound expect "httpd" ~faults:(Invariants.domain_faults fi)
    ~rewinds;
  Invariants.quiescent expect "httpd" w ~rewinds;
  Printf.printf
    "seed %2d  httpd: %d fires, %d rewinds, %d restarts, %d/120 served\n%!"
    seed fires rewinds restarts !ok

(* {1 Cluster chaos: shard crash + network partition under failover} *)

type cluster_outcome = {
  cl_fires : int;
  cl_log : string;
  cl_failovers : int;
  cl_ring : int;
  cl_lost : int;  (* acked sets unreadable after the dust settles *)
  cl_counters : string option array;  (* each counter read back *)
}

(* Retrying writers push rid-carrying sets and incrs through the sharded
   router while the chaos plan crashes one shard and partitions another's
   heartbeat link mid-run; each write is retried verbatim until acked.
   The rewind-aware failover must keep the fleet's durability contract:
   every acked write readable afterwards, each incr applied exactly once
   (verbatim retries are answered from the replay journal), the ring
   never empties, and the schedule replays from the seed. *)
let writers = 3 and sets_per = 8 and incrs_per = 5

let run_cluster ~seed =
  let w = Scenario.fleet_world () in
  let sched = w.fleet_sched and net = w.fleet_net in
  let fi =
    Fault_inject.create ~seed
      [
        Fault_inject.rule ~prob:0.2 ~max_fires:1 ~site:"cluster.shard"
          Fault_inject.Shard_crash;
        Fault_inject.rule ~prob:0.2 ~max_fires:1 ~site:"cluster.heartbeat"
          (Fault_inject.Net_partition 400_000.0);
      ]
  in
  let cfg = { Cluster.Fleet.default_config with shards = 3 } in
  let port = cfg.router_port in
  let acked : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let stored = Invariants.kv_acked (( = ) Proto.Stored) in
  let { Scenario.server = t; result = lost, counters; _ } =
    Scenario.fleet ~faults:fi w cfg
      (Script
         (fun t ->
           let tids =
             List.init writers (fun w ->
                 let name = Printf.sprintf "wr%d" w in
                 Sched.spawn sched ~name (fun () ->
                     let rng = Rng.create (seed + (10 * w)) in
                     let c =
                       Invariants.client net ~port
                         ~rng:(Rng.create (seed + (10 * w) + 1))
                         ~name
                     in
                     for i = 0 to sets_per - 1 do
                       Sched.sleep (float_of_int (Rng.int rng 30_000));
                       let key = Printf.sprintf "w%dk%d" w i in
                       let value = Printf.sprintf "v%d-%d" w i in
                       Invariants.until_acked c
                         (Proto.fmt_storage "set"
                            ~rid:(Printf.sprintf "sr%d-%d" w i)
                            ~key ~flags:0 ~value ())
                         ~acked:stored;
                       Hashtbl.replace acked key value
                     done;
                     let ctr = Printf.sprintf "ctr%d" w in
                     Invariants.until_acked c
                       (Proto.fmt_storage "set"
                          ~rid:(Printf.sprintf "cs%d" w)
                          ~key:ctr ~flags:0 ~value:"0" ())
                       ~acked:stored;
                     for i = 0 to incrs_per - 1 do
                       Sched.sleep (float_of_int (Rng.int rng 30_000));
                       Invariants.until_acked c
                         (Proto.fmt_incr ~rid:(Printf.sprintf "ci%d-%d" w i) ctr 1)
                         ~acked:
                           (Invariants.kv_acked (function
                             | Proto.Number _ -> true
                             | _ -> false))
                     done;
                     ignore (Invariants.finish c)))
           in
           List.iter Sched.join tids;
           (* A fault that fired late still deserves its detection window:
              wait out the heartbeat timeout plus a monitor pass before
              auditing, so a pending failover has run its drain + re-seed. *)
           let rec settle n =
             if
               n > 0
               && Fault_inject.fires fi > 0
               && Cluster.Fleet.failovers t = 0
             then begin
               Sched.sleep 200_000.0;
               settle (n - 1)
             end
           in
           Sched.sleep 400_000.0;
           settle 8;
           (* Audit through the surviving ring. *)
           let read = Invariants.read_back net ~port in
           ( Hashtbl.fold
               (fun key value n -> if read key <> Some value then n + 1 else n)
               acked 0,
             Array.init writers (fun w -> read (Printf.sprintf "ctr%d" w)) )))
  in
  {
    cl_fires = Fault_inject.fires fi;
    cl_log = Fault_inject.log_to_string fi;
    cl_failovers = Cluster.Fleet.failovers t;
    cl_ring = Cluster.Hash_ring.size (Cluster.Fleet.ring t);
    cl_lost = lost;
    cl_counters = counters;
  }

let cluster_suite ~seed =
  let expect = Invariants.expect ~seed in
  let o = run_cluster ~seed in
  expect "cluster: no acked write lost" (o.cl_lost = 0);
  expect "cluster: ring keeps a member" (o.cl_ring >= 1);
  expect "cluster: detected faults drive failover"
    (o.cl_fires = 0 || o.cl_failovers >= 1);
  Array.iteri
    (fun w got ->
      Invariants.exactly_once expect "cluster"
        ~key:(Printf.sprintf "ctr%d" w)
        ~want:incrs_per got)
    o.cl_counters;
  (* Same seed, same schedule: the injection log and the failover count
     are a replayable fingerprint of the whole run. *)
  let o2 = run_cluster ~seed in
  expect "cluster: replay yields identical fault log" (o.cl_log = o2.cl_log);
  expect "cluster: replay yields identical failovers"
    (o.cl_failovers = o2.cl_failovers);
  Printf.printf
    "seed %2d  cluster: %d fires, %d failovers, %d acked sets intact, ring %d\n%!"
    seed o.cl_fires o.cl_failovers (writers * sets_per) o.cl_ring

let () =
  Invariants.run ~what:"chaos" ~held:"all chaos invariants held"
    [ dos_suite; injected_suite; httpd_suite; cluster_suite ]
