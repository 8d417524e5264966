(* Chaos entry point (`dune build @chaos` / `make chaos`): the long
   fault-injection and DoS suites, run across a fixed set of seeds so a
   regression in any one schedule is caught and is replayable from the
   printed seed. Exits non-zero on the first violated invariant. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module Server = Kvcache.Server
module Proto = Kvcache.Proto

let seeds = [ 11; 23; 37; 41; 53 ]
let failures = ref 0

let expect ~seed name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL [seed %d] %s\n%!" seed name
  end

(* {1 Supervised DoS scenario} *)

(* A looping attacker reconnects from one source address and fires the
   CVE payload; per-client domains + supervisor must cap its rewinds at
   the budget, keep benign failures at zero, and heal after cooldown. *)
let run_dos ~seed ~supervised ~attacks =
  let cfg =
    {
      Server.default_config with
      variant = Server.Sdrad;
      vulnerable = true;
      workers = 2;
      per_client_domains = true;
    }
  in
  let policy =
    {
      Supervisor.default_policy with
      budget_max = 3;
      budget_window = 1.0e9;
      backoff_base = 5_000.0;
      backoff_max = 50_000.0;
      cooldown = 2.0e6;
    }
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(Api.create ~virtual_keys:true)
      ?supervisor:(if supervised then Some (Supervisor.attach ~policy) else None)
      ()
  in
  let sched = w.sched and net = w.net in
  let benign_failures = ref 0 and busy = ref 0 and recovered = ref false in
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           let tids = ref [] in
           for i = 0 to 2 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "good%d" i)
                 (fun () ->
                   let rng = Rng.create (seed + (100 * i)) in
                   let c = Netsim.connect net ~src:(1 + i) ~port:11211 in
                   for _ = 1 to 25 do
                     Sched.sleep (float_of_int (Rng.int rng 8_000));
                     Netsim.send c
                       (Proto.fmt_set
                          ~key:(Printf.sprintf "k%d" (Rng.int rng 20))
                          ~flags:0
                          ~value:(Bytes.to_string (Rng.bytes rng 64)));
                     match Netsim.recv c with
                     | None -> incr benign_failures
                     | Some r -> (
                         match Proto.parse_reply r with
                         | Proto.Failed _ -> incr benign_failures
                         | _ -> ())
                   done;
                   Netsim.close c)
               :: !tids
           done;
           tids :=
             Sched.spawn sched ~name:"evil" (fun () ->
                 for _ = 1 to attacks do
                   Sched.sleep 20_000.0;
                   let c = Netsim.connect net ~src:777 ~port:11211 in
                   Netsim.send c
                     (Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                        ~value:(String.make 300 'X'));
                   (match Netsim.recv c with
                   | None -> ()
                   | Some r -> if r = Proto.server_error_busy then incr busy);
                   Netsim.close c
                 done;
                 if supervised then begin
                   Sched.sleep 2.5e6;
                   let c = Netsim.connect net ~src:777 ~port:11211 in
                   Netsim.send c (Proto.fmt_get "pwn");
                   (match Netsim.recv c with
                   | Some r -> (
                       match Proto.parse_reply r with
                       | Proto.Failed _ -> ()
                       | _ -> recovered := true)
                   | None -> ());
                   Netsim.close c
                 end)
             :: !tids;
           List.iter Sched.join !tids))
  in
  (Server.rewinds s, !busy, !benign_failures, !recovered, Server.crashed s)

let dos_suite ~seed =
  let attacks = 10 in
  let un_rewinds, _, _, _, un_crashed =
    run_dos ~seed ~supervised:false ~attacks
  in
  let rewinds, busy, benign_failures, recovered, crashed =
    run_dos ~seed ~supervised:true ~attacks
  in
  expect ~seed "dos: servers stay up" (not (un_crashed || crashed));
  expect ~seed "dos: unsupervised rewinds = attacks" (un_rewinds = attacks);
  expect ~seed "dos: supervised rewinds capped" (rewinds = 3);
  expect ~seed "dos: excess attacks turned away" (busy = attacks - 3);
  expect ~seed "dos: zero benign failures" (benign_failures = 0);
  expect ~seed "dos: recovery via half-open probe" recovered;
  Printf.printf
    "seed %2d  dos: unsup=%d rewinds, sup=%d rewinds %d busy, recovered=%b\n%!"
    seed un_rewinds rewinds busy recovered

(* {1 Injected kvcache chaos} *)

let run_injected ~seed =
  let w = Scenario.world ~size_mib:128 ~monitor:Api.create () in
  let sched = w.sched and net = w.net in
  let fi =
    Fault_inject.create ~seed
      [
        Fault_inject.rule ~prob:0.15 ~site:"kv.domain" Fault_inject.Wild_write;
        Fault_inject.rule ~prob:0.05 ~site:"kv.domain" Fault_inject.Stack_smash;
      ]
  in
  let cfg = { Server.default_config with variant = Server.Sdrad; workers = 2 } in
  let { Scenario.server = s; _ } =
    Scenario.kvcache ~faults:fi w cfg
      (Script
         (fun _ ->
           let tids = ref [] in
           for i = 0 to 3 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "cl%d" i)
                 (fun () ->
                   let rng = Rng.create (seed + i) in
                   for _ = 1 to 25 do
                     Sched.sleep (float_of_int (Rng.int rng 10_000));
                     let c = Netsim.connect net ~port:11211 in
                     Netsim.send c
                       (Proto.fmt_set
                          ~key:(Printf.sprintf "k%d" (Rng.int rng 10))
                          ~flags:0
                          ~value:(Bytes.to_string (Rng.bytes rng 48)));
                     ignore (Netsim.recv c);
                     Netsim.close c
                   done)
               :: !tids
           done;
           List.iter Sched.join !tids))
  in
  (Fault_inject.log_to_string fi, Fault_inject.fires fi, Server.rewinds s,
   Server.crashed s, List.length (Server.db_check s))

let injected_suite ~seed =
  let log1, fires, rewinds, crashed, db_errors = run_injected ~seed in
  let log2, _, rewinds2, _, _ = run_injected ~seed in
  expect ~seed "inject: server stays up" (not crashed);
  expect ~seed "inject: every fire rewinds" (fires = rewinds);
  expect ~seed "inject: database integrity" (db_errors = 0);
  expect ~seed "inject: replayable rewinds" (rewinds = rewinds2);
  expect ~seed "inject: byte-identical logs" (log1 = log2);
  Printf.printf "seed %2d  inject: %d fires, %d rewinds, replayable\n%!" seed
    fires rewinds

(* {1 Injected httpd chaos} *)

let run_httpd ~seed =
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
    Scenario.world ~size_mib:192 ~monitor:(Api.create ~virtual_keys:true)
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
      parser_udi = 20;
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
  (!ok, Httpd.Server.rewinds s, Httpd.Server.worker_restarts s,
   Fault_inject.fires fi)

let httpd_suite ~seed =
  let ok, rewinds, restarts, fires = run_httpd ~seed in
  expect ~seed "httpd: faults were injected" (fires > 0);
  expect ~seed "httpd: kill produced a worker restart" (restarts >= 1);
  expect ~seed "httpd: most benign requests served" (ok >= 100);
  Printf.printf
    "seed %2d  httpd: %d fires, %d rewinds, %d restarts, %d/120 served\n%!"
    seed fires rewinds restarts ok

(* {1 Cluster chaos: shard crash + network partition under failover} *)

type cluster_outcome = {
  cl_fires : int;
  cl_log : string;
  cl_failovers : int;
  cl_ring : int;
  cl_lost : int;  (* acked sets unreadable after the dust settles *)
  cl_acked_sets : int;
  cl_counters : (int * int option) array;  (* (acked incrs, final value) *)
}

(* Retrying writers push rid-carrying sets and incrs through the sharded
   router while the chaos plan crashes one shard and partitions another's
   heartbeat link mid-run. The rewind-aware failover must keep the
   fleet's durability contract: every acked write readable afterwards,
   no incr doubly applied (verbatim retries are answered from the replay
   journal), the ring never empties, and the schedule replays from the
   seed. *)
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
  let writers = 3 and sets_per = 8 and incrs_per = 5 in
  let acked : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let acked_incrs = Array.make writers 0 in
  let ctr_acked = Array.make writers false in
  let lost = ref 0 in
  let { Scenario.server = t; result = counters; _ } =
    Scenario.fleet ~faults:fi w cfg
      (Script
         (fun t ->
           (* Issue [req] on [conn] until a definitive reply, resending the
              string (rid included) verbatim like a real retrying client;
              busy replies and timeouts burn an attempt. *)
           let attempt conn req =
             let rec go n =
               if n = 0 then None
               else begin
                 Netsim.send conn req;
                 match
                   Netsim.recv_deadline conn ~deadline:(Sched.now () +. 1.0e6)
                 with
                 | Some r when r = Proto.server_error_busy ->
                     Sched.sleep 40_000.0;
                     go (n - 1)
                 | Some r -> Some (Proto.parse_reply r)
                 | None ->
                     Sched.sleep 40_000.0;
                     go (n - 1)
               end
             in
             go 8
           in
           let tids = ref [] in
           for w = 0 to writers - 1 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "wr%d" w)
                 (fun () ->
                   let rng = Rng.create (seed + (10 * w)) in
                   let conn = Netsim.connect net ~port:cfg.router_port in
                   for i = 0 to sets_per - 1 do
                     Sched.sleep (float_of_int (Rng.int rng 30_000));
                     let key = Printf.sprintf "w%dk%d" w i in
                     let value = Printf.sprintf "v%d-%d" w i in
                     match
                       attempt conn
                         (Proto.fmt_storage "set"
                            ~rid:(Printf.sprintf "sr%d-%d" w i)
                            ~key ~flags:0 ~value ())
                     with
                     | Some Proto.Stored -> Hashtbl.replace acked key value
                     | _ -> ()
                   done;
                   let ctr = Printf.sprintf "ctr%d" w in
                   (match
                      attempt conn
                        (Proto.fmt_storage "set"
                           ~rid:(Printf.sprintf "cs%d" w)
                           ~key:ctr ~flags:0 ~value:"0" ())
                    with
                   | Some Proto.Stored ->
                       ctr_acked.(w) <- true;
                       for i = 0 to incrs_per - 1 do
                         Sched.sleep (float_of_int (Rng.int rng 30_000));
                         match
                           attempt conn
                             (Proto.fmt_incr
                                ~rid:(Printf.sprintf "ci%d-%d" w i)
                                ctr 1)
                         with
                         | Some (Proto.Number _) ->
                             acked_incrs.(w) <- acked_incrs.(w) + 1
                         | _ -> ()
                       done
                   | _ -> ());
                   Netsim.close conn)
               :: !tids
           done;
           List.iter Sched.join !tids;
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
           let conn = Netsim.connect net ~port:cfg.router_port in
           let read key =
             match attempt conn (Proto.fmt_get key) with
             | Some (Proto.Value v) -> Some v
             | _ -> None
           in
           Hashtbl.iter
             (fun key value -> if read key <> Some value then incr lost)
             acked;
           let counters =
             Array.init writers (fun w ->
                 ( acked_incrs.(w),
                   if ctr_acked.(w) then
                     match read (Printf.sprintf "ctr%d" w) with
                     | Some v -> int_of_string_opt v
                     | None -> None
                   else None ))
           in
           Netsim.close conn;
           counters))
  in
  {
    cl_fires = Fault_inject.fires fi;
    cl_log = Fault_inject.log_to_string fi;
    cl_failovers = Cluster.Fleet.failovers t;
    cl_ring = Cluster.Hash_ring.size (Cluster.Fleet.ring t);
    cl_lost = !lost;
    cl_acked_sets = Hashtbl.length acked;
    cl_counters = counters;
  }

let cluster_suite ~seed =
  let o = run_cluster ~seed in
  expect ~seed "cluster: no acked write lost" (o.cl_lost = 0);
  expect ~seed "cluster: ring keeps a member" (o.cl_ring >= 1);
  expect ~seed "cluster: detected faults drive failover"
    (o.cl_fires = 0 || o.cl_failovers >= 1);
  Array.iteri
    (fun w (acked, final) ->
      match final with
      | Some v ->
          (* The journal answers verbatim retries, so the counter lands
             between what the writer saw acked and what it attempted. *)
          expect ~seed
            (Printf.sprintf "cluster: ctr%d within [acked, attempts]" w)
            (v >= acked && v <= 5)
      | None ->
          expect ~seed
            (Printf.sprintf "cluster: ctr%d unreadable yet had acked incrs" w)
            (acked = 0))
    o.cl_counters;
  (* Same seed, same schedule: the injection log and the failover count
     are a replayable fingerprint of the whole run. *)
  let o2 = run_cluster ~seed in
  expect ~seed "cluster: replay yields identical fault log" (o.cl_log = o2.cl_log);
  expect ~seed "cluster: replay yields identical failovers"
    (o.cl_failovers = o2.cl_failovers);
  Printf.printf
    "seed %2d  cluster: %d fires, %d failovers, %d acked sets intact, ring %d\n%!"
    seed o.cl_fires o.cl_failovers o.cl_acked_sets o.cl_ring

let () =
  List.iter (fun seed -> dos_suite ~seed) seeds;
  List.iter (fun seed -> injected_suite ~seed) seeds;
  List.iter (fun seed -> httpd_suite ~seed) seeds;
  List.iter (fun seed -> cluster_suite ~seed) seeds;
  if !failures > 0 then begin
    Printf.printf "%d chaos invariant(s) violated\n%!" !failures;
    exit 1
  end;
  print_endline "all chaos invariants held"
