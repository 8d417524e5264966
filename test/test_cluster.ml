(* Tests for the sharded multi-monitor cluster: consistent-hash
   stability (the ≤ K/N re-mapping property), router correctness, the
   forced-drain failover differential (zero acked writes lost, zero
   doubly applied), and the heartbeat-driven quarantine failover path. *)

module Sched = Simkern.Sched
module Proto = Kvcache.Proto
module Supervisor = Resilience.Supervisor
module Api = Sdrad.Api
module Ring = Cluster.Hash_ring
module Metrics = Telemetry.Metrics

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* {1 Hash ring} *)

let keys_for seed k = List.init k (fun i -> Printf.sprintf "key%d-%d" seed i)

let owners ring keys =
  List.map (fun key -> (key, Ring.route ring key)) keys

(* The property the failover design leans on: removing one of [n]
   members moves only the departed member's keys — about [K/n] of them —
   and every other key keeps its owner exactly. *)
let test_ring_remove_stability () =
  List.iter
    (fun seed ->
      let n = 5 and k = 2000 in
      let ring = Ring.create () in
      for m = 0 to n - 1 do
        Ring.add ring m
      done;
      let keys = keys_for seed k in
      let before = owners ring keys in
      let victim = seed mod n in
      Ring.remove ring victim;
      let moved = ref 0 and stable = ref true in
      List.iter
        (fun (key, old) ->
          let now = Ring.route ring key in
          if old = victim then incr moved
          else if now <> old then stable := false)
        before;
      check bool
        (Printf.sprintf "seed %d: surviving keys keep owners" seed)
        true !stable;
      (* The victim owned roughly K/n keys; allow generous spread but
         catch both "nothing moved" and "everything moved". *)
      let expected = k / n in
      check bool
        (Printf.sprintf "seed %d: ~K/n keys move (%d)" seed !moved)
        true
        (!moved > expected / 4 && !moved < expected * 3))
    [ 1; 2; 3; 4; 5 ]

let test_ring_add_stability () =
  List.iter
    (fun seed ->
      let n = 5 and k = 2000 in
      let ring = Ring.create () in
      for m = 0 to n - 1 do
        Ring.add ring m
      done;
      let keys = keys_for seed k in
      let before = owners ring keys in
      Ring.add ring n;
      let moved = ref 0 in
      List.iter
        (fun (key, old) ->
          let now = Ring.route ring key in
          if now <> old then begin
            incr moved;
            (* A key may only move {e to} the new member. *)
            check int (Printf.sprintf "seed %d: moves target newcomer" seed) n
              now
          end)
        before;
      let expected = k / (n + 1) in
      check bool
        (Printf.sprintf "seed %d: ~K/(n+1) keys move (%d)" seed !moved)
        true
        (!moved > expected / 4 && !moved < expected * 3))
    [ 1; 2; 3; 4; 5 ]

let test_ring_balance () =
  let n = 4 and k = 4000 in
  let ring = Ring.create () in
  for m = 0 to n - 1 do
    Ring.add ring m
  done;
  let counts = Array.make n 0 in
  List.iter
    (fun key -> counts.(Ring.route ring key) <- counts.(Ring.route ring key) + 1)
    (keys_for 0 k);
  Array.iteri
    (fun m c ->
      check bool
        (Printf.sprintf "member %d holds a fair share (%d)" m c)
        true
        (c > k / 10))
    counts

let test_ring_route_n () =
  let ring = Ring.create () in
  List.iter (Ring.add ring) [ 0; 1; 2 ];
  let prefs = Ring.route_n ring "somekey" 3 in
  check int "three distinct members" 3
    (List.length (List.sort_uniq compare prefs));
  check int "owner first" (Ring.route ring "somekey") (List.hd prefs);
  check int "n beyond membership is clipped" 3
    (List.length (Ring.route_n ring "somekey" 9));
  check bool "empty ring refuses" true
    (try
       ignore (Ring.route (Ring.create ()) "x");
       false
     with Failure _ -> true)

(* {1 Cluster harness} *)

(* Run [body cluster conn] inside a simulation against a started
   cluster, with a client connection to the router; returns after the
   simulation has fully drained. *)
let with_cluster ?faults ?(shards = 2) ?(kv_patch = fun c -> c) body =
  let w = Scenario.fleet_world () in
  let cfg =
    {
      Cluster.Fleet.default_config with
      shards;
      kv = kv_patch Cluster.Fleet.default_config.kv;
    }
  in
  let { Scenario.result; _ } =
    Scenario.fleet ?faults w cfg
      (Script
         (fun t ->
           let conn = Netsim.connect w.fleet_net ~port:cfg.router_port in
           let r = try Ok (body t conn) with e -> Error e in
           Netsim.close conn;
           r))
  in
  Result.iter_error raise result

let rpc conn req =
  Netsim.send conn req;
  match Netsim.recv_deadline conn ~deadline:(Sched.now () +. 2.0e6) with
  | Some r -> r
  | None -> Alcotest.fail "router did not answer"

(* Issue a request until it yields a non-busy reply (busy is the
   router's drain/park answer); the request string — rid included — is
   reused verbatim, exactly like a retrying client. *)
let rpc_retry conn req =
  let rec go n =
    if n = 0 then Alcotest.fail "request stayed busy"
    else
      let r = rpc conn req in
      if r = Proto.server_error_busy then begin
        Sched.sleep 50_000.0;
        go (n - 1)
      end
      else r
  in
  go 20

(* {1 Routing} *)

let test_cluster_routes () =
  with_cluster ~shards:2 (fun t conn ->
      let n = 40 in
      for i = 0 to n - 1 do
        let key = Printf.sprintf "k%d" i in
        let r =
          rpc conn (Proto.fmt_storage "set" ~key ~flags:0 ~value:(Printf.sprintf "v%d" i) ())
        in
        check string (key ^ " stored") Proto.stored r
      done;
      for i = 0 to n - 1 do
        let key = Printf.sprintf "k%d" i in
        match Proto.parse_reply (rpc conn (Proto.fmt_get key)) with
        | Proto.Value v ->
            check string (key ^ " readable") (Printf.sprintf "v%d" i) v
        | _ -> Alcotest.fail (key ^ " lost")
      done;
      (* Both shards saw traffic, and the router's Route events landed
         in the shards' flight recorders under the router udi. *)
      let m = Cluster.Fleet.metrics t in
      for s = 0 to 1 do
        let routed =
          Metrics.sample m
            ~labels:[ ("shard", string_of_int s) ]
            "cluster_routed_total"
        in
        check bool
          (Printf.sprintf "shard %d routed" s)
          true
          (match routed with Some v -> v > 0.0 | None -> false);
        check bool
          (Printf.sprintf "shard %d has route events" s)
          true
          (Api.flight_events (Cluster.Fleet.shard_sd t s)
             ~udi:Cluster.Fleet.router_flight_udi
           <> [])
      done;
      check int "no failovers" 0 (Cluster.Fleet.failovers t))

let test_cluster_aggregate_metrics () =
  with_cluster ~shards:2 (fun t conn ->
      for i = 0 to 9 do
        ignore
          (rpc conn
             (Proto.fmt_storage "set" ~key:(Printf.sprintf "a%d" i) ~flags:0
                ~value:"x" ()))
      done;
      let agg = Cluster.Fleet.aggregate_metrics t in
      (* The fleet view carries both the router's series and the summed
         per-shard monitor series. *)
      check bool "cluster series present" true
        (Metrics.sample agg "cluster_requests_total" = Some 10.0);
      let shard_reqs sd =
        match Metrics.sample (Api.metrics sd) "kvcache_requests_total" with
        | Some v -> v
        | None -> 0.0
      in
      let total =
        shard_reqs (Cluster.Fleet.shard_sd t 0) +. shard_reqs (Cluster.Fleet.shard_sd t 1)
      in
      check bool "shard series summed" true
        (Metrics.sample agg "kvcache_requests_total" = Some total && total > 0.0))

(* {1 Forced-drain failover differential} *)

(* Zero acked writes lost, zero doubly applied: write rid-carrying sets
   and incrs, force the owner's failover, then (a) re-send every incr
   verbatim — the replica's replay journal must answer each from the
   record instead of re-applying — and (b) read everything back. *)
let test_failover_differential () =
  with_cluster ~shards:3 (fun t conn ->
      let n = 60 in
      let acked = Hashtbl.create n in
      for i = 0 to n - 1 do
        let key = Printf.sprintf "d%d" i and value = Printf.sprintf "w%d" i in
        let r =
          rpc conn
            (Proto.fmt_storage "set" ~rid:(Printf.sprintf "sr%d" i) ~key
               ~flags:0 ~value ())
        in
        check string (key ^ " acked") Proto.stored r;
        Hashtbl.replace acked key value
      done;
      let ctr = "ctr" in
      check string "ctr seeded" Proto.stored
        (rpc conn (Proto.fmt_storage "set" ~rid:"c-seed" ~key:ctr ~flags:0 ~value:"0" ()));
      let incrs =
        List.init 10 (fun i -> Proto.fmt_incr ~rid:(Printf.sprintf "ci%d" i) ctr 1)
      in
      List.iteri
        (fun i req ->
          match Proto.parse_reply (rpc conn req) with
          | Proto.Number v -> check int "incr acked in order" (i + 1) v
          | _ -> Alcotest.fail "incr not acked")
        incrs;
      let victim = Ring.route (Cluster.Fleet.ring t) ctr in
      Cluster.Fleet.drain_shard t victim;
      check string "victim failed over" "failed-over"
        (Cluster.Fleet.shard_state t victim);
      check int "one failover" 1 (Cluster.Fleet.failovers t);
      check bool "journal re-seeded acked writes" true (Cluster.Fleet.reseeded t > 0);
      check bool "victim left the ring" true
        (not (List.mem victim (Ring.members (Cluster.Fleet.ring t))));
      (* (a) Retry every incr verbatim: answered from the replica's
         journal with the {e original} counter values. *)
      List.iteri
        (fun i req ->
          match Proto.parse_reply (rpc_retry conn req) with
          | Proto.Number v ->
              check int
                (Printf.sprintf "retried incr %d answered from journal" i)
                (i + 1) v
          | _ -> Alcotest.fail "retried incr failed")
        incrs;
      (* (b) Not doubly applied: the counter still reads 10. *)
      (match Proto.parse_reply (rpc_retry conn (Proto.fmt_get ctr)) with
      | Proto.Value v -> check string "counter exact" "10" v
      | _ -> Alcotest.fail "counter lost");
      (* (c) No acked set lost, wherever its key now lives. *)
      Hashtbl.iter
        (fun key value ->
          match Proto.parse_reply (rpc_retry conn (Proto.fmt_get key)) with
          | Proto.Value v -> check string (key ^ " survives failover") value v
          | _ -> Alcotest.fail (key ^ " lost in failover"))
        acked;
      (* The re-seed hops were recorded as Failover flight events in the
         surviving shards, so incident reconstruction can see them. *)
      let failover_events =
        List.concat_map
          (fun s ->
            if s = victim then []
            else
              List.filter
                (fun (e : Checkpoint.Flight.event) ->
                  e.e_kind = Checkpoint.Flight.Failover)
                (Api.flight_events (Cluster.Fleet.shard_sd t s)
                   ~udi:Cluster.Fleet.router_flight_udi))
          [ 0; 1; 2 ]
      in
      check bool "failover flight events recorded" true (failover_events <> []))

(* {1 Quarantine-driven failover (the heartbeat path)} *)

let test_quarantine_failover () =
  let tight c =
    { c with Kvcache.Server.vulnerable = true; workers = 1 }
  in
  with_cluster ~shards:2 ~kv_patch:tight (fun t conn ->
      (* Plant data on both shards first. *)
      for i = 0 to 19 do
        ignore
          (rpc conn
             (Proto.fmt_storage "set" ~rid:(Printf.sprintf "qr%d" i)
                ~key:(Printf.sprintf "q%d" i) ~flags:0 ~value:"keep" ()))
      done;
      (* Aim CVE payloads at one shard until its supervisor trips the
         rewind budget and quarantines the event domain. *)
      let ring = Cluster.Fleet.ring t in
      let victim = Ring.route ring "q0" in
      let evil_keys =
        List.filter
          (fun k -> Ring.route ring k = victim)
          (List.init 40 (fun i -> Printf.sprintf "evil%d" i))
      in
      check bool "found keys owned by victim" true (List.length evil_keys >= 5);
      (* Stop the attack the moment the victim's supervisor state shows
         up in its health: once the ring drops the victim, further
         payloads would re-route to the survivor and poison it too. *)
      let rec attack = function
        | [] -> ()
        | key :: rest ->
            if
              Cluster.Fleet.failovers t = 0
              &&
              match Cluster.Fleet.shard_health t victim with
              | "quarantined" | "down" -> false
              | _ -> true
            then begin
              Netsim.send conn
                (Proto.fmt_set_lying ~key ~flags:0 ~declared:(-1)
                   ~value:(String.make 200 'X'));
              (* The rewind closes the router's backend connection, so the
                 reply (if any) is busy/none — either way keep going. *)
              ignore
                (Netsim.recv_deadline conn ~deadline:(Sched.now () +. 1.0e6));
              Sched.sleep 10_000.0;
              attack rest
            end
      in
      attack evil_keys;
      (* Give the heartbeat (quarantined breaker) and the health monitor
         time to notice and fail over. *)
      Sched.sleep 500_000.0;
      check string "victim failed over via heartbeat" "failed-over"
        (Cluster.Fleet.shard_state t victim);
      check bool "health derived from breaker state" true
        (Cluster.Fleet.shard_health t victim = "quarantined"
        || Cluster.Fleet.shard_health t victim = "down");
      (* Every acked write survives the quarantine failover. *)
      for i = 0 to 19 do
        let key = Printf.sprintf "q%d" i in
        match Proto.parse_reply (rpc_retry conn (Proto.fmt_get key)) with
        | Proto.Value v -> check string (key ^ " survives") "keep" v
        | _ -> Alcotest.fail (key ^ " lost after quarantine failover")
      done)

(* {1 Open-loop generator} *)

(* Offered load must be independent of service speed: two open-loop runs
   against servers of very different speeds span (almost) the same
   virtual time, where a closed-loop fleet would finish early on the
   fast server. *)
let test_open_loop_arrivals () =
  let run proc_cycles =
    let cfg =
      {
        Kvcache.Server.default_config with
        variant = Kvcache.Server.Baseline;
        proc_cycles;
      }
    in
    let wl =
      {
        Workload.Ycsb.default_config with
        records = 50;
        operations = 400;
        clients = 40;
        value_size = 32;
        arrival_interval = 500.0;
      }
    in
    (Scenario.kvcache (Scenario.world ()) cfg (Ycsb wl)).result
  in
  let p50 (r : Workload.Ycsb.results) =
    match List.sort compare r.Workload.Ycsb.run_latencies with
    | [] -> 0.0
    | l -> List.nth l (List.length l / 2)
  in
  let slow = run 20_000.0 and fast = run 500.0 in
  (* 400 ops at one per 500 cycles ≈ 200k cycles of offered load: the
     fast run's span is pinned by the arrival schedule, not the server. *)
  check bool "fast run spans the arrival schedule" true
    (fast.Workload.Ycsb.run_cycles >= 190_000.0);
  (* Open loop means the slow server cannot slow the offered load down:
     every op is still issued on schedule, so the backlog shows up as
     a longer run and (coordinated-omission-free) queueing latency —
     a closed-loop fleet would instead throttle its arrival rate and
     keep latencies flat. *)
  check int "slow run still issues every op" 400 slow.Workload.Ycsb.run_ops;
  check bool "backlog extends the slow run" true
    (slow.Workload.Ycsb.run_cycles >= fast.Workload.Ycsb.run_cycles *. 2.0);
  check bool "queueing delay lands in the latency record" true
    (p50 slow >= p50 fast *. 3.0)

let () =
  Alcotest.run "cluster"
    [
      ( "hash-ring",
        [
          Alcotest.test_case "remove moves only K/n" `Quick
            test_ring_remove_stability;
          Alcotest.test_case "add moves only K/(n+1)" `Quick
            test_ring_add_stability;
          Alcotest.test_case "vnodes balance load" `Quick test_ring_balance;
          Alcotest.test_case "route_n preference order" `Quick
            test_ring_route_n;
        ] );
      ( "router",
        [
          Alcotest.test_case "routes and serves" `Quick test_cluster_routes;
          Alcotest.test_case "aggregate metrics" `Quick
            test_cluster_aggregate_metrics;
        ] );
      ( "failover",
        [
          Alcotest.test_case "drain differential" `Quick
            test_failover_differential;
          Alcotest.test_case "quarantine heartbeat path" `Quick
            test_quarantine_failover;
        ] );
      ( "open-loop",
        [ Alcotest.test_case "arrival schedule" `Quick test_open_loop_arrivals ] );
    ]
