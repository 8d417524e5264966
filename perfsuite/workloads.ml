(* The five benchmark workloads. Each run builds a fresh simulation from
   the seed, drives it to completion, checks the program's outputs, and
   returns what the metrics are computed from. A traced run is the same
   run with the monitors' span tracers enabled; the tracers charge no
   virtual time, so it must reproduce the untraced simulation exactly. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Space = Vmem.Space
module Api = Sdrad.Api
module M = Telemetry.Metrics
module Trace = Telemetry.Trace
module Ycsb = Workload.Ycsb
module Fi = Resilience.Fault_inject
module Fleet = Cluster.Fleet

type outcome = {
  latencies : float array;  (* one per attempted run-phase op, cycles *)
  failed : int;
  run_cycles : float;
  rss_bytes : int;
  rewind_latencies : float list;  (* cycles *)
  records : int;  (* load-phase operations *)
  load_cycles : float;
  layer : (string * float) list;  (* whole-run layer counters *)
  spans : Trace.span list list;  (* retained spans, one list per tracer *)
  threads : int;  (* finished simulated threads *)
  checks : (string * bool) list;
}

type t = {
  name : string;
  clients : int;  (* the run-phase op count is a multiple of this *)
  ops_per_second : int;  (* run-phase ops per second of --seconds *)
  run : seed:int -> ops:int -> trace:bool -> outcome;
}

(* Span ring of a traced monitor: enough for per-call means, and on
   kv-write-faults for the last 100+ rewinds, where ops record about 20
   spans each and rewind once per ~200 ops. *)
let trace_capacity ~faulty = if faulty then 1 lsl 19 else 1 lsl 16

(* {1 Counters read from outside} *)

let monitor_series =
  [
    "sdrad_domain_enters_total"; "sdrad_domain_exits_total";
    "sdrad_domain_inits_total"; "gate_batched_calls_total";
    "sdrad_rewinds_total"; "sdrad_flight_events_total";
    "sdrad_audit_appended_total"; "vmem_pkru_writes_total";
    "vmem_pkru_elided_total"; "vmem_faults_total"; "vmem_tlb_hits_total";
    "vmem_tlb_misses_total"; "vmem_tlb_shootdowns_total";
    "supervisor_rejections_total"; "supervisor_backoff_waits_total";
  ]

let monitor_counters sd =
  let m = Api.metrics sd in
  let get ?labels name = Option.value (M.sample m ?labels name) ~default:0.0 in
  let heaps name =
    get ~labels:[ ("heap", "monitor") ] name
    +. get ~labels:[ ("heap", "root") ] name
  in
  List.map (fun n -> (n, get n)) monitor_series
  @ [
      ("tlsf_malloc_calls_total", heaps "tlsf_malloc_calls_total");
      ("tlsf_free_calls_total", heaps "tlsf_free_calls_total");
      ("audit_bytes", float_of_int (Api.audit_bytes sd));
    ]

(* Key-wise sum of counter lists that share one key order. *)
let sum_counters = function
  | [] -> []
  | first :: rest ->
      List.fold_left
        (fun acc l -> List.map2 (fun (k, a) (_, b) -> (k, a +. b)) acc l)
        first rest

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Every send is counted by a network hook that delivers it, or drops it
   when [drop] says so. *)
type wire = { mutable msgs : int; mutable bytes : int; mutable drops : int }

let watch_wire ?(drop = fun () -> false) net =
  let w = { msgs = 0; bytes = 0; drops = 0 } in
  Netsim.set_fault_hook net
    (Some
       (fun ~len ->
         w.msgs <- w.msgs + 1;
         w.bytes <- w.bytes + len;
         if drop () then begin
           w.drops <- w.drops + 1;
           Netsim.Drop
         end
         else Netsim.Deliver));
  w

let wire_counters w =
  [
    ("net_msgs", float_of_int w.msgs); ("net_bytes", float_of_int w.bytes);
    ("net_drops", float_of_int w.drops);
  ]

(* Busy (non-waiting) cycles of the finished threads whose name starts
   with [prefix]. *)
let busy_cycles sched ~prefix =
  List.fold_left
    (fun acc (tid, name, _) ->
      match (Sched.thread_clock sched tid, Sched.thread_waited sched tid) with
      | Some c, Some w when String.starts_with ~prefix name -> acc +. c -. w
      | _ -> acc)
    0.0 (Sched.outcomes sched)

(* No simulated thread may have died with an exception. *)
let no_failed_threads sched =
  List.for_all
    (fun (_, _, oc) ->
      match oc with Sched.Completed -> true | Failed _ -> false)
    (Sched.outcomes sched)

(* {1 Output checks on the key-value store}

   Loads and updates alike write one value per key, so after any run each
   record must hold exactly that value. Key and value layout mirror
   [Workload.Ycsb]. *)

let ycsb_key i = Printf.sprintf "user%08d" i

let ycsb_value ~seed ~value_size =
  let base =
    Bytes.to_string (Rng.bytes (Rng.create seed) (max 16 value_size))
  in
  fun i ->
    let stamp = Printf.sprintf "<%08d>" i in
    if value_size <= String.length stamp then String.sub stamp 0 value_size
    else stamp ^ String.sub base 0 (value_size - String.length stamp)

(* Records whose stored value differs from the one written. Runs inside
   the simulation: the store lives in checked simulated memory. *)
let bad_records ~records ~value_of locate =
  let bad = ref 0 in
  for i = 0 to records - 1 do
    let key = ycsb_key i in
    let space, store = locate key in
    match Kvcache.Store.peek store key with
    | Some (addr, len, _) when Space.read_string space addr len = value_of i
      ->
        ()
    | _ -> incr bad
  done;
  !bad

(* A stream of sub-seeds, one per independent random input of a run. *)
let sub_seeds seed =
  let rng = Rng.create seed in
  fun () -> Rng.int rng 0x3FFF_FFFF

(* {1 kv-read and kv-write-faults} *)

let kv_records = 5_000
let kv_clients = 16

(* Retry and supervision settings of the recovery experiment (bench r4),
   with twice the attempts so that no operation runs out of them:
   injected corruption is random noise, so backoff verdicts are wanted
   but quarantine is not. *)
let kv_retry =
  {
    Resilience.Retry.max_attempts = 8;
    attempt_timeout = 150_000.0;
    overall_timeout = 8.0e6;
    backoff_base = 5_000.0;
    backoff_cap = 160_000.0;
  }

let lenient =
  {
    Resilience.Supervisor.default_policy with
    budget_max = 100;
    backoff_base = 2_000.0;
    backoff_max = 20_000.0;
  }

let kv ~faulty ~seed ~ops ~trace =
  let next_seed = sub_seeds seed in
  let ycsb_seed = next_seed () in
  let fault_seed = next_seed () in
  let drop_seed = next_seed () in
  let space = Space.create ~size_mib:32 () in
  let tracer = Trace.create ~capacity:(trace_capacity ~faulty) () in
  Trace.set_enabled tracer trace;
  let sd = Api.create ~tracer space in
  let supervisor =
    if faulty then Some (Resilience.Supervisor.attach ~policy:lenient sd)
    else None
  in
  let faults =
    if faulty then
      Some
        (Fi.create ~seed:fault_seed
           [ Fi.rule ~prob:0.005 ~site:"kv.domain" Fi.Wild_write ])
    else None
  in
  let sched = Sched.create () in
  let net = Netsim.create (Space.cost space) in
  let drop_rng = Rng.create drop_seed in
  let wire =
    watch_wire net ~drop:(fun () -> faulty && Rng.float drop_rng < 0.01)
  in
  let base = if faulty then Ycsb.workload_a else Ycsb.workload_b in
  let ycfg =
    {
      base with
      records = kv_records;
      operations = ops;
      clients = kv_clients;
      seed = ycsb_seed;
      retry = (if faulty then Some kv_retry else None);
    }
  in
  let cfg =
    { Kvcache.Server.default_config with variant = Kvcache.Server.Sdrad }
  in
  let value_of = ycsb_value ~seed:ycsb_seed ~value_size:ycfg.value_size in
  let snap = ref ([], []) in
  let server = ref None in
  let results = ref (fun () -> failwith "kv: not launched") in
  ignore
    (Sched.spawn sched ~name:"harness" (fun () ->
         let s =
           Kvcache.Server.start sched space ~sdrad:sd ?supervisor ?faults net
             cfg
         in
         server := Some s;
         results :=
           Ycsb.launch sched net ycfg
             ~on_done:(fun () ->
               (* Read the counters before the checks below add work. *)
               let layer =
                 monitor_counters sd @ wire_counters wire
                 @ [
                     ( "kv_busy_frac",
                       mean (Kvcache.Server.worker_utilization s) );
                     ("kv_shed", float_of_int (Kvcache.Server.shed_count s));
                     ( "replay_hits",
                       float_of_int (Kvcache.Server.replay_hits s) );
                     ( "fault_fires",
                       float_of_int (Option.fold ~none:0 ~some:Fi.fires faults) );
                   ]
               in
               let store = Kvcache.Server.store s in
               let checks =
                 [
                   ("kv.db_check", Kvcache.Server.db_check s = []);
                   ( "kv.values",
                     bad_records ~records:kv_records ~value_of (fun _ ->
                         (space, store))
                     = 0 );
                 ]
               in
               snap := (layer, checks);
               Kvcache.Server.stop s)
             ()));
  Sched.run sched;
  let r = !results () in
  let s = Option.get !server in
  let layer, checks = !snap in
  let rewinds = Kvcache.Server.rewinds s in
  {
    latencies = Array.of_list r.Ycsb.run_latencies;
    failed = r.Ycsb.failures;
    run_cycles = r.Ycsb.run_cycles;
    rss_bytes = Space.max_rss_bytes space;
    rewind_latencies = Kvcache.Server.rewind_latencies s;
    records = kv_records;
    load_cycles = r.Ycsb.load_cycles;
    layer =
      layer
      @ [
          ("retries", float_of_int r.Ycsb.retries);
          ("kv_busy_cycles", busy_cycles sched ~prefix:"mc-");
        ];
    spans = [ Trace.spans tracer ];
    threads = List.length (Sched.outcomes sched);
    checks =
      checks
      @ [
          ("kv.not_crashed", not (Kvcache.Server.crashed s));
          ("sched.no_failed_threads", no_failed_threads sched);
          ("audit_equals_rewinds", Api.audit_appended sd = rewinds);
        ];
  }

(* {1 http-mix} *)

let http_connections = 75

let http ~seed ~ops ~trace =
  let client_seed = sub_seeds seed () in
  let space = Space.create ~size_mib:32 () in
  let tracer = Trace.create ~capacity:(trace_capacity ~faulty:false) () in
  Trace.set_enabled tracer trace;
  let sd = Api.create ~tracer space in
  let sched = Sched.create () in
  let net = Netsim.create (Space.cost space) in
  let wire = watch_wire net in
  let cfg =
    {
      Httpd.Server.default_config with
      variant = Httpd.Server.Sdrad;
      workers = 1;
    }
  in
  let snap = ref ([], []) in
  let server = ref None in
  let results = ref (fun () -> failwith "http: not launched") in
  ignore
    (Sched.spawn sched ~name:"harness" (fun () ->
         let fs = Httpd.Fs.create space in
         let doc path size =
           Httpd.Fs.add fs ~path ~size;
           { Httpc.path; body = Httpd.Fs.read_body fs path }
         in
         let mix = [ (0.9, doc "/s.bin" 1024); (0.1, doc "/l.bin" 65536) ] in
         let s = Httpd.Server.start sched space ~sdrad:sd net ~fs cfg in
         server := Some s;
         results :=
           Httpc.launch sched net ~port:cfg.Httpd.Server.port
             ~connections:http_connections ~requests:ops ~mix ~seed:client_seed
             ~client_cycles:Workload.Http_load.default_config.client_cycles
             ~on_done:(fun () ->
               snap :=
                 ( monitor_counters sd @ wire_counters wire
                   @ [
                       ( "http_served",
                         float_of_int (Httpd.Server.requests_served s) );
                     ],
                   [ ("http.alive", Httpd.Server.alive s) ] );
               Httpd.Server.stop s)
             ()));
  Sched.run sched;
  let r = !results () in
  let s = Option.get !server in
  let layer, checks = !snap in
  {
    latencies = r.Httpc.latencies;
    failed = r.Httpc.failed;
    run_cycles = r.Httpc.run_cycles;
    rss_bytes = Space.max_rss_bytes space;
    rewind_latencies = Httpd.Server.rewind_latencies s;
    records = 0;
    load_cycles = 0.0;
    layer =
      layer @ [ ("http_busy_cycles", busy_cycles sched ~prefix:"nginx-") ];
    spans = [ Trace.spans tracer ];
    threads = List.length (Sched.outcomes sched);
    checks =
      checks
      @ [
          ("http.bodies_intact", r.Httpc.bad = 0);
          ("http.no_worker_restarts", Httpd.Server.worker_restarts s = 0);
          ("sched.no_failed_threads", no_failed_threads sched);
          ( "audit_equals_rewinds",
            Api.audit_appended sd = Httpd.Server.rewinds s );
        ];
  }

(* {1 fleet-nominal and fleet-saturated} *)

let fleet_records = 2_000
let fleet_clients = 10_000
let fleet_saturating_clients = 48

(* Retry settings of the fleet scaling experiment (bench r5), with
   twice the attempts so that no operation runs out of them. *)
let fleet_retry =
  {
    Resilience.Retry.max_attempts = 8;
    attempt_timeout = 400_000.0;
    overall_timeout = 10.0e6;
    backoff_base = 10_000.0;
    backoff_cap = 320_000.0;
  }

let fleet ~clients ~interval ~seed ~ops ~trace =
  let ycsb_seed = sub_seeds seed () in
  let sched = Sched.create () in
  let net = Netsim.create Simkern.Cost.default in
  let wire = watch_wire net in
  let cfg =
    {
      Fleet.default_config with
      shards = 4;
      router_workers = 48;
      space_mib = 32;
    }
  in
  let ycfg =
    {
      Ycsb.default_config with
      records = fleet_records;
      operations = ops;
      clients;
      value_size = 64;
      port = cfg.Fleet.router_port;
      retry = Some fleet_retry;
      arrival_interval = interval;
      distribution = Ycsb.Uniform;
      seed = ycsb_seed;
    }
  in
  let value_of = ycsb_value ~seed:ycsb_seed ~value_size:ycfg.value_size in
  let snap = ref ([], []) in
  let fleet = ref None in
  let results = ref (fun () -> failwith "fleet: not launched") in
  let shards t = List.init (Fleet.shard_count t) Fun.id in
  ignore
    (Sched.spawn sched ~name:"harness" (fun () ->
         let t = Fleet.start sched net cfg in
         fleet := Some t;
         List.iter
           (fun i -> Trace.set_enabled (Api.tracer (Fleet.shard_sd t i)) trace)
           (shards t);
         results :=
           Ycsb.launch sched net ycfg
             ~on_done:(fun () ->
               let servers = List.map (Fleet.shard_server t) (shards t) in
               let busy =
                 List.map
                   (fun s -> mean (Kvcache.Server.worker_utilization s))
                   servers
               in
               let total f =
                 float_of_int (List.fold_left (fun a s -> a + f s) 0 servers)
               in
               let layer =
                 sum_counters
                   (List.map (fun i -> monitor_counters (Fleet.shard_sd t i))
                      (shards t))
                 @ wire_counters wire
                 @ [
                     ("kv_busy_frac", mean busy);
                     ("shard_busy_frac_max", List.fold_left Float.max 0.0 busy);
                     ("kv_shed", total Kvcache.Server.shed_count);
                     ("replay_hits", total Kvcache.Server.replay_hits);
                     ("routed", float_of_int (Fleet.routed t));
                     ("router_shed", float_of_int (Fleet.router_shed t));
                     ( "forward_timeouts",
                       float_of_int (Fleet.forward_timeouts t) );
                     ("failovers", float_of_int (Fleet.failovers t));
                   ]
               in
               let checks =
                 [
                   ( "fleet.db_check",
                     List.for_all
                       (fun s -> Kvcache.Server.db_check s = [])
                       servers );
                   ( "fleet.values",
                     bad_records ~records:fleet_records ~value_of (fun key ->
                         let i = Cluster.Hash_ring.route (Fleet.ring t) key in
                         ( Api.space (Fleet.shard_sd t i),
                           Kvcache.Server.store (Fleet.shard_server t i) ))
                     = 0 );
                   ("fleet.no_failovers", Fleet.failovers t = 0);
                 ]
               in
               snap := (layer, checks);
               Fleet.stop t)
             ()));
  Sched.run sched;
  let r = !results () in
  let t = Option.get !fleet in
  let sds = List.map (Fleet.shard_sd t) (shards t) in
  let servers = List.map (Fleet.shard_server t) (shards t) in
  let layer, checks = !snap in
  {
    latencies = Array.of_list r.Ycsb.run_latencies;
    failed = r.Ycsb.failures;
    run_cycles = r.Ycsb.run_cycles;
    rss_bytes =
      List.fold_left (fun a sd -> a + Space.max_rss_bytes (Api.space sd)) 0 sds;
    rewind_latencies = List.concat_map Kvcache.Server.rewind_latencies servers;
    records = fleet_records;
    load_cycles = r.Ycsb.load_cycles;
    layer =
      layer
      @ [
          ("retries", float_of_int r.Ycsb.retries);
          ("kv_busy_cycles", busy_cycles sched ~prefix:"mc-");
        ];
    spans = List.map (fun sd -> Trace.spans (Api.tracer sd)) sds;
    threads = List.length (Sched.outcomes sched);
    checks =
      checks
      @ [
          ( "fleet.not_crashed",
            not (List.exists Kvcache.Server.crashed servers) );
          ("sched.no_failed_threads", no_failed_threads sched);
          ( "audit_equals_rewinds",
            List.fold_left (fun a sd -> a + Api.audit_appended sd) 0 sds
            = List.fold_left (fun a s -> a + Kvcache.Server.rewinds s) 0 servers
          );
        ];
  }

let all =
  [
    {
      name = "kv-read";
      clients = kv_clients;
      ops_per_second = 60_000;
      run = kv ~faulty:false;
    };
    {
      name = "kv-write-faults";
      clients = kv_clients;
      ops_per_second = 35_000;
      run = kv ~faulty:true;
    };
    {
      name = "http-mix";
      clients = http_connections;
      ops_per_second = 28_000;
      run = http;
    };
    {
      name = "fleet-nominal";
      clients = fleet_clients;
      ops_per_second = 12_000;
      run = fleet ~clients:fleet_clients ~interval:2_000.0;
    };
    {
      name = "fleet-saturated";
      clients = fleet_saturating_clients;
      ops_per_second = 24_000;
      run = fleet ~clients:fleet_saturating_clients ~interval:0.0;
    };
  ]
