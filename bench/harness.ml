(* Shared plumbing for the experiment harness: simulation setup helpers
   and result formatting. *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Cost = Simkern.Cost
module Api = Sdrad.Api

let cost = Cost.default

let section title =
  Printf.printf "\n=== %s ===\n\n%!" title

let subsection title = Printf.printf "-- %s --\n%!" title

let table ~header rows = print_endline (Stats.Table.render ~header rows)

let pct base v = Stats.Table.fmt_pct ((v -. base) /. base)

let us_of c = Cost.us_of_cycles cost c

(* Run one simulation: [setup] runs inside the first thread; the returned
   thunk is called after the scheduler drains. *)
let simulate ?(size_mib = 192) f =
  let space = Space.create ~size_mib () in
  let sched = Sched.create () in
  let out = ref None in
  let _ =
    Sched.spawn sched ~name:"harness" (fun () -> out := Some (f space sched))
  in
  Sched.run sched;
  Option.get !out

(* Memcached (E1/E2/E6): one full YCSB experiment on a fresh simulation. *)
type mc_run = {
  mc_load_tput : float;  (* ops/s *)
  mc_run_tput : float;
  mc_max_rss : int;
  mc_latencies : float list;  (* run-phase client RTTs, cycles *)
  mc_utilization : float;  (* mean worker busy fraction *)
  mc_busy_cycles : float;
  mc_server : Kvcache.Server.t;
}

let run_memcached ?base_config ?(gate_batch_limit = 0) ~variant ~workers
    ~records ~operations ~clients () =
  let space = Space.create ~size_mib:192 () in
  let sd =
    match variant with
    | Kvcache.Server.Sdrad -> Some (Api.create space)
    | _ -> None
  in
  let sched = Sched.create () in
  let net = Netsim.create (Space.cost space) in
  let cfg =
    { Kvcache.Server.default_config with variant; workers; gate_batch_limit }
  in
  let base =
    Option.value base_config ~default:Workload.Ycsb.default_config
  in
  let ycfg = { base with Workload.Ycsb.records; operations; clients } in
  let srv = ref None in
  let results = ref (fun () -> failwith "unset") in
  let _ =
    Sched.spawn sched ~name:"harness" (fun () ->
        let s = Kvcache.Server.start sched space ?sdrad:sd net cfg in
        srv := Some s;
        results :=
          Workload.Ycsb.launch sched net ycfg
            ~on_done:(fun () -> Kvcache.Server.stop s)
            ())
  in
  Sched.run sched;
  let r = !results () in
  assert (r.Workload.Ycsb.failures = 0);
  {
    mc_load_tput =
      Stats.ops_per_sec cost ~ops:r.Workload.Ycsb.load_ops
        ~cycles:r.Workload.Ycsb.load_cycles;
    mc_run_tput =
      Stats.ops_per_sec cost ~ops:r.Workload.Ycsb.run_ops
        ~cycles:r.Workload.Ycsb.run_cycles;
    mc_max_rss = Space.max_rss_bytes space;
    mc_latencies = r.Workload.Ycsb.run_latencies;
    mc_utilization =
      (match Kvcache.Server.worker_utilization (Option.get !srv) with
      | [] -> 0.0
      | us -> List.fold_left ( +. ) 0.0 us /. float_of_int (List.length us));
    mc_busy_cycles = Kvcache.Server.worker_busy_cycles (Option.get !srv);
    mc_server = Option.get !srv;
  }

(* NGINX (E3/E4/E6): one ApacheBench-style run on a fresh simulation. *)
type ng_run = {
  ng_tput : float;  (* requests/s *)
  ng_max_rss : int;
  ng_server : Httpd.Server.t;
}

let make_fs space sizes =
  let fs = Httpd.Fs.create space in
  List.iter (fun s -> Httpd.Fs.add fs ~path:(Printf.sprintf "/f%d.bin" s) ~size:s) sizes;
  fs

let run_nginx ~variant ~workers ~file_size ~connections ~requests_per_conn =
  let space = Space.create ~size_mib:192 () in
  let sd =
    match variant with Httpd.Server.Sdrad -> Some (Api.create space) | _ -> None
  in
  let sched = Sched.create () in
  let net = Netsim.create (Space.cost space) in
  let cfg = { Httpd.Server.default_config with variant; workers } in
  let lcfg =
    {
      Workload.Http_load.default_config with
      connections;
      requests_per_conn;
      path = Printf.sprintf "/f%d.bin" file_size;
    }
  in
  let srv = ref None in
  let results = ref (fun () -> failwith "unset") in
  let _ =
    Sched.spawn sched ~name:"harness" (fun () ->
        let s =
          Httpd.Server.start sched space ?sdrad:sd net
            ~fs:(make_fs space [ file_size ]) cfg
        in
        srv := Some s;
        results :=
          Workload.Http_load.launch sched net lcfg
            ~on_done:(fun () -> Httpd.Server.stop s)
            ())
  in
  Sched.run sched;
  let r = !results () in
  assert (r.Workload.Http_load.failures = 0);
  {
    ng_tput =
      Stats.ops_per_sec cost ~ops:r.Workload.Http_load.ok
        ~cycles:r.Workload.Http_load.cycles;
    ng_max_rss = Space.max_rss_bytes space;
    ng_server = Option.get !srv;
  }
