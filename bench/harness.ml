(* Shared plumbing for the experiment harness: result formatting and the
   readers the experiments share over a {!Scenario} run. *)

module Space = Vmem.Space
module Cost = Simkern.Cost

let cost = Cost.default

let section title =
  Printf.printf "\n=== %s ===\n\n%!" title

let subsection title = Printf.printf "-- %s --\n%!" title

let table ~header rows = print_endline (Stats.Table.render ~header rows)

let pct base v = Stats.Table.fmt_pct ((v -. base) /. base)

let us_of c = Cost.us_of_cycles cost c

let make_fs space sizes =
  let fs = Httpd.Fs.create space in
  List.iter (fun s -> Httpd.Fs.add fs ~path:(Printf.sprintf "/f%d.bin" s) ~size:s) sizes;
  fs

(* {1 Memcached (E1/E2/E6): one YCSB run} *)

type mc_run =
  (Scenario.world, Kvcache.Server.t, Workload.Ycsb.results) Scenario.run

let load_tput (r : mc_run) =
  Stats.ops_per_sec cost ~ops:r.result.load_ops ~cycles:r.result.load_cycles

let run_tput (r : mc_run) =
  Stats.ops_per_sec cost ~ops:r.result.run_ops ~cycles:r.result.run_cycles

let max_rss (r : (Scenario.world, _, _) Scenario.run) =
  Space.max_rss_bytes r.world.space

(* Mean worker busy fraction. *)
let utilization (r : mc_run) =
  match Kvcache.Server.worker_utilization r.server with
  | [] -> 0.0
  | us -> List.fold_left ( +. ) 0.0 us /. float_of_int (List.length us)

(* {1 NGINX (E3/E4/E6): one ApacheBench-style run} *)

let req_tput (r : (_, _, Workload.Http_load.results) Scenario.run) =
  Stats.ops_per_sec cost ~ops:r.result.ok ~cycles:r.result.cycles
