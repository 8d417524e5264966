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

(* {1 Committed results}

   The BENCH_*.json files: the experiment id, then one key per line,
   each value inline. Numbers keep the decimals the file has always
   printed, so a rerun that keeps every number rewrites the same bytes. *)

type json =
  | Int of int
  | Fixed of int * float  (* that many decimals *)
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec json_value = function
  | Int i -> string_of_int i
  | Fixed (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Str s -> "\"" ^ Telemetry.json_escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map json_value l) ^ "]"
  | Obj fields -> "{ " ^ String.concat ", " (List.map json_field fields) ^ " }"

and json_field (k, v) = Printf.sprintf "\"%s\": %s" k (json_value v)

let write_json file ~experiment fields =
  let oc = open_out file in
  Printf.fprintf oc "{\n  %s\n}\n"
    (String.concat ",\n  "
       (List.map json_field (("experiment", Str experiment) :: fields)));
  close_out oc;
  Printf.printf "wrote %s\n" file

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
