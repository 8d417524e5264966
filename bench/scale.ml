(* E1 and E6 at 10^6 records and 10^7 operations (the paper runs 10^7
   and 10^8): YCSB-B against the kvcache server, baseline, TLSF and
   SDRaD, with 1 and 4 workers, in a 2 GiB space. E6's rows are the max
   RSS of the 4-worker baseline and SDRaD runs, whose load phase writes
   every record. Writes BENCH_scale.json (simulated numbers only) and
   prints each run's host CPU time; fails if any request fails.

     dune exec bench/scale.exe    # or: make bench-scale

   It is kept out of bench/main.exe, so neither `make bench-json` nor
   `make same` runs it: each run holds about 1.3 GiB of host memory
   (a 4 KiB frame per page the records fill) and the whole takes about
   ten minutes. *)

open Harness

let records = 1_000_000
let operations = 10_000_000
let clients = 16
let size_mib = 2048

let variants =
  [
    ("baseline", Kvcache.Server.Baseline);
    ("tlsf", Kvcache.Server.Tlsf_alloc);
    ("sdrad", Kvcache.Server.Sdrad);
  ]

(* Each run starts from a compacted heap, so the last run's world is
   given back before the next one maps its own. *)
let run name variant workers =
  Gc.compact ();
  let cpu0 = Sys.time () in
  let r =
    Scenario.kvcache
      (Scenario.world ~size_mib ?monitor:(Scenario.monitor_for variant) ())
      { Kvcache.Server.default_config with variant; workers }
      (Ycsb { Workload.Ycsb.default_config with records; operations; clients })
  in
  Printf.printf "%s, %d worker(s): host CPU %.1f s\n%!" name workers
    (Sys.time () -. cpu0);
  if r.result.failures > 0 then begin
    Printf.eprintf "SCALE FAIL: %s with %d worker(s): %d failed requests\n"
      name workers r.result.failures;
    exit 1
  end;
  (load_tput r, run_tput r, max_rss r)

let () =
  (* A smaller major-heap slack than the default 120 %: each run keeps
     about 1.3 GiB of frames live, and the slack on them is what sets
     the host's peak (2.2 GiB against 1.5 at 10^6 operations) for about
     the same CPU time. *)
  Gc.set { (Gc.get ()) with space_overhead = 40 };
  section
    (Printf.sprintf
       "E1/E6 at scale: %d records, %d operations, %d clients, %d MiB space"
       records operations clients size_mib);
  let results =
    List.concat_map
      (fun workers ->
        List.map
          (fun (name, variant) -> ((name, workers), run name variant workers))
          variants)
      [ 1; 4 ]
  in
  let get name workers = List.assoc (name, workers) results in
  let tput select phase workers =
    let v name = select (get name workers) in
    let base = v "baseline" in
    [
      Printf.sprintf "%s/%d thr" phase workers;
      Stats.Table.fmt_si base;
      Printf.sprintf "%s (%s)" (Stats.Table.fmt_si (v "tlsf"))
        (pct base (v "tlsf"));
      Printf.sprintf "%s (%s)" (Stats.Table.fmt_si (v "sdrad"))
        (pct base (v "sdrad"));
    ]
  in
  let load_of (l, _, _) = l and run_of (_, r, _) = r in
  table
    ~header:[ "phase/threads"; "baseline op/s"; "tlsf op/s"; "sdrad op/s" ]
    [
      tput load_of "load" 1; tput load_of "load" 4; tput run_of "run" 1;
      tput run_of "run" 4;
    ];
  let rss name =
    let _, _, b = get name 4 in
    float_of_int b /. 1048576.0
  in
  let increase = 100.0 *. ((rss "sdrad" /. rss "baseline") -. 1.0) in
  Printf.printf
    "E6 max RSS: baseline %.1f MiB, sdrad %.1f MiB (%+.2f%%; paper +0.4%%)\n"
    (rss "baseline") (rss "sdrad") increase;
  let oc = open_out "BENCH_scale.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"scale\",\n\
    \  \"workload\": { \"server\": \"kvcache\", \"clients\": %d, \"records\": \
     %d, \"operations\": %d, \"space_mib\": %d },\n"
    clients records operations size_mib;
  List.iter
    (fun ((name, workers), (l, r, _)) ->
      Printf.fprintf oc "  \"load_ops_s_%s_%dw\": %.1f,\n" name workers l;
      Printf.fprintf oc "  \"run_ops_s_%s_%dw\": %.1f,\n" name workers r)
    results;
  Printf.fprintf oc
    "  \"max_rss_mib_baseline\": %.2f,\n\
    \  \"max_rss_mib_sdrad\": %.2f,\n\
    \  \"rss_increase_pct\": %.2f\n\
     }\n"
    (rss "baseline") (rss "sdrad") increase;
  close_out oc;
  print_endline "wrote BENCH_scale.json"
