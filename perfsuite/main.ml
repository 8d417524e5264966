(* Seeded end-to-end benchmark of the SDRaD reproduction (README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1 [--json PATH]

   runs one workload, checks the program's outputs, and prints as its
   last line one JSON object holding the end-to-end metrics (--trace 0)
   or the per-layer metrics of a traced rerun (--trace 1). Without
   --workload every workload runs, each in a process of its own, and
   the last line holds every workload's result by name. Exits
   1 when an output check fails and 2 on bad arguments. *)

module Cost = Simkern.Cost

type args = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  json : string option;
}

let usage =
  "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
   [--json PATH]"

let bad_args msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let parse_args argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> bad_args (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_arg "--seed" n } rest
    | "--seconds" :: n :: rest ->
        let s = int_arg "--seconds" n in
        if s < 1 then bad_args "--seconds must be at least 1";
        go { a with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--json" :: p :: rest -> go { a with json = Some p } rest
    | arg :: _ -> bad_args ("unexpected argument " ^ arg)
  in
  go
    { workload = None; seed = 42; seconds = 5; trace = false; json = None }
    (List.tl (Array.to_list argv))

(* {1 Host measurements} *)

type host = { wall : float; cpu : float; words : float }

(* Bench-side spans: host time of the benchmark's own calls into the
   program (set-up runs, measured runs, probes), newest first. *)
let host_spans : (string * host) list ref = ref []

let span name f =
  let w0 = Unix.gettimeofday () and c0 = Sys.time () and m0 = Gc.minor_words () in
  let r = f () in
  let h =
    {
      wall = Unix.gettimeofday () -. w0;
      cpu = Sys.time () -. c0;
      words = Gc.minor_words () -. m0;
    }
  in
  host_spans := (name, h) :: !host_spans;
  (r, h)

(* {1 Simulated metrics} *)

let cost = Cost.default
let us c = Cost.us_of_cycles cost c
let mb bytes = bytes /. 1048576.0

type sim = {
  attempted : int;
  failed : int;
  goodput : float;  (* acknowledged ops per simulated second *)
  mean_us : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  beyond_p999 : int;  (* samples above p999 *)
  tail_us : float;  (* mean of the slowest [tail_share] of samples *)
  tail_samples : int;
  rss_mb : float;
}

(* The tail is summarised by the mean of its slowest 1%: a percentile
   of this cost model often lands on one exact cycle count that every
   seed repeats, while the tail mean still moves with what happens in
   the tail (see README.md). *)
let tail_share = 0.01

let simulated (o : Workloads.outcome) =
  let lat = Array.copy o.latencies in
  Array.sort Float.compare lat;
  let n = Array.length lat in
  let p999 = Stats.percentile lat 0.999 in
  let tail_from =
    n - max 1 (int_of_float (Float.round (float_of_int n *. tail_share)))
  in
  let tail_sum = ref 0.0 in
  for i = tail_from to n - 1 do
    tail_sum := !tail_sum +. lat.(i)
  done;
  {
    attempted = n;
    failed = o.failed;
    goodput = float_of_int (n - o.failed) /. Cost.sec_of_cycles cost o.run_cycles;
    mean_us = us (Array.fold_left ( +. ) 0.0 lat /. float_of_int n);
    p50_us = us (Stats.percentile lat 0.5);
    p99_us = us (Stats.percentile lat 0.99);
    p999_us = us p999;
    beyond_p999 = Array.fold_left (fun k x -> if x > p999 then k + 1 else k) 0 lat;
    tail_us = us (!tail_sum /. float_of_int (n - tail_from));
    tail_samples = n - tail_from;
    rss_mb = mb (float_of_int o.rss_bytes);
  }

(* A traced run must reproduce the untraced simulation exactly: the
   tracers charge no virtual time. *)
let same_simulation (a : Workloads.outcome) (b : Workloads.outcome) =
  a.latencies = b.latencies && a.failed = b.failed
  && a.run_cycles = b.run_cycles && a.rss_bytes = b.rss_bytes
  && a.rewind_latencies = b.rewind_latencies && a.layer = b.layer
  && a.threads = b.threads

(* {1 Output} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = Printf.sprintf "%.17g" v

let json_obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let metric_json ?(samples = false) (x : Layers.metric) =
  json_obj
    ([ ("value", json_float x.value); ("unit", json_string x.unit) ]
    @ if samples then [ ("samples", string_of_int x.samples) ] else [])

let write_detail path ~args ~name ~ops ~sim ~metrics ~checks =
  let oc = open_out path in
  output_string oc
    (json_obj
       [
         ("workload", json_string name);
         ("seed", string_of_int args.seed);
         ("seconds", string_of_int args.seconds);
         ("trace", string_of_bool args.trace);
         ("ops", string_of_int ops);
         ( "simulated",
           json_obj
             [
               ("attempted", string_of_int sim.attempted);
               ("failed", string_of_int sim.failed);
               ("goodput_ops_s", json_float sim.goodput);
               ("mean_us", json_float sim.mean_us);
               ("p50_us", json_float sim.p50_us);
               ("p99_us", json_float sim.p99_us);
               ("p999_us", json_float sim.p999_us);
               ("samples_beyond_p999", string_of_int sim.beyond_p999);
               ("tail_us", json_float sim.tail_us);
               ("tail_samples", string_of_int sim.tail_samples);
               ("rss_mb", json_float sim.rss_mb);
             ] );
         ( "metrics",
           json_obj
             (List.map
                (fun (x : Layers.metric) -> (x.name, metric_json ~samples:true x))
                metrics) );
         ( "checks",
           json_obj (List.map (fun (k, ok) -> (k, string_of_bool ok)) checks) );
         ( "host_spans",
           "["
           ^ String.concat ", "
               (List.rev_map
                  (fun (n, h) ->
                    json_obj
                      [
                        ("name", json_string n);
                        ("wall_s", json_float h.wall);
                        ("cpu_s", json_float h.cpu);
                        ("minor_words", json_float h.words);
                      ])
                  !host_spans)
           ^ "]" );
       ]);
  output_char oc '\n';
  close_out oc

(* {1 One workload} *)

(* setup_s is the median of [setup_repeats] set-up runs, timed in host
   CPU seconds: the process is single-threaded and does no I/O, and CPU
   time leaves out the time other tenants of the host hold the CPU,
   which wall time counts. The count is fixed so that the process
   allocates the same on every run of one seed, peak heap included. *)
let setup_repeats = 5

let end_to_end sim ~(run : host) ~setup_times =
  let m name unit value samples = { Layers.name; unit; value; samples } in
  [
    m "goodput_ops_s" "ops/s" sim.goodput sim.attempted;
    m "mean_us" "us" sim.mean_us sim.attempted;
    m "tail_us" "us" sim.tail_us sim.tail_samples;
    m "rss_mb" "MB" sim.rss_mb 1;
    m "host_alloc_words_per_op" "words/op"
      (run.words /. float_of_int sim.attempted)
      sim.attempted;
    m "host_heap_mb" "MB"
      (mb
         (float_of_int
            ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))))
      1;
    m "setup_s" "s" (Layers.median setup_times) (List.length setup_times);
  ]

(* Per-layer metrics of a traced rerun, plus its checks. *)
let per_layer (w : Workloads.t) args ~ops ~(o : Workloads.outcome)
    ~(run : host) =
  Gc.full_major ();
  let traced, th =
    span "run.traced" (fun () -> w.run ~seed:args.seed ~ops ~trace:true)
  in
  let probes =
    List.map
      (fun (name, probe) -> (name, fst (span ("probe." ^ name) probe)))
      Probes.all
  in
  let metrics =
    Layers.compute ~o ~traced ~probes ~alloc:(run.words, th.words)
      ~cpu:(run.cpu, th.cpu)
  in
  let is_rewind (s : Telemetry.Trace.span) = s.s_name = "rewind" in
  let rewind_spans =
    List.fold_left
      (fun k spans -> k + List.length (List.filter is_rewind spans))
      0 traced.spans
  in
  ( metrics,
    [
      ("trace.matches_untraced", same_simulation o traced);
      ("trace.attribution_fits", Layers.attribution_fits metrics);
      ( "trace.rewind_spans_retained",
        rewind_spans >= min 100 (List.length o.rewind_latencies) );
    ] )

let run_one args (w : Workloads.t) =
  let ops =
    max w.clients (w.ops_per_second * args.seconds / w.clients * w.clients)
  in
  Printf.printf "workload %s: seed %d, %d run-phase ops%s\n%!" w.name
    args.seed ops
    (if args.trace then ", traced rerun" else "");
  (* Set-up alone — construction, load phase, teardown — several times. *)
  let setups =
    if args.trace then []
    else
      List.init setup_repeats (fun i ->
          Gc.full_major ();
          span
            (Printf.sprintf "setup.%d" (i + 1))
            (fun () -> w.run ~seed:args.seed ~ops:0 ~trace:false))
  in
  Gc.full_major ();
  let o, run =
    span "run" (fun () -> w.run ~seed:args.seed ~ops ~trace:false)
  in
  let sim = simulated o in
  let metrics, trace_checks =
    if args.trace then per_layer w args ~ops ~o ~run
    else
      ( end_to_end sim ~run
          ~setup_times:(List.map (fun (_, h) -> h.cpu) setups),
        [] )
  in
  let checks =
    o.checks
    @ [
        ( "setup.checks",
          List.for_all
            (fun ((s : Workloads.outcome), _) -> List.for_all snd s.checks)
            setups );
        ("ops.attempted_equals_configured", sim.attempted = ops);
        ( "metrics.finite",
          List.for_all
            (fun (x : Layers.metric) -> Float.is_finite x.value)
            metrics );
      ]
    @ trace_checks
  in
  let correct = List.for_all snd checks in
  Printf.printf
    "simulated: goodput %.1f ops/s, mean %.3f us, p50 %.3f us, p99 %.3f us, \
     p99.9 %.3f us (%d samples beyond), slowest-1%% mean %.3f us, rss %.3f \
     MB, %d attempted, %d failed\n"
    sim.goodput sim.mean_us sim.p50_us sim.p99_us sim.p999_us sim.beyond_p999
    sim.tail_us sim.rss_mb sim.attempted sim.failed;
  List.iter
    (fun (x : Layers.metric) ->
      Printf.printf "  %-44s %18.6g %-10s n=%d\n" x.name x.value x.unit
        x.samples)
    metrics;
  List.iter
    (fun (k, ok) ->
      Printf.printf "  check %-36s %s\n" k (if ok then "ok" else "FAILED"))
    checks;
  Option.iter
    (fun path ->
      write_detail path ~args ~name:w.name ~ops ~sim ~metrics ~checks)
    args.json;
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int sim.attempted);
         ("failed", string_of_int sim.failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (x : Layers.metric) -> (x.name, metric_json x))
                metrics) );
       ]);
  if correct then 0 else 1

(* Every workload, each in a fresh process so that host memory and
   set-up time are per workload. Each child's lines pass through except
   its JSON result; the last line combines the results, keyed by
   workload, under totals of the same keys. *)
let run_all args =
  let argv (w : Workloads.t) =
    [
      Sys.executable_name; "--workload"; w.name; "--seed";
      string_of_int args.seed; "--seconds"; string_of_int args.seconds;
      "--trace"; (if args.trace then "1" else "0");
    ]
    @ Option.fold ~none:[]
        ~some:(fun p ->
          [
            "--json";
            Filename.remove_extension p ^ "." ^ w.name ^ Filename.extension p;
          ])
        args.json
  in
  let run (w : Workloads.t) =
    let r, wr = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.of_list (argv w))
        Unix.stdin wr Unix.stderr
    in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr r in
    let lines = String.split_on_char '\n' (In_channel.input_all ic) in
    close_in ic;
    let exited_ok =
      match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false
    in
    (* The child's result line, and its correct, attempted and failed. *)
    match List.rev (List.filter (( <> ) "") lines) with
    | [] -> (w.name, "null", (false, 0, 0))
    | result :: rest ->
        List.iter print_endline (List.rev rest);
        flush stdout;
        ( w.name,
          result,
          Option.value ~default:(false, 0, 0)
            (Scanf.sscanf_opt result
               "{\"correct\": %B, \"attempted\": %d, \"failed\": %d"
               (fun c a f -> (c && exited_ok, a, f))) )
  in
  let results = List.map run Workloads.all in
  let correct = List.for_all (fun (_, _, (c, _, _)) -> c) results in
  let total pick = List.fold_left (fun n (_, _, s) -> n + pick s) 0 results in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (total (fun (_, a, _) -> a)));
         ("failed", string_of_int (total (fun (_, _, f) -> f)));
         ( "workloads",
           json_obj (List.map (fun (name, result, _) -> (name, result)) results)
         );
       ]);
  if correct then 0 else 1

let () =
  let args = parse_args Sys.argv in
  exit
    (match args.workload with
    | None -> run_all args
    | Some name -> (
        match
          List.find_opt (fun (w : Workloads.t) -> w.name = name) Workloads.all
        with
        | Some w -> run_one args w
        | None ->
            bad_args
              (Printf.sprintf "unknown workload %s (have: %s)" name
                 (String.concat ", "
                    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)))))
