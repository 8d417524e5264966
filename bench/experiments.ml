(* The paper's evaluation, experiment by experiment. Each function prints
   a table mirroring the corresponding figure/table of the paper; the
   "paper" column quotes the published result so the shapes can be
   compared directly. See EXPERIMENTS.md for the recorded comparison. *)

open Harness
module Space = Vmem.Space
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types

let quick = ref false

(* Scaled-down workload sizes (paper: 1e7 records / 1e8 operations). *)
let mc_records () = if !quick then 400 else 1_500
let mc_operations () = if !quick then 1_200 else 6_000
let ng_requests_per_conn () = if !quick then 4 else 20

(* {1 E1 — Figure 4: Memcached YCSB throughput} *)

(* One YCSB run against the kvcache server on a fresh world. *)
let ycsb_run ?(base = Workload.Ycsb.default_config) ?(gate_batch_limit = 0)
    ~variant ~workers ~records ~operations ~clients () : mc_run =
  let r =
    Scenario.kvcache
      (Scenario.world ~size_mib:192 ?monitor:(Scenario.monitor_for variant) ())
      { Kvcache.Server.default_config with variant; workers; gate_batch_limit }
      (Ycsb { base with records; operations; clients })
  in
  assert (r.result.failures = 0);
  r

let e1 () =
  section
    "E1 (Fig. 4) Memcached YCSB throughput — 1 KiB values, 95/5 read/update, \
     Zipfian";
  let threads = [ 1; 2; 4; 8 ] in
  let variants =
    [
      ("baseline", Kvcache.Server.Baseline);
      ("tlsf", Kvcache.Server.Tlsf_alloc);
      ("sdrad", Kvcache.Server.Sdrad);
    ]
  in
  let results =
    List.map
      (fun w ->
        ( w,
          List.map
            (fun (name, variant) ->
              let r =
                ycsb_run ~variant ~workers:w ~records:(mc_records ())
                  ~operations:(mc_operations ()) ~clients:16 ()
              in
              (name, r))
            variants ))
      threads
  in
  let phase_rows select phase_name =
    List.map
      (fun (w, rs) ->
        let v name = select (List.assoc name rs) in
        let base = v "baseline" in
        [
          Printf.sprintf "%s/%d thr" phase_name w;
          Stats.Table.fmt_si base;
          Printf.sprintf "%s (%s)" (Stats.Table.fmt_si (v "tlsf")) (pct base (v "tlsf"));
          Printf.sprintf "%s (%s)" (Stats.Table.fmt_si (v "sdrad")) (pct base (v "sdrad"));
        ])
      results
  in
  table
    ~header:[ "phase/threads"; "baseline op/s"; "tlsf op/s"; "sdrad op/s" ]
    (phase_rows load_tput "load" @ phase_rows run_tput "run");
  List.iter
    (fun (w, rs) ->
      Printf.printf "worker utilization @%d thr: baseline %.0f%%, sdrad %.0f%%\n" w
        (100.0 *. utilization (List.assoc "baseline" rs))
        (100.0 *. utilization (List.assoc "sdrad" rs)))
    results;
  print_endline
    "paper: tlsf < 1% everywhere; sdrad worst case -7.0/-7.1% (1 thr), \
     -4.5/-5.5% (2 thr), -2.9/-4.1% (4 thr), < -4.1% (8 thr, unsaturated)"

(* {1 E2 — §V-A: Memcached rewind latency vs restart} *)

let attack_memcached_once net =
  let evil = Netsim.connect net ~port:11211 in
  Netsim.send evil
    (Kvcache.Proto.fmt_set_lying ~key:"boom" ~flags:0 ~declared:(-1)
       ~value:(String.make 900 'x'));
  ignore (Netsim.recv evil)

let measure_memcached_rewinds ~attacks =
  let w = Scenario.world ~size_mib:192 ~monitor:Api.create () in
  let cfg =
    { Kvcache.Server.default_config with variant = Kvcache.Server.Sdrad;
      vulnerable = true; workers = 2 }
  in
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           let c = Netsim.connect w.net ~port:11211 in
           Netsim.send c
             (Kvcache.Proto.fmt_set ~key:"canary" ~flags:0 ~value:"alive");
           ignore (Netsim.recv c);
           for _ = 1 to attacks do
             attack_memcached_once w.net;
             (* Service must still answer between attacks. *)
             Netsim.send c (Kvcache.Proto.fmt_get "canary");
             assert (Netsim.recv c <> None)
           done;
           Netsim.close c))
  in
  assert (not (Kvcache.Server.crashed s));
  assert (Kvcache.Server.rewinds s = attacks);
  (Kvcache.Server.rewind_latencies s, Kvcache.Server.store s)

let e2 () =
  section "E2 (§V-A) Memcached recovery latency: rewind vs restart";
  let latencies, _ = measure_memcached_rewinds ~attacks:20 in
  let s = Stats.summarize (List.map us_of latencies) in
  let restart_us = us_of (Checkpoint.restart_cycles (Space.create ~size_mib:1 ()) ~reload_bytes:0) in
  let gib = 1024 * 1024 * 1024 in
  let reload_10g_us =
    us_of (Checkpoint.restart_cycles (Space.create ~size_mib:1 ()) ~reload_bytes:(10 * gib))
  in
  table
    ~header:[ "recovery mechanism"; "latency"; "paper" ]
    [
      [
        "SDRaD abnormal exit (measured)";
        Printf.sprintf "%.1f us (sd %.1f, n=%d)" s.Stats.mean s.Stats.stddev s.Stats.n;
        "3.5 us (sd 0.9)";
      ];
      [
        "process restart (model)";
        Printf.sprintf "%.0f us" restart_us;
        "~0.4 s for the container";
      ];
      [
        "restart + reload 10 GiB (model)";
        Printf.sprintf "%.0f s" (reload_10g_us /. 1e6);
        "~2 min";
      ];
    ]

(* {1 E3 — Figure 5: NGINX throughput vs response size} *)

(* One ApacheBench-style run against the httpd server on a fresh world;
   the file is written from the harness thread. *)
let ab_run ~variant ~workers ~file_size ~connections ~requests_per_conn =
  let w =
    Scenario.world ~size_mib:192 ?monitor:(Scenario.monitor_for variant) ()
  in
  let r =
    Scenario.httpd w
      ~files:(fun () -> make_fs w.space [ file_size ])
      { Httpd.Server.default_config with variant; workers }
      (Http_load
         {
           Workload.Http_load.default_config with
           connections;
           requests_per_conn;
           path = Printf.sprintf "/f%d.bin" file_size;
         })
  in
  assert (r.result.failures = 0);
  r

let e3 () =
  section "E3 (Fig. 5) NGINX throughput, 1 worker, 75 keep-alive connections";
  let sizes = [ 0; 1024; 4096; 16384; 65536; 131072 ] in
  let variants =
    [
      ("baseline", Httpd.Server.Baseline);
      ("tlsf", Httpd.Server.Tlsf_alloc);
      ("sdrad", Httpd.Server.Sdrad);
    ]
  in
  let rows =
    List.map
      (fun size ->
        let v =
          List.map
            (fun (name, variant) ->
              let r =
                ab_run ~variant ~workers:1 ~file_size:size ~connections:75
                  ~requests_per_conn:(ng_requests_per_conn ())
              in
              (name, req_tput r))
            variants
        in
        let base = List.assoc "baseline" v in
        [
          (if size = 0 then "0" else Printf.sprintf "%dKiB" (size / 1024));
          Stats.Table.fmt_si base;
          Printf.sprintf "%s (%s)" (Stats.Table.fmt_si (List.assoc "tlsf" v))
            (pct base (List.assoc "tlsf" v));
          Printf.sprintf "%s (%s)" (Stats.Table.fmt_si (List.assoc "sdrad" v))
            (pct base (List.assoc "sdrad" v));
        ])
      sizes
  in
  table ~header:[ "file size"; "baseline req/s"; "tlsf req/s"; "sdrad req/s" ] rows;
  print_endline
    "paper: sdrad overhead between -6.5% (1 KiB) and -1.6% (128 KiB); \
     independent of worker count"

(* {1 E4 — §V-B: NGINX rewind latency vs worker restart} *)

(* The file is written before the run starts. *)
let nginx_attack_run ~variant ~attacks =
  let w =
    Scenario.world ~size_mib:192 ?monitor:(Scenario.monitor_for variant) ()
  in
  let cfg =
    { Httpd.Server.default_config with variant; vulnerable = true; workers = 1 }
  in
  let fs = make_fs w.space [ 1024 ] in
  (Scenario.httpd w ~files:(Fun.const fs) cfg
     (Script
        (fun _ ->
          for _ = 1 to attacks do
            let evil = Netsim.connect w.net ~port:8080 in
            Netsim.send evil (Workload.Http_load.request ~path:"/a/../../etc");
            ignore (Netsim.recv evil);
            (* Wait for recovery, then verify the service answers. *)
            let rec probe tries =
              if tries = 0 then failwith "service did not recover";
              Sched.sleep 3.0e6;
              let c = Netsim.connect w.net ~port:8080 in
              Netsim.send c (Workload.Http_load.request ~path:"/f1024.bin");
              let r = Netsim.recv c in
              Netsim.close c;
              match r with
              | Some reply when Workload.Http_load.is_200 reply -> ()
              | _ -> probe (tries - 1)
            in
            probe 10
          done)))
    .server

let e4 () =
  section "E4 (§V-B) NGINX recovery latency: rewind vs worker restart";
  let sdrad_srv = nginx_attack_run ~variant:Httpd.Server.Sdrad ~attacks:20 in
  let base_srv = nginx_attack_run ~variant:Httpd.Server.Baseline ~attacks:20 in
  let rl = Stats.summarize (List.map us_of (Httpd.Server.rewind_latencies sdrad_srv)) in
  let wr = Stats.summarize (List.map us_of (Httpd.Server.restart_latencies base_srv)) in
  table
    ~header:[ "recovery mechanism"; "latency (measured)"; "paper" ]
    [
      [
        "SDRaD abnormal exit";
        Printf.sprintf "%.1f us (sd %.1f, n=%d)" rl.Stats.mean rl.Stats.stddev rl.Stats.n;
        "3.4 us (sd 0.67)";
      ];
      [
        "worker restart by master";
        Printf.sprintf "%.0f us (sd %.0f, n=%d)" wr.Stats.mean wr.Stats.stddev wr.Stats.n;
        "996 us (sd 44)";
      ];
    ];
  Printf.printf
    "connections lost per fault: sdrad %d/20 attacks (attacker only), baseline: \
     all of the worker's connections\n"
    (Httpd.Server.dropped_connections sdrad_srv)

(* {1 E5 — §V-C: OpenSSL speed, aes-256-gcm} *)

let speed_sizes = [ 16; 64; 256; 1024; 4096; 16384; 32768; 65536 ]

let speed_iterations size =
  let budget = if !quick then 131_072 else 786_432 in
  max 8 (min 400 (budget / max 16 size))

let run_speed () =
  let space = Space.create ~size_mib:192 () in
  Sched.main (fun _ ->
      let sd = Api.create space in
      let modes =
        [
          Workload.Speed.Native;
          Workload.Speed.Isolated Crypto.Evp_sdrad.Copy_in_out;
          Workload.Speed.Isolated Crypto.Evp_sdrad.Read_parent;
          Workload.Speed.Isolated Crypto.Evp_sdrad.Shared_buffers;
        ]
      in
      List.map
        (fun size ->
          ( size,
            List.map
              (fun mode ->
                Workload.Speed.measure space ~sdrad:sd mode ~size
                  ~iterations:(speed_iterations size))
              modes ))
        speed_sizes)

let e5_data = ref None

let speed_data () =
  match !e5_data with
  | Some d -> d
  | None ->
      let d = run_speed () in
      e5_data := Some d;
      d

let e5 () =
  section "E5 (§V-C) OpenSSL speed: aes-256-gcm via EVP_EncryptUpdate";
  let data = speed_data () in
  let rows =
    List.map
      (fun (size, rows) ->
        let find m =
          List.find (fun r -> r.Workload.Speed.mode = m) rows
        in
        let native = (find Workload.Speed.Native).Workload.Speed.mb_per_sec in
        let cell m =
          let r = find m in
          Printf.sprintf "%.0f (%s)" r.Workload.Speed.mb_per_sec
            (pct native r.Workload.Speed.mb_per_sec)
        in
        [
          (if size < 1024 then Printf.sprintf "%dB" size
           else Printf.sprintf "%dKiB" (size / 1024));
          Printf.sprintf "%.0f" native;
          cell (Workload.Speed.Isolated Crypto.Evp_sdrad.Copy_in_out);
          cell (Workload.Speed.Isolated Crypto.Evp_sdrad.Read_parent);
          cell (Workload.Speed.Isolated Crypto.Evp_sdrad.Shared_buffers);
        ])
      data
  in
  table
    ~header:
      [ "input"; "native MB/s"; "copy-in-out MB/s"; "read-parent MB/s"; "shared MB/s" ]
    rows;
  print_endline
    "paper: 4%-80% overhead for small inputs, < 2% at >= 32 KiB; the \
     parent-managed shared domain (choice 3) performs best"

(* {1 E6 — memory overhead (max RSS)} *)

let e6 () =
  section "E6 (§V-A/§V-B) memory overhead: max RSS, SDRaD vs baseline";
  let mc variant =
    max_rss
      (ycsb_run ~variant ~workers:4 ~records:(mc_records ())
         ~operations:(mc_operations () / 2) ~clients:8 ())
  in
  let mc_base = mc Kvcache.Server.Baseline in
  let mc_sdrad = mc Kvcache.Server.Sdrad in
  let ng variant =
    max_rss
      (ab_run ~variant ~workers:4 ~file_size:131072 ~connections:32
         ~requests_per_conn:(ng_requests_per_conn ()))
  in
  let ng_base = ng Httpd.Server.Baseline in
  let ng_sdrad = ng Httpd.Server.Sdrad in
  let row name base sdrad paper =
    [
      name;
      Printf.sprintf "%.1f MiB" (float_of_int base /. 1048576.0);
      Printf.sprintf "%.1f MiB" (float_of_int sdrad /. 1048576.0);
      pct (float_of_int base) (float_of_int sdrad);
      paper;
    ]
  in
  table
    ~header:[ "application"; "baseline RSS"; "sdrad RSS"; "increase"; "paper" ]
    [
      row "memcached (after YCSB load)" mc_base mc_sdrad "+0.4%";
      row "nginx (128 KiB bench)" ng_base ng_sdrad "+3.06%";
    ]

(* {1 E7 — §V-B profiling: domain-switch cost anatomy} *)

let e7 () =
  section "E7 (§V-B) domain switch anatomy: share of the PKRU write";
  let a = Scenario.switch_anatomy () in
  let share c = Printf.sprintf "%.1f%%" (100.0 *. c /. a.pair) in
  table
    ~header:[ "span"; "cycles/pair"; "share" ]
    (List.map (fun (name, c) -> [ name; Printf.sprintf "%.0f" c; share c ])
       a.rows
    @ [ [ "enter+exit pair"; Printf.sprintf "%.0f" a.pair; share a.pair ] ]);
  let pkru = List.assoc "switch.pkru_write" a.rows /. a.pair in
  Printf.printf
    "%.0f WRPKRU writes and %.0f elided per pair; paper: 30-50%% of domain \
     switching cost is the PKRU write\n"
    a.writes a.elided;
  if pkru < 0.30 || pkru > 0.50 then begin
    Printf.eprintf
      "E7 FAIL: PKRU-write share %.1f%% is outside the paper's 30-50%% band\n"
      (100.0 *. pkru);
    exit 1
  end

(* {1 E8 — the three CVE case studies} *)

let e8 () =
  section "E8 (§V) CVE case studies: unprotected vs SDRaD";
  (* memcached / CVE-2011-4971 *)
  let mc_unprotected =
    let w = Scenario.world ~size_mib:192 () in
    let cfg =
      { Kvcache.Server.default_config with variant = Kvcache.Server.Baseline;
        vulnerable = true; workers = 2 }
    in
    Kvcache.Server.crashed
      (Scenario.kvcache w cfg (Script (fun _ -> attack_memcached_once w.net)))
        .server
  in
  let mc_lat, _ = measure_memcached_rewinds ~attacks:3 in
  (* nginx / CVE-2009-2629 *)
  let ng_base = nginx_attack_run ~variant:Httpd.Server.Baseline ~attacks:3 in
  let ng_sdrad = nginx_attack_run ~variant:Httpd.Server.Sdrad ~attacks:3 in
  (* openssl / CVE-2022-3786 *)
  let ssl_rewinds =
    let w = Scenario.world ~size_mib:192 ~monitor:Api.create () in
    let cfg =
      { Httpd.Server.default_config with variant = Httpd.Server.Sdrad;
        verify_certs = true; workers = 1 }
    in
    let r =
      Scenario.httpd w
        ~files:(fun () -> make_fs w.space [ 1024 ])
        cfg
        (Script
           (fun _ ->
             let evil = Netsim.connect w.net ~port:8080 in
             let cert =
               Crypto.X509.make_cert ~cn:"evil"
                 ~altname:Crypto.X509.malicious_altname
             in
             Netsim.send evil
               (Workload.Http_load.request_with_headers ~path:"/f1024.bin"
                  [ ("X-Client-Cert", cert) ]);
             ignore (Netsim.recv evil);
             let c = Netsim.connect w.net ~port:8080 in
             Netsim.send c (Workload.Http_load.request ~path:"/f1024.bin");
             assert (Netsim.recv c <> None);
             Netsim.close c))
    in
    Httpd.Server.rewinds r.server
  in
  let mean l = (Stats.summarize (List.map us_of l)).Stats.mean in
  table
    ~header:[ "CVE"; "detection"; "unprotected outcome"; "SDRaD outcome" ]
    [
      [
        "2011-4971 (memcached heap overflow)";
        "PKU domain violation";
        (if mc_unprotected then "whole cache process down" else "BUG");
        Printf.sprintf "rewind, 1 conn closed (%.1f us)" (mean mc_lat);
      ];
      [
        "2009-2629 (nginx URI underflow)";
        "PKU domain violation";
        Printf.sprintf "worker crash, all conns lost (restart %.0f us)"
          (mean (Httpd.Server.restart_latencies ng_base));
        Printf.sprintf "rewind, 1 conn closed (%.1f us)"
          (mean (Httpd.Server.rewind_latencies ng_sdrad));
      ];
      [
        "2022-3786 (openssl punycode overflow)";
        "stack canary";
        "worker crash (DoS)";
        Printf.sprintf "rewind + domain re-init (%d rewind)" ssl_rewinds;
      ];
    ]

(* {1 E9 — Table I API micro-costs (virtual cycles)} *)

let e9 () =
  section "E9 (Table I) SDRaD API call costs, virtual time";
  let space = Space.create ~size_mib:192 () in
  let rows =
    Sched.main (fun _ ->
        let sd = Api.create space in
        let t0 () = Sched.now () in
        let timed f =
          let a = t0 () in
          f ();
          Sched.now () -. a
        in
        (* Warm up one full cycle so stack/heap mappings exist. *)
        Api.run sd ~udi:5 ~on_rewind:(fun _ -> ()) (fun () ->
            ignore (Api.malloc sd ~udi:5 64));
        let init_cost = ref 0.0
        and enter_cost = ref 0.0
        and exit_cost = ref 0.0
        and malloc_cost = ref 0.0
        and free_cost = ref 0.0
        and deinit_cost = ref 0.0
        and destroy_cost = ref 0.0 in
        let reps = 50 in
        for _ = 1 to reps do
          let t_run = t0 () in
          Api.run sd ~udi:5
            ~on_rewind:(fun _ -> ())
            (fun () ->
              init_cost := !init_cost +. (Sched.now () -. t_run);
              enter_cost := !enter_cost +. timed (fun () -> Api.enter sd 5);
              let p = ref 0 in
              malloc_cost := !malloc_cost +. timed (fun () -> p := Api.malloc sd ~udi:5 256);
              free_cost := !free_cost +. timed (fun () -> Api.free sd ~udi:5 !p);
              exit_cost := !exit_cost +. timed (fun () -> Api.exit_domain sd);
              deinit_cost := !deinit_cost +. timed (fun () -> Api.deinit sd 5))
        done;
        Api.run sd ~udi:5 ~on_rewind:(fun _ -> ()) (fun () ->
            destroy_cost := timed (fun () -> Api.destroy sd 5 ~heap:`Discard));
        let dd = timed (fun () -> Api.init_data sd ~udi:9 ()) in
        let dp = timed (fun () -> Api.dprotect sd ~udi:5 ~tddi:9 Vmem.Prot.read) in
        let per r = !r /. float_of_int reps in
        [
          ("sdrad_init (re-arm, warm)", per init_cost);
          ("sdrad_enter", per enter_cost);
          ("sdrad_exit", per exit_cost);
          ("sdrad_malloc (256 B)", per malloc_cost);
          ("sdrad_free", per free_cost);
          ("sdrad_deinit", per deinit_cost);
          ("sdrad_destroy", !destroy_cost);
          ("sdrad_init (data domain)", dd);
          ("sdrad_dprotect", dp);
        ])
  in
  table
    ~header:[ "API call"; "cycles"; "time" ]
    (List.map
       (fun (name, c) ->
         [ name; Printf.sprintf "%.0f" c; Printf.sprintf "%.2f us" (us_of c) ])
       rows)


(* {1 E1b — YCSB workload mixes with tail latency} *)

let e1b () =
  section
    "E1b (extension) YCSB workload mixes A-D: throughput and tail latency";
  let mixes =
    [
      ("A (50/50)", Workload.Ycsb.workload_a);
      ("B (95/5)", Workload.Ycsb.workload_b);
      ("C (100% read)", Workload.Ycsb.workload_c);
      ("D (95/5 read-latest)", Workload.Ycsb.workload_d);
    ]
  in
  let rows =
    List.map
      (fun (name, base) ->
        let run variant =
          ycsb_run ~base ~variant ~workers:4 ~records:(mc_records ())
            ~operations:(mc_operations ()) ~clients:16 ()
        in
        let b = run Kvcache.Server.Baseline in
        let s = run Kvcache.Server.Sdrad in
        let p99 (r : mc_run) =
          (Stats.summarize (List.map us_of r.result.run_latencies)).Stats.p99
        in
        [
          name;
          Stats.Table.fmt_si (run_tput b);
          Printf.sprintf "%s (%s)" (Stats.Table.fmt_si (run_tput s))
            (pct (run_tput b) (run_tput s));
          Printf.sprintf "%.1f us" (p99 b);
          Printf.sprintf "%.1f us" (p99 s);
        ])
      mixes
  in
  table
    ~header:[ "workload"; "baseline op/s"; "sdrad op/s"; "baseline p99"; "sdrad p99" ]
    rows;
  print_endline
    "write-heavier mixes pay more (deep copies + deferred commit); pure \
     reads pay only the switch + staging copy"

(* {1 E3b — NGINX worker scaling (§V-B claim)} *)

let e3b () =
  section "E3b (§V-B) NGINX: SDRaD overhead is independent of worker count";
  let rows =
    List.map
      (fun workers ->
        let run variant =
          req_tput
            (ab_run ~variant ~workers ~file_size:1024 ~connections:75
               ~requests_per_conn:(ng_requests_per_conn ()))
        in
        let b = run Httpd.Server.Baseline in
        let s = run Httpd.Server.Sdrad in
        [
          string_of_int workers;
          Stats.Table.fmt_si b;
          Printf.sprintf "%s (%s)" (Stats.Table.fmt_si s) (pct b s);
        ])
      [ 1; 2; 4 ]
  in
  table ~header:[ "workers"; "baseline req/s"; "sdrad req/s" ] rows;
  print_endline
    "paper: \"We scaled the number of workers ... the overhead is \
     independent of that number\""

(* {1 A4 — ablation: restart-after-N-rewinds policy} *)

let a4 () =
  section "A4 (ablation, §VI) rewind-limit policy under a repeated attack";
  let run limit =
    let w = Scenario.world ~size_mib:192 ~monitor:Api.create () in
    let cfg =
      { Httpd.Server.default_config with variant = Httpd.Server.Sdrad;
        vulnerable = true; workers = 1; rewind_limit = limit }
    in
    (Scenario.httpd w
       ~files:(fun () -> make_fs w.space [ 1024 ])
       cfg
       (Script
          (fun _ ->
            for _ = 1 to 12 do
              let evil = Netsim.connect w.net ~port:8080 in
              Netsim.send evil (Workload.Http_load.request ~path:"/a/../../etc");
              ignore (Netsim.recv evil);
              Sched.sleep 4.0e6
            done)))
      .server
  in
  let rows =
    List.map
      (fun (label, limit) ->
        let s = run limit in
        [
          label;
          string_of_int (Httpd.Server.rewinds s);
          string_of_int (Httpd.Server.proactive_restarts s);
        ])
      [ ("no limit", None); ("limit 4", Some 4); ("limit 2", Some 2) ]
  in
  table ~header:[ "policy"; "rewinds absorbed"; "proactive restarts" ] rows;
  print_endline
    "a rewind limit bounds how long an attacker can probe one address-space \
     layout (§VI's defense against rewind-assisted side channels)"


(* {1 A5 — baseline: N-variant execution (§VII)} *)

let a5 () =
  section "A5 (§VII) SDRaD vs N-variant execution: cost of redundancy";
  let ycsb_against ~port ~on_done sched net =
    Workload.Ycsb.launch sched net
      { Workload.Ycsb.default_config with records = mc_records ();
        operations = mc_operations (); clients = 16; port }
      ~on_done ()
  in
  (* The replica set is not one of the builder's servers: its world is
     built here, on the same harness thread. *)
  let run_nvx replicas =
    let w = Scenario.world ~size_mib:256 () in
    let nx, results =
      Sched.main ~sched:w.sched (fun sched ->
          let nx =
            Nvx.start sched w.space w.net
              { Nvx.default_config with replicas; workers_per_replica = 4 }
          in
          ( nx,
            ycsb_against ~port:11300 ~on_done:(fun () -> Nvx.stop nx) sched
              w.net ))
    in
    let r = results () in
    assert (r.Workload.Ycsb.failures = 0);
    let total_ops = r.Workload.Ycsb.load_ops + r.Workload.Ycsb.run_ops in
    ( Stats.ops_per_sec cost ~ops:r.Workload.Ycsb.run_ops
        ~cycles:r.Workload.Ycsb.run_cycles,
      Nvx.busy_cycles nx /. float_of_int total_ops )
  in
  let run_single variant =
    let r =
      ycsb_run ~variant ~workers:4 ~records:(mc_records ())
        ~operations:(mc_operations ()) ~clients:16 ()
    in
    ( run_tput r,
      Kvcache.Server.worker_busy_cycles r.server
      /. float_of_int (mc_records () + mc_operations ()) )
  in
  let single, single_cpu = run_single Kvcache.Server.Baseline in
  let sdrad, sdrad_cpu = run_single Kvcache.Server.Sdrad in
  let nvx2, nvx2_cpu = run_nvx 2 in
  let nvx3, nvx3_cpu = run_nvx 3 in
  let cpu c = Printf.sprintf "%.2f us (%.1fx)" (us_of c) (c /. single_cpu) in
  table
    ~header:[ "configuration"; "run-phase op/s"; "vs baseline"; "server CPU/op" ]
    [
      [ "baseline (1 copy)"; Stats.Table.fmt_si single; "-"; cpu single_cpu ];
      [ "SDRaD"; Stats.Table.fmt_si sdrad; pct single sdrad; cpu sdrad_cpu ];
      [ "NVX, 2 variants"; Stats.Table.fmt_si nvx2; pct single nvx2; cpu nvx2_cpu ];
      [ "NVX, 3 variants"; Stats.Table.fmt_si nvx3; pct single nvx3; cpu nvx3_cpu ];
    ];
  print_endline
    "the paper's §VII point: replicating computation and I/O per request \
     costs far more than compartmentalized rewinding — and a divergence \
     still fail-stops the whole replica set (see the chaos tests)"


(* {1 A6 — ablation: protection-key virtualization (libmpk fallback)} *)

let a6 () =
  section
    "A6 (ablation, §IV-B) key virtualization: cost of exceeding 15 hardware \
     keys";
  let run ndomains =
    let space = Space.create ~size_mib:128 () in
    Sched.main (fun _ ->
      let sd = Api.create space in
      let event udi =
        Api.run sd ~udi
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd udi;
            ignore (Api.malloc sd ~udi 256);
            Api.exit_domain sd;
            Api.deinit sd udi)
      in
      (* Warm-up: create every persistent domain once. *)
      for udi = 1 to ndomains do
        event udi
      done;
      let rounds = 40 in
      let t0 = Sched.now () in
      for _ = 1 to rounds do
        for udi = 1 to ndomains do
          event udi
        done
      done;
      let per_event = (Sched.now () -. t0) /. float_of_int (rounds * ndomains) in
      let evictions =
        match
          Telemetry.Metrics.sample (Api.metrics sd)
            "sdrad_key_evictions_total"
        with
        | Some v -> int_of_float v
        | None -> 0
      in
      (per_event, evictions))
  in
  let rows =
    List.map
      (fun n ->
        let per_event, evictions = run n in
        [
          string_of_int n;
          Printf.sprintf "%.0f" per_event;
          Printf.sprintf "%.2f us" (us_of per_event);
          string_of_int evictions;
        ])
      [ 8; 13; 16; 24; 32 ]
  in
  table
    ~header:[ "persistent domains"; "cycles/event"; "time/event"; "key evictions" ]
    rows;
  print_endline
    "within the 13 usable keys, events cost a few hundred cycles; beyond \
     that every re-init parks an LRU domain with an mprotect walk — the \
     slow fallback the paper attributes to libmpk-style virtualization"

(* {1 A1 — ablation: data-passing design choices} *)

let a1 () =
  section "A1 (ablation, §IV-A) data-passing design choices at 1 KiB / 32 KiB";
  let data = speed_data () in
  let pick size m =
    let rows = List.assoc size data in
    (List.find (fun r -> r.Workload.Speed.mode = m) rows).Workload.Speed.mb_per_sec
  in
  let row size =
    let native = pick size Workload.Speed.Native in
    [
      Printf.sprintf "%d B" size;
      Printf.sprintf "%.0f MB/s" native;
      pct native (pick size (Workload.Speed.Isolated Crypto.Evp_sdrad.Copy_in_out));
      pct native (pick size (Workload.Speed.Isolated Crypto.Evp_sdrad.Read_parent));
      pct native (pick size (Workload.Speed.Isolated Crypto.Evp_sdrad.Shared_buffers));
    ]
  in
  table
    ~header:[ "input"; "native"; "copy-in-out"; "read-parent"; "shared" ]
    [ row 1024; row 32768 ];
  print_endline "expected ordering: shared >= read-parent >= copy-in-out"

(* {1 A2 — ablation: stack-area reuse (§IV-C)} *)

let a2 () =
  section "A2 (ablation, §IV-C) stack-area reuse across domain lifecycles";
  let run reuse =
    let space = Space.create ~size_mib:64 () in
    Sched.main (fun _ ->
      let sd = Api.create ~stack_reuse:reuse space in
      (* Warm-up. *)
      Api.run sd ~udi:3 ~on_rewind:(fun _ -> ()) (fun () ->
          Api.destroy sd 3 ~heap:`Discard);
      let t0 = Sched.now () in
      for _ = 1 to 100 do
        Api.run sd ~udi:3
          ~on_rewind:(fun _ -> ())
          (fun () -> Api.destroy sd 3 ~heap:`Discard)
      done;
      ((Sched.now () -. t0) /. 100.0, Space.mapped_bytes space))
  in
  let with_reuse, mapped_reuse = run true in
  let without, mapped_no = run false in
  table
    ~header:[ "configuration"; "cycles/lifecycle"; "mapped bytes after" ]
    [
      [ "stack reuse ON (default)"; Printf.sprintf "%.0f" with_reuse;
        Stats.Table.fmt_si (float_of_int mapped_reuse) ];
      [ "stack reuse OFF"; Printf.sprintf "%.0f" without;
        Stats.Table.fmt_si (float_of_int mapped_no) ];
      [ "speedup"; Printf.sprintf "%.2fx" (without /. with_reuse); "-" ];
    ]

(* {1 A3 — ablation: rewind vs checkpoint & restore} *)

let a3 () =
  section "A3 (ablation, §VII) recovery cost vs resident state size";
  (* A representative rewind latency from the Memcached scenario. *)
  let rewind_us =
    let latencies, _ = measure_memcached_rewinds ~attacks:5 in
    (Stats.summarize (List.map us_of latencies)).Stats.mean
  in
  let rows =
    List.map
      (fun mib ->
        let space = Space.create ~size_mib:(mib + 32) () in
        Sched.main (fun _ ->
            let region =
              Space.mmap space ~len:(mib * 1024 * 1024) ~prot:Vmem.Prot.rw ~pkey:0
            in
            (* Touch everything so the state is resident. *)
            let page = 4096 in
            for p = 0 to (mib * 1024 * 1024 / page) - 1 do
              Space.store8 space (region + (p * page)) 1
            done;
            let snap = Checkpoint.take space in
            [
              Printf.sprintf "%d MiB" mib;
              Printf.sprintf "%.1f us" rewind_us;
              Printf.sprintf "%.0f us" (us_of (Checkpoint.take_cycles space snap));
              Printf.sprintf "%.0f us" (us_of (Checkpoint.restore_cycles space snap));
              Printf.sprintf "%.0f us"
                (us_of (Checkpoint.restart_cycles space ~reload_bytes:(mib * 1024 * 1024)));
            ]))
      [ 1; 4; 16; 64 ]
  in
  table
    ~header:
      [ "resident state"; "sdrad rewind"; "checkpoint dump"; "checkpoint restore";
        "restart+reload" ]
    rows;
  print_endline
    "rewind cost is independent of state size; checkpoint/restore and reload \
     scale linearly — the paper's motivation for compartmentalization-based \
     recovery"

(* {1 R1 — supervision: the DoS-amplification cap (§VI)} *)

(* "Unlimited Lives" warns that unlimited rollback is a DoS amplifier: a
   looping attacker makes the victim pay a full rewind per probe, forever.
   The supervisor's rewind budget converts that O(attacks) rewind bill
   into O(budget): after the budget the attacker's domain is quarantined
   and further probes are answered with a cheap busy reply. *)
let run_dos_amplifier ~supervised ~attacks =
  let cfg =
    {
      Kvcache.Server.default_config with
      variant = Kvcache.Server.Sdrad;
      vulnerable = true;
      workers = 2;
      per_client_domains = true;
    }
  in
  let policy =
    {
      Resilience.Supervisor.default_policy with
      budget_max = 3;
      budget_window = 1.0e9;
      cooldown = 2.0e6;
    }
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(fun space -> Api.create space)
      ?supervisor:
        (if supervised then Some (Resilience.Supervisor.attach ~policy)
         else None)
      ()
  in
  let benign_ok = ref 0 in
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           let good =
             Sched.spawn w.sched ~name:"good" (fun () ->
                 let c = Netsim.connect w.net ~src:1 ~port:11211 in
                 for i = 1 to 40 do
                   Sched.sleep 6_000.0;
                   Netsim.send c
                     (Kvcache.Proto.fmt_set ~key:(Printf.sprintf "k%d" i)
                        ~flags:0 ~value:"v");
                   match Netsim.recv c with
                   | Some r when r = Kvcache.Proto.stored -> incr benign_ok
                   | _ -> ()
                 done;
                 Netsim.close c)
           in
           let evil =
             Sched.spawn w.sched ~name:"evil" (fun () ->
                 for _ = 1 to attacks do
                   Sched.sleep 10_000.0;
                   let c = Netsim.connect w.net ~src:777 ~port:11211 in
                   Netsim.send c
                     (Kvcache.Proto.fmt_set_lying ~key:"pwn" ~flags:0
                        ~declared:(-1) ~value:(String.make 300 'X'));
                   ignore (Netsim.recv c);
                   Netsim.close c
                 done)
           in
           Sched.join good;
           Sched.join evil))
  in
  let rewind_cycles =
    List.fold_left ( +. ) 0.0 (Kvcache.Server.rewind_latencies s)
  in
  (Kvcache.Server.rewinds s, rewind_cycles,
   Kvcache.Server.busy_rejections s, !benign_ok)

let r1 () =
  section "R1 (supervision, §VI) rewind budget caps the DoS amplifier";
  let attacks = if !quick then 8 else 25 in
  let row name supervised =
    let rewinds, cycles, busy, benign = run_dos_amplifier ~supervised ~attacks in
    [
      name;
      string_of_int attacks;
      string_of_int rewinds;
      Printf.sprintf "%.1f us" (us_of cycles);
      string_of_int busy;
      string_of_int benign;
    ]
  in
  table
    ~header:
      [ "server"; "attacks"; "rewinds"; "rewind time"; "busy replies";
        "benign ok" ]
    [ row "unsupervised" false; row "supervised" true ];
  print_endline
    "unsupervised pays one rewind per attack; supervised pays at most the \
     budget (3) and answers the rest with SERVER_ERROR busy, with no benign \
     losses"

(* {1 R4 — end-to-end recovery: goodput and tail latency under faults} *)

(* Retrying YCSB clients carrying idempotency keys run against the sdrad
   kvcache server twice: fault-free, and under a ~1% mixed fault diet
   (network drops plus injected domain corruption that forces rewinds).
   Goodput is acknowledged operations per virtual second; the p99
   client-observed RTT stands in for recovery latency — a faulted
   operation's RTT includes every timeout, backoff, busy reply and
   rewind it rode through. Emits BENCH_r4.json. Fails when any client
   exhausts its options (failures > 0 breaks the acked-exactly-once
   argument) or faulted goodput falls below 0.6x of fault-free. *)
let r4 () =
  section
    "R4 (recovery) — goodput and p99 latency under ~1% faults, retrying \
     clients with idempotency keys";
  let records = mc_records () and operations = mc_operations () in
  let workers = 4 and clients = 8 in
  let retry_policy =
    {
      Resilience.Retry.default_policy with
      attempt_timeout = 150_000.0;
      overall_timeout = 8.0e6;
      backoff_base = 5_000.0;
      backoff_cap = 160_000.0;
    }
  in
  let net_fault_prob = 0.01 and domain_fault_prob = 0.005 in
  let run ~faulty =
    (* Lenient supervision, as in the chaos soak: the injected corruption
       is random noise, so backoff verdicts (busy replies the clients
       retry through) are wanted but outright quarantine is not. *)
    let w =
      Scenario.world ~size_mib:192 ~monitor:Api.create
        ~supervisor:
          (Resilience.Supervisor.attach
             ~policy:
               {
                 Resilience.Supervisor.default_policy with
                 budget_max = 100;
                 backoff_base = 2_000.0;
                 backoff_max = 20_000.0;
               })
        ()
    in
    let faults =
      if faulty then
        Some
          (Resilience.Fault_inject.create ~seed:97
             [
               Resilience.Fault_inject.rule ~prob:domain_fault_prob
                 ~site:"kv.domain" Resilience.Fault_inject.Wild_write;
             ])
      else None
    in
    if faulty then begin
      let rng = Simkern.Rng.create 131 in
      Netsim.set_fault_hook w.net
        (Some
           (fun ~len:_ ->
             if Simkern.Rng.float rng < net_fault_prob then Netsim.Drop
             else Netsim.Deliver))
    end;
    let cfg =
      { Kvcache.Server.default_config with variant = Kvcache.Server.Sdrad; workers }
    in
    let ycfg =
      {
        Workload.Ycsb.default_config with
        records;
        operations;
        clients;
        retry = Some retry_policy;
      }
    in
    let r = Scenario.kvcache ?faults w cfg (Ycsb ycfg) in
    (r.result, r.server)
  in
  let r_ok, s_ok = run ~faulty:false in
  let r_ft, s_ft = run ~faulty:true in
  let goodput r =
    Stats.ops_per_sec cost
      ~ops:(r.Workload.Ycsb.run_ops - r.Workload.Ycsb.failures)
      ~cycles:r.Workload.Ycsb.run_cycles
  in
  let lat r = Stats.summarize (List.map us_of r.Workload.Ycsb.run_latencies) in
  let g_ok = goodput r_ok and g_ft = goodput r_ft in
  let l_ok = lat r_ok and l_ft = lat r_ft in
  let ratio = g_ft /. g_ok in
  let row name r s g (l : Stats.summary) =
    [
      name;
      Stats.Table.fmt_si g;
      Printf.sprintf "%.1f" l.p50;
      Printf.sprintf "%.1f" l.p99;
      string_of_int r.Workload.Ycsb.retries;
      string_of_int (Kvcache.Server.rewinds s);
      string_of_int (Kvcache.Server.replay_hits s);
      string_of_int (Kvcache.Server.shed_count s);
      string_of_int r.Workload.Ycsb.failures;
    ]
  in
  table
    ~header:
      [
        "config"; "goodput ops/s"; "p50 us"; "p99 us"; "retries"; "rewinds";
        "replays"; "shed"; "failures";
      ]
    [
      row "fault-free" r_ok s_ok g_ok l_ok;
      row "~1% faults" r_ft s_ft g_ft l_ft;
    ];
  Printf.printf
    "faulted goodput %.2fx of fault-free; p99 %.1f us -> %.1f us; %d retries \
     rode through %d rewinds with %d journal replays and 0 lost or duplicated \
     acks\n"
    ratio l_ok.p99 l_ft.p99 r_ft.Workload.Ycsb.retries
    (Kvcache.Server.rewinds s_ft)
    (Kvcache.Server.replay_hits s_ft);
  write_json "BENCH_r4.json" ~experiment:"r4"
    [
      ( "workload",
        Obj
          [
            ("server", Str "kvcache"); ("variant", Str "sdrad");
            ("workers", Int workers); ("clients", Int clients);
            ("records", Int records); ("operations", Int operations);
          ] );
      ("net_fault_prob", Fixed (3, net_fault_prob));
      ("domain_fault_prob", Fixed (3, domain_fault_prob));
      ("goodput_fault_free", Fixed (1, g_ok));
      ("goodput_faulted", Fixed (1, g_ft));
      ("goodput_ratio", Fixed (4, ratio));
      ("p50_us_fault_free", Fixed (2, l_ok.p50));
      ("p99_us_fault_free", Fixed (2, l_ok.p99));
      ("p50_us_faulted", Fixed (2, l_ft.p50));
      ("p99_us_faulted", Fixed (2, l_ft.p99));
      ("retries_faulted", Int r_ft.Workload.Ycsb.retries);
      ("rewinds_faulted", Int (Kvcache.Server.rewinds s_ft));
      ("replay_hits_faulted", Int (Kvcache.Server.replay_hits s_ft));
      ("shed_faulted", Int (Kvcache.Server.shed_count s_ft));
      ("failures_fault_free", Int r_ok.Workload.Ycsb.failures);
      ("failures_faulted", Int r_ft.Workload.Ycsb.failures);
    ];
  if r_ok.Workload.Ycsb.failures > 0 || r_ft.Workload.Ycsb.failures > 0 then begin
    Printf.eprintf
      "R4 FAIL: %d fault-free / %d faulted operations ran out of retries — \
       the acked-exactly-once invariant needs every op acknowledged\n"
      r_ok.Workload.Ycsb.failures r_ft.Workload.Ycsb.failures;
    exit 1
  end;
  if ratio < 0.6 then begin
    Printf.eprintf
      "R4 FAIL: faulted goodput is %.2fx of fault-free (floor 0.6x)\n" ratio;
    exit 1
  end

(* {1 R5 — fleet scaling: aggregate goodput and p99 vs shard count} *)

(* An open-loop YCSB fleet (10⁴ logical clients on a pre-scheduled
   arrival grid — no coordinated omission) drives the sharded cluster
   router at a fixed offered load chosen to saturate even the largest
   fleet, so measured goodput is capacity, not demand. The router tier
   scales with the fleet (router workers ∝ shards) so shard capacity is
   what is measured. Retrying clients with idempotency keys ride through
   the busy replies shedding produces, exactly as in R4 but at fleet
   scale. Emits BENCH_r5.json; fails when 4-shard aggregate goodput is
   below 2.8x the 1-shard figure (≥ 0.7x linear scaling). *)
let r5 () =
  section
    "R5 (cluster) — aggregate goodput and p99 vs shard count, open-loop \
     fleet over the consistent-hash router";
  let clients = if !quick then 2_000 else 10_000 in
  let operations = if !quick then 6_000 else 20_000 in
  let records = if !quick then 800 else 2_000 in
  (* Offered load at ~90% of 4-shard capacity (measured ≈ 0.9 acked ops
     per kcycle): the largest fleet carries the load with headroom while
     the smaller ones saturate at their own capacity, so the ratio reads
     as "how much offered load the fleet absorbs before goodput caps".
     Oversaturating every config instead would let retry amplification
     (extra attempts from the very clients being shed) depress the
     largest config the most and understate scaling. *)
  let arrival_interval = 1_250.0 in
  let shard_counts = [ 1; 2; 4 ] in
  let retry_policy =
    {
      Resilience.Retry.default_policy with
      attempt_timeout = 400_000.0;
      overall_timeout = 10.0e6;
      backoff_base = 10_000.0;
      backoff_cap = 320_000.0;
    }
  in
  let run ~shards =
    (* Router workers scale with the fleet (12 per shard) so the shard
       tier — 4 kv workers at 12k proc cycles each — is what saturates:
       12 synchronous forwards in flight per shard keep its queue wait
       (~36k cycles) well under the 200k forward deadline. *)
    let cfg =
      {
        Cluster.Fleet.default_config with
        shards;
        router_workers = 12 * shards;
      }
    in
    let ycfg =
      {
        Workload.Ycsb.default_config with
        records;
        operations;
        clients;
        value_size = 64;
        port = cfg.Cluster.Fleet.router_port;
        retry = Some retry_policy;
        arrival_interval;
        (* Uniform keys: this experiment measures how fleet *capacity*
           scales with shard count. Zipfian skew concentrates the hot
           keys on whichever shard owns them, so the hot shard saturates
           first and aggregate goodput plateaus — a real phenomenon, but
           it measures key-popularity imbalance, not the router/failover
           machinery this bench exists to size. *)
        distribution = Workload.Ycsb.Uniform;
      }
    in
    let r = Scenario.fleet (Scenario.fleet_world ()) cfg (Ycsb ycfg) in
    (r.result, r.server)
  in
  let outcomes = List.map (fun shards -> (shards, run ~shards)) shard_counts in
  let goodput (r : Workload.Ycsb.results) =
    Stats.ops_per_sec cost
      ~ops:(r.Workload.Ycsb.run_ops - r.Workload.Ycsb.failures)
      ~cycles:r.Workload.Ycsb.run_cycles
  in
  let lat (r : Workload.Ycsb.results) =
    Stats.summarize (List.map us_of r.Workload.Ycsb.run_latencies)
  in
  table
    ~header:
      [
        "shards"; "goodput ops/s"; "p50 us"; "p99 us"; "retries"; "routed";
        "shed"; "timeouts"; "failures";
      ]
    (List.map
       (fun (shards, ((r : Workload.Ycsb.results), t)) ->
         let l = lat r in
         [
           string_of_int shards;
           Stats.Table.fmt_si (goodput r);
           Printf.sprintf "%.1f" l.Stats.p50;
           Printf.sprintf "%.1f" l.Stats.p99;
           string_of_int r.Workload.Ycsb.retries;
           string_of_int (Cluster.Fleet.routed t);
           string_of_int (Cluster.Fleet.router_shed t);
           string_of_int (Cluster.Fleet.forward_timeouts t);
           string_of_int r.Workload.Ycsb.failures;
         ])
       outcomes);
  let find n = List.assoc n outcomes in
  let r1_, _ = find 1 and r4_, _ = find 4 in
  let g1 = goodput r1_ and g4 = goodput r4_ in
  let scaling = g4 /. g1 in
  Printf.printf
    "aggregate goodput scales %.2fx from 1 to 4 shards (gate: >= 2.8x); p99 \
     %.1f us -> %.1f us under the same offered load\n"
    scaling (lat r1_).Stats.p99 (lat r4_).Stats.p99;
  let per_shard f = List (List.map (fun (_, (r, _)) -> f r) outcomes) in
  write_json "BENCH_r5.json" ~experiment:"r5"
    [
      ( "workload",
        Obj
          [
            ("server", Str "kvcache-cluster"); ("variant", Str "sdrad");
            ("clients", Int clients); ("records", Int records);
            ("operations", Int operations);
            ("arrival_interval_cycles", Fixed (0, arrival_interval));
          ] );
      ("shards", List (List.map (fun (s, _) -> Int s) outcomes));
      ("goodput_ops_per_sec", per_shard (fun r -> Fixed (1, goodput r)));
      ("p50_us", per_shard (fun r -> Fixed (2, (lat r).Stats.p50)));
      ("p99_us", per_shard (fun r -> Fixed (2, (lat r).Stats.p99)));
      ("retries", per_shard (fun r -> Int r.Workload.Ycsb.retries));
      ("failures", per_shard (fun r -> Int r.Workload.Ycsb.failures));
      ("scaling_1_to_4", Fixed (3, scaling));
      ("scaling_gate", Fixed (1, 2.8));
    ];
  if scaling < 2.8 then begin
    Printf.eprintf
      "R5 FAIL: 4-shard aggregate goodput is %.2fx of 1-shard (gate 2.8x)\n"
      scaling;
    exit 1
  end

(* {1 GATE — switch cost below the PKRU floor: batched gates}

   Two halves. (1) Anatomy: a server-shaped request loop — flight-recorder
   admit, enter, exit — measured plain and inside a batched gate; PKRU
   cycles are the sum of the monitor's [switch.pkru_write] spans. A plain
   request repeats no PKRU value, so value elision removes no write there
   (which is why E7's band still holds), while the batched gate drops the
   share below the 30% floor the paper's anatomy bottoms out at. (2) The
   kvcache YCSB overhead vs. baseline with batched gates on, which must
   improve on the plain sdrad overhead measured in the same
   configuration. Emits BENCH_gate.json and fails when either gate is
   missed. *)
let gate () =
  section "GATE — batched gates: PKRU share and kvcache overhead";
  let pairs = if !quick then 128 else 512 in
  let anatomy ~batched =
    let tracer = Telemetry.Trace.create ~capacity:(16 * pairs) () in
    let space = Space.create ~size_mib:192 () in
    Sched.main (fun _ ->
        let sd = Api.create ~tracer space in
        let udi = 0x7FFF_FD00 in
        let total = ref 0.0 and writes = ref 0 and elided = ref 0 in
        Api.run sd ~udi
          ~on_rewind:(fun _ -> assert false)
          (fun () ->
            (* Warm-up request first, so first-touch page faults and init
               spans stay out of the aggregate. *)
            Api.enter sd udi;
            Api.exit_domain sd;
            let request () =
              Api.flight_event sd ~udi Checkpoint.Flight.Admit;
              Api.enter sd udi;
              Api.exit_domain sd
            in
            let w0 = Space.wrpkru_writes space
            and e0 = Space.pkru_elided space
            and t0 = Sched.now () in
            Telemetry.Trace.set_enabled tracer true;
            (if batched then
               Api.with_gate sd (fun () ->
                   for _ = 1 to pairs do
                     request ()
                   done)
             else
               for _ = 1 to pairs do
                 request ()
               done);
            Telemetry.Trace.set_enabled tracer false;
            total := Sched.now () -. t0;
            writes := Space.wrpkru_writes space - w0;
            elided := Space.pkru_elided space - e0;
            Api.destroy sd udi ~heap:`Discard);
        assert (Telemetry.Trace.dropped tracer = 0);
        let n = float_of_int pairs in
        let pkru =
          match
            List.assoc_opt "switch.pkru_write" (Telemetry.Trace.aggregate tracer)
          with
          | Some (_, c) -> c
          | None -> 0.0
        in
        ( !total /. n,
          pkru /. !total,
          float_of_int !writes /. n,
          float_of_int !elided /. n ))
  in
  let p_cycles, p_share, p_writes, p_elided = anatomy ~batched:false in
  let b_cycles, b_share, b_writes, b_elided = anatomy ~batched:true in
  let row name c share w el =
    [
      name;
      Printf.sprintf "%.1f" c;
      Printf.sprintf "%.2f" w;
      Printf.sprintf "%.2f" el;
      Printf.sprintf "%.1f%%" (100.0 *. share);
    ]
  in
  table
    ~header:
      [ "config"; "cycles/request"; "writes/req"; "elided/req"; "PKRU share" ]
    [
      row "plain" p_cycles p_share p_writes p_elided;
      row "batched gate" b_cycles b_share b_writes b_elided;
    ];
  Printf.printf
    "per request: %.1f -> %.1f cycles; PKRU share %.1f%% -> %.1f%% (floor \
     30%%)\n"
    p_cycles b_cycles (100.0 *. p_share) (100.0 *. b_share);
  let records = mc_records () and operations = mc_operations () in
  let workers = 4 and clients = 16 in
  let run ?gate_batch_limit variant =
    ycsb_run ?gate_batch_limit ~variant ~workers ~records ~operations ~clients ()
  in
  let base = run Kvcache.Server.Baseline in
  let plain = run Kvcache.Server.Sdrad in
  let gated = run ~gate_batch_limit:8 Kvcache.Server.Sdrad in
  let ov f r = 100.0 *. (f r -. f base) /. f base in
  let run_plain = ov run_tput plain in
  let load_plain = ov load_tput plain in
  let run_gated = ov run_tput gated in
  let load_gated = ov load_tput gated in
  let mc_row name r =
    [
      name;
      Stats.Table.fmt_si (load_tput r);
      Printf.sprintf "%s" (pct (load_tput base) (load_tput r));
      Stats.Table.fmt_si (run_tput r);
      Printf.sprintf "%s" (pct (run_tput base) (run_tput r));
    ]
  in
  table
    ~header:[ "variant"; "load op/s"; "vs base"; "run op/s"; "vs base" ]
    [
      mc_row "baseline" base;
      mc_row "sdrad" plain;
      mc_row "sdrad+gate" gated;
    ];
  Printf.printf
    "kvcache sdrad overhead: run %.1f%% -> %.1f%%, load %.1f%% -> %.1f%%\n"
    run_plain run_gated load_plain load_gated;
  write_json "BENCH_gate.json" ~experiment:"gate"
    [
      ("anatomy_pairs", Int pairs);
      ("cycles_per_request_plain", Fixed (2, p_cycles));
      ("cycles_per_request_batched", Fixed (2, b_cycles));
      ("pkru_share_plain", Fixed (4, p_share));
      ("pkru_share_batched", Fixed (4, b_share));
      ("writes_per_request_plain", Fixed (2, p_writes));
      ("writes_per_request_batched", Fixed (2, b_writes));
      ( "workload",
        Obj
          [
            ("workers", Int workers); ("clients", Int clients);
            ("records", Int records); ("operations", Int operations);
          ] );
      ("kv_run_overhead_pct_plain", Fixed (2, run_plain));
      ("kv_load_overhead_pct_plain", Fixed (2, load_plain));
      ("kv_run_overhead_pct_gated", Fixed (2, run_gated));
      ("kv_load_overhead_pct_gated", Fixed (2, load_gated));
    ];
  if b_share >= 0.30 then begin
    Printf.eprintf
      "GATE FAIL: batched PKRU share %.1f%% is not below the 30%% floor\n"
      (100.0 *. b_share);
    exit 1
  end;
  if run_gated < run_plain || load_gated < load_plain then begin
    Printf.eprintf
      "GATE FAIL: gated kvcache overhead run %.1f%% / load %.1f%% does not \
       improve on plain sdrad's %.1f%% / %.1f%%\n"
      run_gated load_gated run_plain load_plain;
    exit 1
  end
