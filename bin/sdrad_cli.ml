(* Command-line front end for the SDRaD reproduction.

     sdrad_cli costs               print the virtual cost model
     sdrad_cli cve <name>          run one CVE scenario (protected + not)
     sdrad_cli switch              print the domain-switch cost anatomy
     sdrad_cli render              decode a malicious image, isolated + not
     sdrad_cli kvbench [opts]      one Memcached YCSB configuration
     sdrad_cli webbench [opts]     one NGINX load configuration
     sdrad_cli stats [opts]        the forensic run's monitor and supervisor
     sdrad_cli metrics [opts]      the same run, Prometheus text exposition
     sdrad_cli rollback-report     the same run's audit log: what each rewind undid
     sdrad_cli incident <seq>      the same run: one incident's causal timeline
     sdrad_cli trace [opts]        Chrome trace JSON of a switch/rewind run
     sdrad_cli analyze [opts]      compartment-policy and race reports

   [stats], [metrics], [rollback-report] and [incident] are four views
   of one seeded forensic run ([forensic_run]), so incident 1 is the
   same rewind in each. *)

open Cmdliner
module Space = Vmem.Space
module Sched = Simkern.Sched
module Cost = Simkern.Cost
module Api = Sdrad.Api

let cost = Cost.default

(* {1 costs} *)

let setup_logging verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log monitor and server events.")

let costs_cmd =
  let doc = "Print the virtual-time cost model (cycles at 2.10 GHz)." in
  let run () =
    let rows =
      [
        ("wrpkru", cost.Cost.wrpkru);
        ("rdpkru", cost.Cost.rdpkru);
        ("memory access", cost.Cost.mem_access);
        ("bulk copy (per byte)", cost.Cost.mem_byte);
        ("page first touch", cost.Cost.page_touch);
        ("syscall", cost.Cost.syscall);
        ("signal delivery", cost.Cost.signal_delivery);
        ("context save", cost.Cost.context_save);
        ("context restore", cost.Cost.context_restore);
        ("stack switch", cost.Cost.stack_switch);
        ("monitor switch work", cost.Cost.switch_work);
        ("thread spawn", cost.Cost.thread_spawn);
        ("loopback message", cost.Cost.net_msg);
        ("loopback per byte", cost.Cost.net_byte);
      ]
    in
    print_endline
      (Stats.Table.render ~header:[ "operation"; "cycles"; "ns" ]
         (List.map
            (fun (n, c) ->
              [ n; Printf.sprintf "%.3f" c;
                Printf.sprintf "%.2f" (Cost.ns_of_cycles cost c) ])
            rows))
  in
  Cmd.v (Cmd.info "costs" ~doc) Term.(const run $ const ())

(* {1 cve} *)

let run_mc_cve protected =
  let variant =
    if protected then Kvcache.Server.Sdrad else Kvcache.Server.Baseline
  in
  let w =
    Scenario.world ~size_mib:128 ?monitor:(Scenario.monitor_for variant) ()
  in
  let cfg =
    { Kvcache.Server.default_config with variant; vulnerable = true; workers = 2 }
  in
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           let evil = Netsim.connect w.net ~port:11211 in
           Netsim.send evil
             (Kvcache.Proto.fmt_set_lying ~key:"boom" ~flags:0 ~declared:(-1)
                ~value:(String.make 800 'x'));
           ignore (Netsim.recv evil)))
  in
  if Kvcache.Server.crashed s then "process crashed; all clients and cache contents lost"
  else
    Printf.sprintf "rewind in %.1f us; one connection closed, cache intact"
      (Cost.us_of_cycles cost (List.hd (Kvcache.Server.rewind_latencies s)))

let run_ng_cve ~cert protected =
  (* The certificate check runs in a domain even on the baseline. *)
  let w =
    Scenario.world ~size_mib:128
      ?monitor:(if protected || cert then Some (fun s -> Api.create s) else None)
      ()
  in
  let variant = if protected then Httpd.Server.Sdrad else Httpd.Server.Baseline in
  let cfg =
    {
      Httpd.Server.default_config with
      variant;
      vulnerable = not cert;
      verify_certs = cert;
      workers = 1;
    }
  in
  let fs = Httpd.Fs.create w.space in
  Httpd.Fs.add fs ~path:"/index.html" ~size:1024;
  let { Scenario.server = s; _ } =
    Scenario.httpd w ~files:(Fun.const fs) cfg
      (Script
         (fun _ ->
           let evil = Netsim.connect w.net ~port:8080 in
           (if cert then
              let c =
                Crypto.X509.make_cert ~cn:"evil"
                  ~altname:Crypto.X509.malicious_altname
              in
              Netsim.send evil
                (Workload.Http_load.request_with_headers ~path:"/index.html"
                   [ ("X-Client-Cert", c) ])
            else
              Netsim.send evil
                (Workload.Http_load.request ~path:"/a/../../etc"));
           ignore (Netsim.recv evil);
           Sched.sleep 5.0e6))
  in
  if Httpd.Server.worker_restarts s > 0 then
    Printf.sprintf "worker crashed; restarted in %.0f us; its connections were lost"
      (Cost.us_of_cycles cost (List.hd (Httpd.Server.restart_latencies s)))
  else if Httpd.Server.rewinds s > 0 then
    Printf.sprintf "rewind in %.1f us; only the attacker's connection closed"
      (Cost.us_of_cycles cost (List.hd (Httpd.Server.rewind_latencies s)))
  else "no fault triggered (?)"

let cve_cmd =
  let doc = "Replay one of the paper's CVE case studies." in
  let which =
    let names =
      [ ("memcached", `Mc); ("nginx", `Ng); ("openssl", `Ssl) ]
    in
    Arg.(required & pos 0 (some (enum names)) None & info [] ~docv:"CVE")
  in
  let run verbose which =
    setup_logging verbose;
    let scenario, f =
      match which with
      | `Mc -> ("CVE-2011-4971 (memcached heap overflow)", run_mc_cve)
      | `Ng -> ("CVE-2009-2629 (nginx URI underflow)", run_ng_cve ~cert:false)
      | `Ssl -> ("CVE-2022-3786 (openssl punycode overflow)", run_ng_cve ~cert:true)
    in
    Printf.printf "%s\n  unprotected: %s\n  with SDRaD:  %s\n" scenario (f false)
      (f true)
  in
  Cmd.v (Cmd.info "cve" ~doc) Term.(const run $ verbose_arg $ which)

(* {1 switch} *)

let switch_cmd =
  let doc = "Print the domain-switch cost anatomy (experiment E7)." in
  let run () =
    let a = Scenario.switch_anatomy () in
    Printf.printf
      "enter+exit pair: %.0f cycles (%.2f us), %.0f WRPKRU writes, %.0f \
       elided\n"
      a.pair (Cost.us_of_cycles cost a.pair) a.writes a.elided;
    List.iter
      (fun (name, c) ->
        Printf.printf "  %-23s %4.0f cycles (%.1f%%)\n" (name ^ ":") c
          (100.0 *. c /. a.pair))
      a.rows
  in
  Cmd.v (Cmd.info "switch" ~doc) Term.(const run $ const ())

(* {1 render} *)

let render_cmd =
  let doc = "Decode a crafted malicious image with and without isolation." in
  let run () =
    let space = Space.create ~size_mib:64 () in
    Sched.main (fun _ ->
      (* Unprotected: catch the fault to report it. *)
      (match
         Render.decode space
           ~alloc:(fun n -> Space.mmap space ~len:(max 16 n) ~prot:Vmem.Prot.rw ~pkey:0)
           ~src:
             (let img = Render.encode_malicious () in
              let src = Space.mmap space ~len:(String.length img + 64) ~prot:Vmem.Prot.rw ~pkey:0 in
              Space.store_string space src img;
              src)
           ~len:(String.length (Render.encode_malicious ()))
           ~vulnerable:true
       with
      | _ -> print_endline "unprotected: decoder survived (?)"
      | exception Space.Fault _ ->
          print_endline
            "unprotected: heap rampage SEGV — the whole renderer process dies");
      let sd = Api.create space in
      (match Render.decode_isolated sd ~vulnerable:true (Render.encode_malicious ()) with
      | Error f ->
          Printf.printf "with SDRaD:  rewind (%s); service continues\n"
            (Format.asprintf "%a" Sdrad.Types.pp_cause f.Sdrad.Types.cause)
      | Ok _ -> print_endline "with SDRaD: not caught (?)");
      match
        Render.decode_isolated sd ~vulnerable:true
          (Render.encode ~width:16 ~height:16 (fun x y -> (x, y, 0)))
      with
      | Ok d ->
          Printf.printf "next request: rendered %dx%d fine\n" d.Render.width
            d.Render.height
      | Error _ -> print_endline "next request failed (?)")
  in
  Cmd.v (Cmd.info "render" ~doc) Term.(const run $ const ())

(* {1 kvbench / webbench} *)

let variant_arg names =
  Arg.(value & opt (enum names) (snd (List.hd names)) & info [ "variant" ] ~docv:"VARIANT")

let workers_arg = Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N")

let kvbench_cmd =
  let doc =
    "Run one Memcached YCSB configuration and print throughput and failed \
     requests."
  in
  let variants =
    [ ("baseline", Kvcache.Server.Baseline); ("tlsf", Kvcache.Server.Tlsf_alloc);
      ("sdrad", Kvcache.Server.Sdrad) ]
  in
  let records = Arg.(value & opt int 1500 & info [ "records" ] ~docv:"N") in
  let ops = Arg.(value & opt int 6000 & info [ "ops" ] ~docv:"N") in
  let run variant workers records ops =
    let { Scenario.result = r; world = w; _ } =
      Scenario.kvcache
        (Scenario.world ~size_mib:192 ?monitor:(Scenario.monitor_for variant) ())
        { Kvcache.Server.default_config with variant; workers }
        (Ycsb
           {
             Workload.Ycsb.default_config with
             records;
             operations = ops;
             clients = 16;
           })
    in
    let ops = r.Workload.Ycsb.load_ops + r.Workload.Ycsb.run_ops in
    (* The op counts include failed requests (no or an error reply), so
       the throughput lines are read beside [failed]. *)
    Printf.printf
      "load: %.0f ops/s\nrun:  %.0f ops/s\nfailed: %d\nmax RSS: %.1f MiB\n\
       checked accesses: %.1f per op\n"
      (Stats.ops_per_sec cost ~ops:r.Workload.Ycsb.load_ops
         ~cycles:r.Workload.Ycsb.load_cycles)
      (Stats.ops_per_sec cost ~ops:r.Workload.Ycsb.run_ops
         ~cycles:r.Workload.Ycsb.run_cycles)
      r.Workload.Ycsb.failures
      (float_of_int (Space.max_rss_bytes w.space) /. 1048576.0)
      (float_of_int (Space.checked_accesses w.space) /. float_of_int ops)
  in
  Cmd.v (Cmd.info "kvbench" ~doc)
    Term.(const run $ variant_arg variants $ workers_arg $ records $ ops)

let webbench_cmd =
  let doc = "Run one NGINX load configuration and print throughput." in
  let variants =
    [ ("baseline", Httpd.Server.Baseline); ("tlsf", Httpd.Server.Tlsf_alloc);
      ("sdrad", Httpd.Server.Sdrad) ]
  in
  let size = Arg.(value & opt int 1024 & info [ "size" ] ~docv:"BYTES") in
  let conns = Arg.(value & opt int 75 & info [ "connections" ] ~docv:"N") in
  let run variant workers size conns =
    let w =
      Scenario.world ~size_mib:192 ?monitor:(Scenario.monitor_for variant) ()
    in
    (* The file is written before the run starts. *)
    let fs = Httpd.Fs.create w.space in
    let path = Printf.sprintf "/f%d.bin" size in
    Httpd.Fs.add fs ~path ~size;
    let { Scenario.result = r; _ } =
      Scenario.httpd w ~files:(Fun.const fs)
        { Httpd.Server.default_config with variant; workers }
        (Http_load
           { Workload.Http_load.default_config with connections = conns; path })
    in
    Printf.printf "throughput: %.0f req/s (%d ok, %d failed)\n"
      (Stats.ops_per_sec cost ~ops:r.Workload.Http_load.ok
         ~cycles:r.Workload.Http_load.cycles)
      r.Workload.Http_load.ok r.Workload.Http_load.failures
  in
  Cmd.v (Cmd.info "webbench" ~doc)
    Term.(const run $ variant_arg variants $ workers_arg $ size $ conns)

(* {1 The forensic run} *)

(* The vulnerable SDRaD cache with one event domain per client. *)
let attack_config =
  {
    Kvcache.Server.default_config with
    variant = Kvcache.Server.Sdrad;
    vulnerable = true;
    workers = 2;
    per_client_domains = true;
  }

(* The one run behind [stats], [metrics], [rollback-report] and
   [incident]. It opens with ONE logical client operation whose story
   crosses every recovery layer: its first attempt is killed by an
   injected wild write in its domain (rewind, audit record, connection
   dropped), the second lands but its reply is dropped on the wire, and
   the third is answered from the replay journal. All three reuse one
   request id, so they share one causal trace id, and the op's rewind is
   incident 1. Then a benign client and a reconnecting attacker run side
   by side, each attack under its own trace id, until the supervisor
   quarantines the attacker's domain. Timing is fixed, so every view is
   byte-stable for any seed: [seed] only feeds canary values no view
   renders. Span tracing stays on throughout, so the rewound requests
   surface as aborted spans ([trace_aborted_spans_total]). *)
let forensic_run ?(interrupts = 0) ~seed () =
  let module Fi = Resilience.Fault_inject in
  let module Retry = Resilience.Retry in
  let tracer = Telemetry.Trace.create ~capacity:65536 () in
  Telemetry.Trace.set_enabled tracer true;
  let w =
    Scenario.world ~size_mib:192
      ~monitor:(Api.create ~seed ~tracer)
      ~supervisor:Resilience.Supervisor.attach ()
  in
  let sd = Option.get w.sd and net = w.net in
  (* The op's one wild write, and [rollback-report --interrupts N]'s N
     faults landing mid-rewind, on the resumed two-phase path. *)
  let fi =
    Fi.create ~seed
      [
        Fi.rule ~site:"kv.domain" ~max_fires:1 Fi.Wild_write;
        Fi.rule ~site:"cli.rewind" ~max_fires:interrupts Fi.Rewind_interrupt;
      ]
  in
  if interrupts > 0 then Fi.arm_rewind fi sd ~site:"cli.rewind";
  Scenario.kvcache ~faults:fi w attack_config
    (Script
       (fun _ ->
         let op =
           Sched.spawn w.sched ~name:"client" (fun () ->
               let conn = ref (Netsim.connect net ~src:3 ~port:11211) in
               (* Counting (deterministic) wire fault: message 3 is the
                  server's reply to the second attempt — the first
                  attempt dies in its domain and never answers. *)
               let n = ref 0 in
               Netsim.set_fault_hook net (Some (fun ~len:_ ->
                   incr n;
                   if !n = 3 then Netsim.Drop else Netsim.Deliver));
               let eng =
                 Retry.create
                   { Retry.default_policy with attempt_timeout = 60_000.0 }
                   ~rng:(Simkern.Rng.create 5)
                   ~metrics:(Api.metrics sd) ~name:"cli"
               and reply = Netsim.Buf.create () in
               (match
                  Retry.execute eng (fun eng ->
                      (if (not (Netsim.is_open !conn)) || Netsim.peer_closed !conn
                       then conn := Netsim.connect net ~src:3 ~port:11211);
                      Netsim.send !conn
                        (Kvcache.Proto.fmt_storage "set" ~rid:(Retry.rid eng)
                           ~trace:(Retry.trace eng) ~key:"order:42" ~flags:0
                           ~value:"paid" ());
                      if
                        Netsim.recv_buf_deadline !conn reply
                          (Retry.deadline_slot eng) 0
                      then Ok ()
                      else begin
                        Netsim.close !conn;
                        Error (`Retry "timeout")
                      end)
                with
               | Ok () -> ()
               | Error _ -> failwith "forensic run: the op did not land");
               Netsim.set_fault_hook net None;
               Netsim.close !conn)
         in
         Sched.join op;
         let good =
           Sched.spawn w.sched ~name:"good" (fun () ->
               let c = Netsim.connect net ~src:1 ~port:11211 in
               for i = 1 to 20 do
                 Sched.sleep 4_000.0;
                 Netsim.send c
                   (Kvcache.Proto.fmt_set
                      ~key:(Printf.sprintf "k%d" i)
                      ~flags:0 ~value:"v");
                 ignore (Netsim.recv c)
               done;
               Netsim.close c)
         in
         let evil =
           Sched.spawn w.sched ~name:"evil" (fun () ->
               for i = 1 to 8 do
                 Sched.sleep 20_000.0;
                 let c = Netsim.connect net ~src:777 ~port:11211 in
                 let ctx = Telemetry.Context.root (Printf.sprintf "evil-%d" i) in
                 Netsim.send c
                   (Kvcache.Proto.fmt_set_lying_traced
                      ~trace:(Telemetry.Context.trace ctx) ~key:"pwn" ~flags:0
                      ~declared:(-1) ~value:(String.make 300 'X'));
                 ignore (Netsim.recv c);
                 Netsim.close c
               done)
         in
         Sched.join good;
         Sched.join evil))

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as deterministic JSON.")

(* {1 Audit records}

   One renderer for the monitor's audit records, in text and in JSON:
   [stats] prints each record's header line, [rollback-report] each
   record's block, and [incident] one block with what it links to. *)

module Fl = Checkpoint.Flight
module Rl = Checkpoint.Rewind_log

let fmt_trace_id tr = if tr = 0 then "-" else Printf.sprintf "%016x" tr

let flight_event_line e =
  Printf.sprintf "%10.0f  udi=%-3d tid=%-3d %-12s trace=%s%s" e.Fl.e_at
    e.Fl.e_udi e.Fl.e_tid
    (Fl.kind_to_string e.Fl.e_kind)
    (fmt_trace_id e.Fl.e_trace)
    (if e.Fl.e_arg = 0 then "" else Printf.sprintf " arg=0x%x" e.Fl.e_arg)

let flight_event_json e =
  Printf.sprintf
    "{ \"at\": %.0f, \"udi\": %d, \"tid\": %d, \"kind\": \"%s\", \"trace\": \
     \"%s\", \"arg\": %d }"
    e.Fl.e_at e.Fl.e_udi e.Fl.e_tid
    (Fl.kind_to_string e.Fl.e_kind)
    (fmt_trace_id e.Fl.e_trace)
    e.Fl.e_arg

let print_events ~indent events =
  List.iter (fun e -> Printf.printf "%s%s\n" indent (flight_event_line e)) events

let state_to_string = function
  | `Entered -> "entered"
  | `Ready -> "ready"
  | `Dormant -> "dormant"

let record_header r =
  Printf.sprintf "incident %d: %s in udi %d (tid %d)  si=%s addr=0x%x%s"
    r.Rl.r_id
    (Rl.kind_to_string r.Rl.r_kind)
    r.Rl.r_target r.Rl.r_tid r.Rl.r_si r.Rl.r_fault_addr
    (if r.Rl.r_msg = "" then "" else "  [" ^ r.Rl.r_msg ^ "]")

(* What a rewind undid: the trigger, the window, the discarded subtree
   with its stack and heap extents, and the flight events frozen into
   the record. *)
let print_record r =
  Printf.printf "%s\n" (record_header r);
  Printf.printf
    "  window %.0f -> %.0f cycles, %d interrupt(s) absorbed, %d journal \
     replay(s) so far\n"
    r.Rl.r_start r.Rl.r_end r.Rl.r_interrupts r.Rl.r_replays;
  Printf.printf "  discarded %d domain(s):\n" (List.length r.Rl.r_subtree);
  List.iter
    (fun x ->
      let sb, sl = x.Rl.x_stack in
      Printf.printf "    udi %-4d %-8s stack 0x%x+%d  %d heap region(s), %d B\n"
        x.Rl.x_udi
        (state_to_string x.Rl.x_was)
        sb sl
        (List.length x.Rl.x_regions)
        (List.fold_left (fun a (_, l) -> a + l) 0 x.Rl.x_regions))
    r.Rl.r_subtree;
  if r.Rl.r_events <> [] then begin
    Printf.printf "  last flight-recorder events (frozen at intent):\n";
    print_events ~indent:"    " r.Rl.r_events
  end

(* A JSON array, one element per line under [indent]. *)
let json_items ~indent to_json items =
  "["
  ^ String.concat ","
      (List.map (fun x -> "\n" ^ indent ^ to_json x) items)
  ^ " ]"

let subtree_json x =
  let sb, sl = x.Rl.x_stack in
  Printf.sprintf
    "{ \"udi\": %d, \"was\": \"%s\", \"stack\": [%d, %d], \"regions\": [%s] }"
    x.Rl.x_udi
    (state_to_string x.Rl.x_was)
    sb sl
    (String.concat ", "
       (List.map (fun (a, l) -> Printf.sprintf "[%d, %d]" a l) x.Rl.x_regions))

(* A record as one JSON object, its first line unindented and the rest
   under [indent]; [extra] fields, already rendered, close it. *)
let record_json ~extra ~indent r =
  let items f = json_items ~indent:(indent ^ "  ") f in
  Printf.sprintf
    "{ \"id\": %d, \"target\": %d, \"tid\": %d, \"kind\": \"%s\",\n\
     %s\"si\": \"%s\", \"fault_addr\": %d, \"msg\": \"%s\",\n\
     %s\"start\": %.0f, \"end\": %.0f, \"interrupts\": %d, \"replays_total\": %d,\n\
     %s\"subtree\": %s,\n\
     %s\"events\": %s%s }"
    r.Rl.r_id r.Rl.r_target r.Rl.r_tid
    (Rl.kind_to_string r.Rl.r_kind)
    indent
    (Telemetry.json_escape r.Rl.r_si)
    r.Rl.r_fault_addr
    (Telemetry.json_escape r.Rl.r_msg)
    indent r.Rl.r_start r.Rl.r_end r.Rl.r_interrupts r.Rl.r_replays indent
    (items subtree_json r.Rl.r_subtree)
    indent
    (items flight_event_json r.Rl.r_events)
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ",\n%s\"%s\": %s" indent k v) extra))

(* {1 stats} *)

let stats_cmd =
  let doc =
    "Replay the forensic run (an exactly-once op rewound and replayed, then \
     a benign client beside an attacker the supervisor quarantines) and \
     print the monitor's runtime statistics, the incident log (one line per \
     audit record) and the supervisor's circuit-breaker states."
  in
  let run verbose seed =
    setup_logging verbose;
    let module Supervisor = Resilience.Supervisor in
    let { Scenario.world = w; server = s; _ } = forensic_run ~seed () in
    let sd = Option.get w.sd and sup = Option.get w.sup in
    print_endline "== monitor runtime stats ==";
    let sample name =
      match Telemetry.Metrics.sample (Api.metrics sd) name with
      | Some v -> string_of_int (int_of_float v)
      | None -> "-"
    in
    print_endline
      (Stats.Table.render ~header:[ "metric"; "value" ]
         (List.map
            (fun name -> [ name; sample name ])
            [
              "sdrad_execution_domains"; "sdrad_data_domains";
              "sdrad_pkeys_in_use"; "sdrad_pooled_stacks"; "sdrad_threads";
              "sdrad_rewinds_total"; "sdrad_key_evictions_total";
              "sdrad_monitor_bytes"; "sanitizer_poison_faults_total";
            ]));
    Printf.printf "rewind count: %d\n" (Api.rewind_count sd);
    Printf.printf "busy rejections: %d\n\n"
      (Kvcache.Server.busy_rejections s);
    print_endline "== incident log ==";
    List.iter
      (fun r -> print_endline ("  " ^ record_header r))
      (Api.audit_records sd);
    print_endline "\n== supervisor breaker states ==";
    print_endline
      (Stats.Table.render ~header:[ "udi"; "state"; "rewinds"; "rejections" ]
         (List.map
            (fun (udi, st) ->
              let counters = Supervisor.domain_counters sup ~udi in
              let get k =
                match List.assoc_opt k counters with Some v -> v | None -> 0
              in
              [ string_of_int udi; Supervisor.breaker_to_string st;
                string_of_int (get "rewinds"); string_of_int (get "rejections") ])
            (Supervisor.states sup)));
    print_endline
      (Stats.Table.render ~header:[ "supervisor counter"; "value" ]
         (List.map
            (fun (k, v) -> [ k; string_of_int v ])
            (Supervisor.stats sup)))
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ verbose_arg $ seed_arg)

(* {1 metrics / trace} *)

(* A fixed two-shard fleet scenario for [metrics --aggregate] and
   [analyze --aggregate]: a batch of rid-carrying sets and reads through
   the router, then a planned drain of shard 0 so the failover / re-seed
   series are populated. No RNG-driven timing, so the merged exposition
   is byte-stable. Each shard runs with the race detector attached —
   detection is host-side, so the run is identical either way, and the
   race_* series show up in the merged exposition. [snapshot] runs
   inside the simulation after the workload, before the fleet stops; its
   value is the run's result. *)
let run_cluster_metrics_scenario snapshot =
  let cfg =
    {
      Cluster.Fleet.default_config with
      shards = 2;
      router_workers = 2;
      kv =
        { Cluster.Fleet.default_config.kv with race_detector = true };
    }
  in
  let w = Scenario.fleet_world () in
  Scenario.fleet w cfg
    (Script
       (fun t ->
         let c = Netsim.connect w.fleet_net ~port:cfg.router_port in
         for i = 1 to 16 do
           Sched.sleep 4_000.0;
           Netsim.send c
             (Kvcache.Proto.fmt_storage "set"
                ~rid:(Printf.sprintf "agg-%d" i)
                ~key:(Printf.sprintf "k%d" i)
                ~flags:0 ~value:"v" ());
           ignore (Netsim.recv c)
         done;
         (* Planned failover: drain shard 0 and re-seed its acked writes
            onto the survivor, then read everything back through the
            shrunken ring so the re-routed path shows up in the series. *)
         Cluster.Fleet.drain_shard t 0;
         for i = 1 to 16 do
           Sched.sleep 2_000.0;
           Netsim.send c (Kvcache.Proto.fmt_get (Printf.sprintf "k%d" i));
           ignore (Netsim.recv c)
         done;
         Netsim.close c;
         snapshot t))

let metrics_cmd =
  let doc =
    "Replay the forensic run (the one behind $(b,stats)) and print every \
     registered metric in Prometheus text exposition format (monitor, \
     allocator, memory, server, client and supervisor series share one \
     registry). With $(b,--aggregate), run a two-shard cluster scenario \
     with a planned failover instead and print the fleet-wide exposition: \
     every shard's registry folded into the router's (counters summed, \
     histograms merged bucket-by-bucket)."
  in
  let aggregate =
    Arg.(
      value & flag
      & info [ "aggregate" ]
          ~doc:
            "Print one merged exposition for a whole shard fleet instead of \
             a single monitor's registry.")
  in
  let run verbose seed aggregate =
    setup_logging verbose;
    print_string
      (Telemetry.Metrics.expose
         (if aggregate then
            Cluster.Fleet.aggregate_metrics
              (run_cluster_metrics_scenario ignore).server
          else Api.metrics (Option.get (forensic_run ~seed ()).world.sd)))
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(const run $ verbose_arg $ seed_arg $ aggregate)

(* {1 rollback-report} *)

let rollback_report_cmd =
  let doc =
    "Replay the forensic run (the one behind $(b,stats)) and reconstruct \
     what every rewind undid from the monitor's durable audit log: trigger \
     fault, discarded domain subtree with stack and heap extents, journal \
     replays, virtual-time window and any mid-rewind interrupts absorbed by \
     the two-phase protocol."
  in
  let interrupts =
    Arg.(
      value & opt int 0
      & info [ "interrupts" ] ~docv:"N"
          ~doc:
            "Inject $(docv) rewind-interrupt faults mid-rewind (two-phase \
             resume path); absorbed interrupts show up on the incident \
             records.")
  in
  let run verbose seed json interrupts =
    setup_logging verbose;
    let sd = Option.get (forensic_run ~interrupts ~seed ()).world.sd in
    let recs = Api.audit_records sd in
    if json then
      Printf.printf
        "{\n  \"appended\": %d,\n  \"dropped\": %d,\n  \"retained\": %d,\n\
        \  \"resumed\": %d,\n  \"incidents\": [%s\n  ]\n}\n"
        (Api.audit_appended sd) (Api.audit_dropped sd) (Api.audit_retained sd)
        (List.length (List.filter (fun r -> r.Rl.r_interrupts > 0) recs))
        (String.concat ","
           (List.map
              (fun r -> "\n    " ^ record_json ~extra:[] ~indent:"      " r)
              recs))
    else begin
      Printf.printf
        "rewind audit: %d committed, %d dropped, %d retained in the ring\n"
        (Api.audit_appended sd) (Api.audit_dropped sd) (Api.audit_retained sd);
      List.iter
        (fun r ->
          print_newline ();
          print_record r)
        recs
    end
  in
  Cmd.v
    (Cmd.info "rollback-report" ~doc)
    Term.(const run $ verbose_arg $ seed_arg $ json_arg $ interrupts)

(* {1 incident} *)

let incident_cmd =
  let module M = Telemetry.Metrics in
  let doc =
    "Replay the forensic run (the one behind $(b,stats)) and reconstruct \
     the full causal timeline of one rewind incident from the monitor's \
     forensic surfaces: the durable audit record (with its frozen \
     flight-recorder snapshot), every flight-recorder event sharing the \
     incident's trace id — client send, retry attempts, domain switches, \
     the injected fault, the journal-replay outcome — and the latency \
     histogram of the logical client operation, with its exemplar trace id. \
     Incident 1 is the run's exactly-once op."
  in
  let seq =
    Arg.(
      value & pos 0 int 1
      & info [] ~docv:"SEQ" ~doc:"Incident sequence number (audit record id).")
  in
  (* The incident's causal trace id comes from the audit record's frozen
     events: the triggering fault's id, or failing that the last
     traced event of the snapshot. *)
  let trace_of_record r =
    let fault =
      List.find_opt (fun e -> e.Fl.e_kind = Fl.Fault) r.Rl.r_events
    in
    match fault with
    | Some e when e.Fl.e_trace <> 0 -> e.Fl.e_trace
    | _ ->
        List.fold_left
          (fun acc e -> if e.Fl.e_trace <> 0 then e.Fl.e_trace else acc)
          0 r.Rl.r_events
  in
  (* Everything the live flight rings still hold about that trace,
     across all domains (the rings live in monitor memory, so they
     survive the rewind), in virtual-time order. *)
  let linked_events sd trace =
    if trace = 0 then []
    else
      List.sort
        (fun a b ->
          match compare a.Fl.e_at b.Fl.e_at with
          | 0 -> compare (a.Fl.e_udi, a.Fl.e_kind) (b.Fl.e_udi, b.Fl.e_kind)
          | c -> c)
        (List.concat_map
           (fun udi ->
             List.filter
               (fun e -> e.Fl.e_trace = trace)
               (Api.flight_events sd ~udi))
           (Api.flight_domains sd))
  in
  let latency_report sd =
    let h = M.histogram (Api.metrics sd) "client_op_latency_cycles" in
    let count = M.hist_count h in
    if count = 0 then None
    else
      let buckets = M.hist_buckets h in
      let q p = Stats.quantile_of_buckets buckets p in
      let exemplars =
        List.sort_uniq compare
          (List.map (fun (_, _, id) -> id) (M.hist_exemplars h))
      in
      Some (count, q 0.5, q 0.9, q 0.99, exemplars)
  in
  let print_table sd r =
    let trace = trace_of_record r in
    print_record r;
    Printf.printf "\ncausal timeline for trace %s (live flight rings):\n"
      (fmt_trace_id trace);
    print_events ~indent:"  " (linked_events sd trace);
    match latency_report sd with
    | None -> ()
    | Some (count, p50, p90, p99, exemplars) ->
        Printf.printf
          "\nclient_op_latency_cycles: count %d  p50 %.0f  p90 %.0f  p99 \
           %.0f\n"
          count p50 p90 p99;
        if exemplars <> [] then
          Printf.printf "  exemplar trace(s): %s\n"
            (String.concat ", " exemplars)
  in
  (* The record's own fields, as [rollback-report --json] prints them,
     then the trace, its timeline and the op's latency. *)
  let print_json sd r =
    let trace = trace_of_record r in
    let latency =
      match latency_report sd with
      | None -> []
      | Some (count, p50, p90, p99, exemplars) ->
          [
            ( "latency",
              Printf.sprintf
                "{ \"count\": %d, \"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, \
                 \"exemplars\": [%s] }"
                count p50 p90 p99
                (String.concat ", "
                   (List.map
                      (fun e -> "\"" ^ Telemetry.json_escape e ^ "\"")
                      exemplars)) );
          ]
    in
    print_endline
      (record_json ~indent:"  " r
         ~extra:
           ([
              ("trace", "\"" ^ fmt_trace_id trace ^ "\"");
              ( "timeline",
                json_items ~indent:"    " flight_event_json
                  (linked_events sd trace) );
            ]
           @ latency))
  in
  let run verbose seq seed json =
    setup_logging verbose;
    let sd = Option.get (forensic_run ~seed ()).world.sd in
    let recs = Api.audit_records sd in
    match List.find_opt (fun r -> r.Rl.r_id = seq) recs with
    | Some r -> if json then print_json sd r else print_table sd r
    | None ->
        Printf.eprintf "no incident %d in the audit log (%d retained)\n" seq
          (List.length recs);
        Stdlib.exit 1
  in
  Cmd.v (Cmd.info "incident" ~doc)
    Term.(const run $ verbose_arg $ seq $ seed_arg $ json_arg)

let trace_cmd =
  let doc =
    "Run a short switch + rewind scenario with span tracing enabled and \
     print the spans as Chrome trace-event JSON (load the output in \
     about://tracing or Perfetto to see the switch-cost anatomy)."
  in
  let pairs = Arg.(value & opt int 4 & info [ "pairs" ] ~docv:"N") in
  let run seed pairs =
    let space = Space.create ~size_mib:64 () in
    let tracer = Telemetry.Trace.create ~capacity:8192 () in
    Sched.main (fun _ ->
      let sd = Api.create ~seed ~tracer space in
      Telemetry.Trace.set_enabled tracer true;
      Api.run sd ~udi:5
        ~on_rewind:(fun _ -> ())
        (fun () ->
          for _ = 1 to pairs do
            Api.enter sd 5;
            Api.exit_domain sd
          done;
          Api.destroy sd 5 ~heap:`Discard);
      Api.run sd ~udi:6
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd 6;
          Api.abort sd "trace demo");
      Telemetry.Trace.set_enabled tracer false);
    print_endline
      (Telemetry.Trace.to_chrome_json
         ~cycles_per_us:(cost.Cost.clock_ghz *. 1000.0) tracer)
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ seed_arg $ pairs)

(* {1 analyze} *)

(* A hand-built misconfigured model that exercises every verifier rule,
   so the report format is demonstrated (and golden-tested) alongside
   the two clean real-world snapshots. *)
let demo_misconfigured_model () =
  let module P = Analysis.Policy in
  let r base len rkey = { P.base; len; rkey } in
  {
    P.monitor_pkey = 1;
    root_pkey = 2;
    domains =
      [
        (* Two siblings sharing key 3: key-overlap, and each can reach
           the other's stack and sub-heap (cross-visibility). *)
        P.exec_domain ~udi:10 ~pkey:3 ~has_cleanup:true
          ~stack:(r 0x10000 0x4000 3)
          ~heap:[ r 0x20000 0x8000 3 ]
          ();
        P.exec_domain ~udi:11 ~pkey:3 ~has_cleanup:true
          ~stack:(r 0x30000 0x4000 3)
          ~heap:[ r 0x40000 0x8000 3 ]
          ();
        (* A sealed domain whose stack pages were left on the root key:
           every domain can read it despite the policy saying sealed. *)
        P.exec_domain ~udi:12 ~pkey:4 ~accessible:false ~has_cleanup:true
          ~stack:(r 0x50000 0x4000 2)
          ~heap:[ r 0x60000 0x8000 4 ]
          ();
        (* Orphan: parent 99 does not exist, and nobody observes its
           rewinds. *)
        P.exec_domain ~udi:13 ~parent:99 ~pkey:5
          ~stack:(r 0x70000 0x4000 5)
          ();
      ];
    gates =
      [
        (* The gate hands callee 12 a buffer inside domain 10's sub-heap,
           which the sealed callee cannot read. *)
        {
          P.g_name = "parse";
          g_caller = 0;
          g_callee = 12;
          g_buffers = [ ("request", 0x20100) ];
        };
      ];
    global_handler = false;
  }

(* The default [analyze] mode: static policy reports over the two
   real-world monitor snapshots plus the misconfigured demo model. *)
let static_reports () =
  let module P = Analysis.Policy in
  (* Each model is snapshot right after its server started. *)
  let supervised () =
    Scenario.world ~size_mib:192 ~monitor:Api.create
      ~supervisor:Resilience.Supervisor.attach ()
  in
  let snapshot w =
    Scenario.Script (fun _ -> P.of_api (Option.get w.Scenario.sd))
  in
  let kv_model =
    let w = supervised () in
    (Scenario.kvcache w
       {
         Kvcache.Server.default_config with
         variant = Kvcache.Server.Sdrad;
         workers = 2;
         per_client_domains = true;
       }
       (snapshot w))
      .result
  in
  let httpd_model =
    let w = supervised () in
    let fs = Httpd.Fs.create w.space in
    Httpd.Fs.add fs ~path:"/index.html" ~size:1024;
    (Scenario.httpd w ~files:(Fun.const fs)
       {
         Httpd.Server.default_config with
         variant = Httpd.Server.Sdrad;
         workers = 2;
         verify_certs = true;
       }
       (snapshot w))
      .result
  in
  [
    ("kvcache", P.check kv_model);
    ("httpd", P.check httpd_model);
    ("demo-misconfigured", P.check (demo_misconfigured_model ()));
  ]

(* Named policy reports, as one JSON document or one text block each. *)
let print_policy_reports json reports =
  let module P = Analysis.Policy in
  if json then
    Printf.printf "{\"reports\":[%s]}\n"
      (String.concat ","
         (List.map
            (fun (name, fs) ->
              Printf.sprintf "{\"name\":\"%s\",\"report\":%s}" name
                (P.to_json fs))
            reports))
  else
    List.iter
      (fun (name, fs) -> Printf.printf "== %s ==\n%s\n" name (P.to_text fs))
      reports

(* A deterministic scenario tripping every race-detector rule class, so
   the dynamic report format is demonstrated (and golden-tested) the way
   the misconfigured model demonstrates the static verifier's:
   (a) two unordered root threads write the same shared granule with no
       common lock (shared-race);
   (b) a nested domain writes shared memory holding no Dlock
       (rewind-atomicity);
   (c) a Dlock acquired inside a domain is released back in the root,
       and a lock poisoned by a crash is cleared without any guarding
       write (lock-discipline, both shapes). *)
let run_races_scenario () =
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create space in
  let det = Analysis.Race.attach sd in
  Sched.main (fun sched ->
    Api.init_data sd ~udi:7 ();
    let cell = Api.malloc sd ~udi:7 64 in
    let l = Sdrad.Dlock.create sd in
    (* (a) both children inherit this thread's clock but share no
       edge with each other. *)
    let w1 =
      Sched.spawn sched ~name:"racer1" (fun () ->
          Space.store64 space cell 1)
    in
    let w2 =
      Sched.spawn sched ~name:"racer2" (fun () ->
          Space.store64 space cell 2)
    in
    Sched.join w1;
    Sched.join w2;
    (* (b) unlocked shared write inside a nested domain. *)
    Api.run sd ~udi:1
      ~on_rewind:(fun _ -> ())
      (fun () ->
        Api.enter sd 1;
        Api.dprotect sd ~udi:1 ~tddi:7 Vmem.Prot.rw;
        Space.store64 space (cell + 16) 42;
        Api.exit_domain sd);
    (* (c) acquire in a domain, release in the root... *)
    Api.run sd ~udi:2
      ~on_rewind:(fun _ -> ())
      (fun () ->
        Api.enter sd 2;
        ignore (Sdrad.Dlock.acquire l);
        Api.exit_domain sd);
    Sdrad.Dlock.release l;
    (* ...and clear a crash-poisoned lock without a guarding write. *)
    Api.run sd ~udi:3
      ~on_rewind:(fun _ -> ())
      (fun () ->
        Api.enter sd 3;
        ignore (Sdrad.Dlock.acquire l);
        ignore (Space.load8 space 0));
    ignore (Sdrad.Dlock.acquire l);
    Sdrad.Dlock.clear_poisoned l;
    Sdrad.Dlock.release l;
    Analysis.Race.publish det);
  det

let analyze_cmd =
  let doc =
    "Statically verify compartment policies: snapshot the key-value cache \
     and web-server monitors as configured by their real setup code, check \
     them with the policy verifier (key disjointness, cross-domain \
     stack/heap visibility, gate buffers, abort hooks, reachability), and \
     print the findings next to a deliberately misconfigured demo model \
     that trips every rule. With $(b,--races), run the dynamic race \
     detector over a deterministic scenario that trips each of its rule \
     classes instead; with $(b,--aggregate), run the two-shard failover \
     fleet and verify every shard's compartment policy."
  in
  let man =
    [
      `S "FINDING RULES";
      `P
        "Every rule a finding can carry, static and dynamic (severity in \
         parentheses):";
      `Pre (Analysis.Rules.help_text ());
    ]
  in
  let races =
    Arg.(
      value & flag
      & info [ "races" ]
          ~doc:
            "Run the dynamic race/atomicity detector over a deterministic \
             demo scenario and print its report instead of the static \
             policy reports.")
  in
  let aggregate =
    Arg.(
      value & flag
      & info [ "aggregate" ]
          ~doc:
            "Verify the compartment policy of every shard of the two-shard \
             failover fleet (the $(b,metrics --aggregate) scenario), one \
             report per shard.")
  in
  let run verbose json races aggregate =
    setup_logging verbose;
    let module P = Analysis.Policy in
    if races then begin
      let det = run_races_scenario () in
      if json then print_endline (Analysis.Race.to_json det)
      else print_string (Analysis.Race.to_text det)
    end
    else if aggregate then
      print_policy_reports json
        (run_cluster_metrics_scenario (fun t ->
             List.init (Cluster.Fleet.shard_count t) (fun i ->
                 ( Printf.sprintf "shard%d" i,
                   P.check (P.of_api (Cluster.Fleet.shard_sd t i)) ))))
          .result
    else print_policy_reports json (static_reports ())
  in
  Cmd.v (Cmd.info "analyze" ~doc ~man)
    Term.(const run $ verbose_arg $ json_arg $ races $ aggregate)

let () =
  let doc = "Secure Domain Rewind and Discard — simulation toolkit" in
  let info = Cmd.info "sdrad_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
       [ costs_cmd; cve_cmd; switch_cmd; render_cmd; kvbench_cmd; webbench_cmd;
         stats_cmd; metrics_cmd; rollback_report_cmd; incident_cmd; trace_cmd;
         analyze_cmd ]))
