(* Per-layer metrics of one workload, each named [<layer>.<metric>] after
   the lib/ module it measures. They come from three sources, all read
   from outside the program: whole-run counters, the span tracer of the
   traced run, and the direct-call probes. README.md maps each to the
   end-to-end metric and workload it should move. *)

module Trace = Telemetry.Trace

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : int;  (* spans, probe calls or operations behind the value *)
}

let cost = Simkern.Cost.default
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* {1 Self time from spans}

   A span's self time is its duration minus its children's. Spans are
   recorded as they complete, so a child always precedes its parent:
   walking them in order while summing completed children per thread
   and depth attributes every child to the next enclosing span. *)

type self = { count : int; total : float }

let self_times tracers =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun spans ->
      let kids = Hashtbl.create 64 in
      List.iter
        (fun (s : Trace.span) ->
          if s.s_dur >= 0.0 then begin
            let sums =
              match Hashtbl.find_opt kids s.s_tid with
              | Some a -> a
              | None ->
                  let a = Array.make 64 0.0 in
                  Hashtbl.add kids s.s_tid a;
                  a
            in
            let d = min s.s_depth 62 in
            let self = s.s_dur -. sums.(d + 1) in
            sums.(d + 1) <- 0.0;
            sums.(d) <- sums.(d) +. s.s_dur;
            let prev =
              Option.value (Hashtbl.find_opt acc s.s_name)
                ~default:{ count = 0; total = 0.0 }
            in
            Hashtbl.replace acc s.s_name
              { count = prev.count + 1; total = prev.total +. self }
          end)
        spans)
    tracers;
  acc

(* Span name, and the whole-run counters whose sum is its call count. *)
let attributed_spans =
  let switches = [ "sdrad_domain_enters_total"; "sdrad_domain_exits_total" ] in
  [
    ("switch.enter", [ "sdrad_domain_enters_total" ]);
    ("switch.exit", [ "sdrad_domain_exits_total" ]);
    ("switch.stack_swap", switches);
    ("switch.bookkeeping", switches);
    ("switch.pkru_write", [ "vmem_pkru_writes_total"; "vmem_pkru_elided_total" ]);
    ("domain.body", [ "sdrad_domain_inits_total" ]);
    ("rewind", [ "sdrad_rewinds_total" ]);
    ("rewind.context_restore", [ "sdrad_rewinds_total" ]);
    ("rewind.heap_discard", [ "sdrad_rewinds_total" ]);
    ("rewind.policy_update", [ "sdrad_rewinds_total" ]);
  ]

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      Stats.percentile a 0.5

(* [o] is the untraced run, [traced] the traced rerun of it; [alloc] and
   [cpu] give host minor words and CPU seconds of both. Per-op values
   divide whole-run counts by every client operation the server saw:
   the load phase's records plus the attempted run-phase ops. *)
let compute ~(o : Workloads.outcome) ~(traced : Workloads.outcome) ~probes
    ~alloc:(alloc, alloc_traced) ~cpu:(cpu, cpu_traced) =
  let attempted = Array.length o.latencies in
  let ops = o.records + attempted in
  let fops = float_of_int ops in
  let c name = Option.value (List.assoc_opt name o.layer) ~default:0.0 in
  let per_op name = ratio (c name) fops in
  let per_kop name = 1000.0 *. per_op name in
  let m ?(samples = ops) name unit value = { name; unit; value; samples } in
  let selves = self_times traced.spans in
  let self name =
    match Hashtbl.find_opt selves name with
    | Some s -> (ratio s.total (float_of_int s.count), s.count)
    | None -> (0.0, 0)
  in
  let span_metric name span =
    let v, n = self span in
    m ~samples:n name "cycles" v
  in
  let attributed =
    List.fold_left
      (fun acc (span, counters) ->
        let mean, _ = self span in
        acc +. (mean *. List.fold_left (fun a k -> a +. c k) 0.0 counters))
      0.0 attributed_spans
  in
  let probe name =
    match List.assoc_opt name probes with
    | Some (p : Probes.result) -> p
    | None -> invalid_arg ("Layers.compute: no probe " ^ name)
  in
  let probe_ns prefix =
    let p = probe prefix in
    m ~samples:p.calls (prefix ^ "_host_ns") "ns" p.host_ns
  in
  let probe_cycles prefix =
    let p = probe prefix in
    m ~samples:p.calls (prefix ^ "_cycles") "cycles" p.cycles
  in
  let accesses = c "vmem_tlb_hits_total" +. c "vmem_tlb_misses_total" in
  let wire_cycles =
    (c "net_msgs" *. cost.Simkern.Cost.net_msg)
    +. (c "net_bytes" *. cost.Simkern.Cost.net_byte)
  in
  let rewinds = List.length o.rewind_latencies in
  [
    m "simkern.host_cpu_ns_per_op" "ns/op" (ratio (cpu *. 1e9) fops);
    m "simkern.threads" "count" (float_of_int o.threads);
    probe_ns "simkern.yield";
    probe_ns "simkern.spawn_join";
    m "vmem.accesses_per_op" "count/op" (ratio accesses fops);
    m "vmem.tlb_hit_rate" "ratio" (ratio (c "vmem_tlb_hits_total") accesses);
    m "vmem.tlb_shootdowns_per_kop" "count/kop"
      (per_kop "vmem_tlb_shootdowns_total");
    m "vmem.pkru_writes_per_op" "count/op" (per_op "vmem_pkru_writes_total");
    m "vmem.pkru_elided_per_op" "count/op" (per_op "vmem_pkru_elided_total");
    m "vmem.faults_per_kop" "count/kop" (per_kop "vmem_faults_total");
    m "tlsf.mallocs_per_op" "count/op" (per_op "tlsf_malloc_calls_total");
    m "tlsf.frees_per_op" "count/op" (per_op "tlsf_free_calls_total");
    m "core.enters_per_op" "count/op" (per_op "sdrad_domain_enters_total");
    m "core.gate_batched_calls_per_op" "count/op"
      (per_op "gate_batched_calls_total");
    span_metric "core.switch_self_cycles.enter" "switch.enter";
    span_metric "core.switch_self_cycles.exit" "switch.exit";
    span_metric "core.switch_self_cycles.pkru_write" "switch.pkru_write";
    span_metric "core.switch_self_cycles.stack_swap" "switch.stack_swap";
    span_metric "core.switch_self_cycles.bookkeeping" "switch.bookkeeping";
    span_metric "core.domain_body_cycles" "domain.body";
    m "core.rewinds_per_kop" "count/kop" (per_kop "sdrad_rewinds_total");
    span_metric "core.rewind_self_cycles.context_restore" "rewind.context_restore";
    span_metric "core.rewind_self_cycles.heap_discard" "rewind.heap_discard";
    span_metric "core.rewind_self_cycles.policy_update" "rewind.policy_update";
    m "core.attributed_cycles_per_op" "cycles/op" (ratio attributed fops);
    m ~samples:rewinds "core.rewind_us" "us"
      (Simkern.Cost.us_of_cycles cost (median o.rewind_latencies));
    probe_cycles "core.enter_exit";
    probe_ns "core.enter_exit";
    m "checkpoint.flight_events_per_op" "count/op"
      (per_op "sdrad_flight_events_total");
    probe_cycles "checkpoint.flight_event";
    probe_ns "checkpoint.flight_event";
    m "checkpoint.audit_records" "count" (c "sdrad_audit_appended_total");
    m "checkpoint.audit_bytes" "bytes" (c "audit_bytes");
    m "resilience.retry.retries_per_op" "count/op" (per_op "retries");
    m "resilience.journal.replay_hits_per_kop" "count/kop" (per_kop "replay_hits");
    m "resilience.supervisor.rejections_per_kop" "count/kop"
      (per_kop "supervisor_rejections_total");
    m "resilience.supervisor.backoff_waits_per_kop" "count/kop"
      (per_kop "supervisor_backoff_waits_total");
    m "resilience.fault_inject.fires" "count" (c "fault_fires");
    m "netsim.msgs_per_op" "count/op" (per_op "net_msgs");
    m "netsim.bytes_per_op" "bytes/op" (per_op "net_bytes");
    m "netsim.drops_per_kop" "count/kop" (per_kop "net_drops");
    m "netsim.wire_cycles_per_op" "cycles/op" (ratio wire_cycles fops);
    probe_ns "netsim.send_recv_1k";
    m "kvcache.worker_busy_frac" "ratio" (c "kv_busy_frac");
    m "kvcache.busy_cycles_per_op" "cycles/op" (per_op "kv_busy_cycles");
    m "kvcache.shed_per_kop" "count/kop" (per_kop "kv_shed");
    m "httpd.requests_served" "count" (c "http_served");
    m "httpd.busy_cycles_per_op" "cycles/op" (per_op "http_busy_cycles");
    probe_cycles "httpd.parse";
    probe_ns "httpd.parse";
    m "cluster.routed_per_op" "count/op" (per_op "routed");
    m "cluster.router_shed_per_kop" "count/kop" (per_kop "router_shed");
    m "cluster.forward_timeouts_per_kop" "count/kop" (per_kop "forward_timeouts");
    m "cluster.shard_busy_frac_max" "ratio" (c "shard_busy_frac_max");
    m "cluster.failovers" "count" (c "failovers");
    probe_ns "cluster.route";
    m ~samples:o.records "workload.load_cycles_per_record" "cycles"
      (ratio o.load_cycles (float_of_int o.records));
    m "telemetry.trace_alloc_overhead" "ratio" (ratio alloc_traced alloc -. 1.0);
    m "telemetry.trace_cpu_overhead" "ratio" (ratio cpu_traced cpu -. 1.0);
  ]

(* The attributed span cycles per op may not exceed the server threads'
   busy cycles per op: attribution never counts a cycle twice. *)
let attribution_fits metrics =
  let get n = (List.find (fun x -> x.name = n) metrics).value in
  get "core.attributed_cycles_per_op"
  <= get "kvcache.busy_cycles_per_op" +. get "httpd.busy_cycles_per_op"
