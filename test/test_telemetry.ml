(* Tests for the telemetry subsystem: metrics-registry semantics,
   Prometheus exposition, the span-tracer ring, the monitor's bounded
   incident log, breaker-transition counters (exactly one increment per
   edge taken), the switch-cost anatomy band, tracing's zero simulated
   cost, seed-stability of the exposition, and the server scrape
   surfaces (kvcache [stats telemetry], httpd [GET /metrics]). *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module M = Telemetry.Metrics
module Trace = Telemetry.Trace
module Ctx = Telemetry.Context

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* {1 Metrics registry} *)

let test_counter_basics () =
  let m = M.create () in
  let c = M.counter m "a_total" in
  M.inc c;
  M.inc c;
  M.add c 3;
  check int "value" 5 (M.counter_value c);
  check bool "negative add refused" true (raises_invalid (fun () -> M.add c (-1)));
  check int "value untouched by refused add" 5 (M.counter_value c);
  (* Get-or-create: the same (name, labels) yields the same instrument. *)
  M.inc (M.counter m "a_total");
  check int "shared series" 6 (M.counter_value c)

let test_kind_mismatch_refused () =
  let m = M.create () in
  let _ = M.counter m "x" in
  check bool "gauge under counter name" true
    (raises_invalid (fun () -> M.gauge m "x"));
  check bool "histogram under counter name" true
    (raises_invalid (fun () -> M.histogram m "x"))

let test_gauge_and_histogram () =
  let m = M.create () in
  let g = M.gauge m "depth" in
  M.set g 2.5;
  check (Alcotest.float 0.0) "gauge value" 2.5 (M.gauge_value g);
  let h = M.histogram m "lat_cycles" ~buckets:[| 10.0; 100.0 |] in
  List.iter (M.observe h) [ 5.0; 50.0; 500.0 ];
  check int "hist count" 3 (M.hist_count h);
  check (Alcotest.float 0.0) "hist sum" 555.0 (M.hist_sum h);
  let text = M.expose m in
  (* Cumulative buckets plus the implicit +Inf. *)
  let contains needle =
    let n = String.length needle and hlen = String.length text in
    let rec go i = i + n <= hlen && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check bool "le=10" true (contains "lat_cycles_bucket{le=\"10\"} 1");
  check bool "le=100" true (contains "lat_cycles_bucket{le=\"100\"} 2");
  check bool "le=+Inf" true (contains "lat_cycles_bucket{le=\"+Inf\"} 3");
  check bool "sum" true (contains "lat_cycles_sum 555");
  check bool "count" true (contains "lat_cycles_count 3")

let test_labels_and_ordering () =
  let m = M.create () in
  (* Registered out of order; exposition must sort families by name and
     series by label set. *)
  let b = M.counter m "b_total" ~labels:[ ("k", "2") ] in
  let a = M.counter m "b_total" ~labels:[ ("k", "1") ] in
  let _ = M.gauge m "a_gauge" in
  M.inc a;
  M.add b 2;
  check int "three series" 3 (M.series_count m);
  let text = M.expose m in
  let idx needle =
    let n = String.length needle and hlen = String.length text in
    let rec go i =
      if i + n > hlen then Alcotest.fail (needle ^ " not exposed")
      else if String.sub text i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  check bool "families sorted" true (idx "a_gauge" < idx "b_total");
  check bool "series sorted by labels" true
    (idx "b_total{k=\"1\"} 1" < idx "b_total{k=\"2\"} 2")

let test_callback_instruments () =
  let m = M.create () in
  let n = ref 3 in
  M.counter_fn m "cb_total" (fun () -> !n);
  M.gauge_fn m "cb_gauge" (fun () -> float_of_int (2 * !n));
  n := 7;
  let text = M.expose m in
  let contains needle =
    let l = String.length needle and hlen = String.length text in
    let rec go i = i + l <= hlen && (String.sub text i l = needle || go (i + 1)) in
    go 0
  in
  check bool "counter sampled at exposition" true (contains "cb_total 7");
  check bool "gauge sampled at exposition" true (contains "cb_gauge 14")

let test_hist_buckets_and_quantiles () =
  let m = M.create () in
  let h = M.histogram m "lat_cycles" ~buckets:[| 10.0; 100.0; 1000.0 |] in
  List.iter (M.observe h) [ 5.0; 50.0; 60.0; 500.0; 5000.0 ];
  check bool "raw per-bucket counts, ascending" true
    (M.hist_buckets h = [ (10.0, 1); (100.0, 2); (1000.0, 1) ]);
  (* The implicit +Inf population is the count minus the listed ones. *)
  check int "one sample above the last bound" 1
    (M.hist_count h
    - List.fold_left (fun a (_, c) -> a + c) 0 (M.hist_buckets h));
  let q p = Stats.quantile_of_buckets (M.hist_buckets h) p in
  check bool "p50 interpolated inside the 10-100 bucket" true
    (q 0.5 > 10.0 && q 0.5 <= 100.0);
  check (Alcotest.float 1e-9) "ranks past the counts floor at the last bound"
    1000.0 (q 1.0);
  check bool "q outside [0,1] refused" true (raises_invalid (fun () -> q 1.5));
  check bool "all-zero histogram refused" true
    (raises_invalid (fun () -> Stats.quantile_of_buckets [ (10.0, 0) ] 0.5))

let test_exemplars_attached_and_rendered () =
  let m = M.create () in
  let h =
    M.histogram m "client_op_latency_cycles" ~buckets:[| 10.0; 100.0 |]
  in
  M.observe_exemplar h 50.0 ~exemplar:"0d325a9509bd23d4";
  (* An empty exemplar observes without attaching. *)
  M.observe_exemplar h 5.0 ~exemplar:"";
  check int "both observed" 2 (M.hist_count h);
  (match M.hist_exemplars h with
  | [ (bound, v, id) ] ->
      check (Alcotest.float 0.0) "bucket bound" 100.0 bound;
      check (Alcotest.float 0.0) "observed value" 50.0 v;
      check string "exemplar id" "0d325a9509bd23d4" id
  | l -> Alcotest.failf "expected one exemplar, got %d" (List.length l));
  let text = M.expose m in
  let contains needle =
    let l = String.length needle and hlen = String.length text in
    let rec go i = i + l <= hlen && (String.sub text i l = needle || go (i + 1)) in
    go 0
  in
  check bool "OpenMetrics-style rendering" true
    (contains "# {trace=\"0d325a9509bd23d4\"}");
  (* A later exemplar in the same bucket replaces the earlier one. *)
  M.observe_exemplar h 60.0 ~exemplar:"ffff000011112222";
  match M.hist_exemplars h with
  | [ (_, 60.0, id) ] -> check string "replaced" "ffff000011112222" id
  | _ -> Alcotest.fail "replacement failed"

(* {1 Causal trace context} *)

let test_context_ids_deterministic () =
  let a = Ctx.root "cli-3" and b = Ctx.root "cli-3" and c = Ctx.root "cli-4" in
  check bool "same name, same id" true (Ctx.trace a = Ctx.trace b);
  check bool "different name, different id" true (Ctx.trace a <> Ctx.trace c);
  check bool "never the zero wire encoding" true (Ctx.trace a <> 0);
  check bool "masked to 62 bits" true (Ctx.trace a lsr 62 = 0);
  check int "root span ordinal" 0 (Ctx.span a);
  let kid = Ctx.child a 2 in
  check bool "child keeps the trace" true (Ctx.trace kid = Ctx.trace a);
  check int "child span ordinal" 2 (Ctx.span kid);
  check bool "zero id means no context" true (Ctx.of_trace 0 = None);
  match Ctx.of_trace (Ctx.trace a) with
  | Some c' -> check bool "of_trace round-trips" true (Ctx.trace c' = Ctx.trace a)
  | None -> Alcotest.fail "nonzero id rejected"

let test_context_hex_roundtrip () =
  let c = Ctx.root "kv-incident" in
  let hex = Ctx.trace_hex c in
  check int "16 chars" 16 (String.length hex);
  String.iter
    (fun ch ->
      check bool "lowercase hex" true
        ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')))
    hex;
  (match Ctx.of_trace_hex hex with
  | Some c' -> check bool "round-trips" true (Ctx.trace c' = Ctx.trace c)
  | None -> Alcotest.fail "hex did not parse");
  check bool "garbage rejected" true (Ctx.of_trace_hex "not-hex-at-all" = None)

(* [of_trace_hex] as [Int64.of_string_opt] decoded it, the reference for
   the in-place [trace_id_at]: 16-char tokens over an alphabet biased to
   hex, uppercase and a stray 'g', with ids 0 and at or above 2^62. *)
let test_context_trace_id_at () =
  let ref_of_hex s =
    if
      String.length s = 16
      && String.for_all (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false) s
    then
      Option.bind (Int64.of_string_opt ("0x" ^ s)) (fun id ->
          Ctx.of_trace
            (Int64.to_int (Int64.logand id 0x3FFF_FFFF_FFFF_FFFFL)))
    else None
  in
  let rng = Random.State.make [| 18 |] in
  let alphabet = "0123456789abcdefABCDEFg" in
  let token () =
    match Random.State.int rng 8 with
    | 0 -> String.make 16 '0'
    | 1 -> "4" ^ String.make 15 '0'
    | 2 -> "c" ^ String.init 15 (fun _ -> alphabet.[Random.State.int rng 16])
    | 3 -> String.init 16 (fun _ -> alphabet.[Random.State.int rng 23])
    | _ -> String.init 16 (fun _ -> alphabet.[Random.State.int rng 16])
  in
  for _ = 1 to 2_000 do
    let t = token () in
    let want = ref_of_hex t in
    check bool ("of_trace_hex " ^ t) true (Ctx.of_trace_hex t = want);
    let pad = String.make (Random.State.int rng 4) ' ' in
    let at = Ctx.trace_id_at (pad ^ t ^ pad) (String.length pad) in
    let want_id = match want with Some c -> Ctx.trace c | None -> 0 in
    check int ("trace_id_at " ^ t) want_id at
  done;
  check int "15 digits" 0 (Ctx.trace_id_at "123456789abcdef" 0);
  check int "past the end" 0 (Ctx.trace_id_at "0123456789abcdef" 1);
  check bool "17 digits" true (Ctx.of_trace_hex "0123456789abcdef0" = None)

(* Trace ids are FNV-1a over the op string, masked to 62 bits with 0
   mapped to 1, as the [Int64] loop below computes it; the ids are a
   golden surface, so the native-int hash must match it bit for bit. *)
let test_context_hash_matches_int64 () =
  let reference s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s;
    let h = Int64.logand !h 0x3FFF_FFFF_FFFF_FFFFL in
    if h = 0L then 1L else h
  in
  let rng = Random.State.make [| 21 |] in
  let strings =
    "" :: "client-0" :: "yl17-4242"
    :: List.init 5_000 (fun _ ->
           String.init (Random.State.int rng 40) (fun _ ->
               Char.chr (Random.State.int rng 256)))
  in
  List.iter
    (fun s ->
      check bool (Printf.sprintf "hash of %S" s) true
        (Ctx.trace (Ctx.root s) = Int64.to_int (reference s)))
    strings

let test_context_traceparent_roundtrip () =
  let c = Ctx.child (Ctx.root "web-7") 3 in
  let tp = Ctx.to_traceparent c in
  check int "fixed width" 31 (String.length tp);
  check string "version prefix" "00-" (String.sub tp 0 3);
  check string "sampled flag" "-01" (String.sub tp 28 3);
  check string "trace id field" (Ctx.trace_hex c) (String.sub tp 3 16);
  (match Ctx.of_traceparent tp with
  | Some c' ->
      check bool "trace round-trips" true (Ctx.trace c' = Ctx.trace c);
      check int "span round-trips" 3 (Ctx.span c')
  | None -> Alcotest.fail "traceparent did not parse");
  check bool "garbage rejected" true (Ctx.of_traceparent "00-xyz" = None)

(* {1 Span tracer} *)

let test_trace_disabled_is_identity () =
  let tr = Trace.create () in
  check bool "starts disabled" false (Trace.enabled tr);
  let v = Trace.with_span tr "s" (fun () -> 7) in
  check int "body ran" 7 v;
  Trace.instant tr "i";
  check int "nothing recorded" 0 (Trace.recorded tr)

let test_trace_ring_bounds () =
  let tr = Trace.create ~capacity:4 () in
  Trace.set_enabled tr true;
  for i = 1 to 6 do
    Trace.instant tr (Printf.sprintf "e%d" i)
  done;
  check int "total recorded" 6 (Trace.recorded tr);
  check int "dropped oldest" 2 (Trace.dropped tr);
  let names = List.map (fun s -> s.Trace.s_name) (Trace.spans tr) in
  check (Alcotest.list string) "most recent retained, oldest first"
    [ "e3"; "e4"; "e5"; "e6" ] names;
  Trace.clear tr;
  check int "cleared" 0 (Trace.recorded tr)

let test_trace_nesting_and_durations () =
  Sched.main (fun _ ->
      let tr = Trace.create () in
      Trace.set_enabled tr true;
      Trace.with_span tr "outer" (fun () ->
          Sched.charge 10.0;
          Trace.with_span tr "inner" (fun () -> Sched.charge 5.0));
      (match Trace.spans tr with
      | [ inner; outer ] ->
          check string "inner first (completion order)" "inner"
            inner.Trace.s_name;
          check int "inner depth" 1 inner.Trace.s_depth;
          check (Alcotest.float 0.0) "inner duration" 5.0 inner.Trace.s_dur;
          check int "outer depth" 0 outer.Trace.s_depth;
          check (Alcotest.float 0.0) "outer duration" 15.0 outer.Trace.s_dur
      | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l)));
      (* A span is recorded even when the body raises. *)
      (try Trace.with_span tr "boom" (fun () -> failwith "x") with _ -> ());
      check int "raise still recorded" 3 (Trace.recorded tr);
      match Trace.aggregate tr with
      | [ ("boom", (1, _)); ("inner", (1, 5.0)); ("outer", (1, 15.0)) ] -> ()
      | _ -> Alcotest.fail "unexpected aggregate")

let test_chrome_json_shape () =
  Sched.main (fun _ ->
      let tr = Trace.create () in
      Trace.set_enabled tr true;
      Trace.with_span tr "s" ~args:[ ("udi", "5") ] (fun () -> Sched.charge 2.0);
      Trace.instant tr "mark";
      let j = Trace.to_chrome_json tr in
      let contains needle =
        let l = String.length needle and hlen = String.length j in
        let rec go i =
          i + l <= hlen && (String.sub j i l = needle || go (i + 1))
        in
        go 0
      in
      check bool "complete event" true (contains "\"ph\":\"X\"");
      check bool "instant event" true (contains "\"ph\":\"i\"");
      check bool "args carried" true (contains "\"udi\":\"5\"");
      check bool "wrapper" true (contains "{\"traceEvents\":["))

let test_aborted_span_flag () =
  Sched.main (fun _ ->
      let tr = Trace.create () in
      Trace.set_enabled tr true;
      Trace.with_span tr "clean" (fun () -> Sched.charge 1.0);
      (try
         Trace.with_span tr "doomed" (fun () ->
             Sched.charge 1.0;
             failwith "unwind")
       with Failure _ -> ());
      check int "one aborted span" 1 (Trace.aborted_spans tr);
      (match Trace.spans tr with
      | [ clean; doomed ] ->
          check bool "clean span unflagged" true
            (List.assoc_opt "aborted" clean.Trace.s_args = None);
          check bool "aborted flag appended" true
            (List.assoc_opt "aborted" doomed.Trace.s_args = Some "true")
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
      let j = Trace.to_chrome_json tr in
      let contains needle =
        let l = String.length needle and hlen = String.length j in
        let rec go i =
          i + l <= hlen && (String.sub j i l = needle || go (i + 1))
        in
        go 0
      in
      check bool "JSON boolean in the chrome export" true
        (contains "\"aborted\":true"))

(* {1 Monitor wiring} *)

let with_sdrad ?tracer f =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create ?tracer space in
  Sched.main (fun _ -> f space sd)

let abort_once sd ~udi =
  Api.run sd ~udi
    ~on_rewind:(fun _ -> ())
    (fun () ->
      Api.enter sd udi;
      Api.abort sd "drill")

let test_incident_ring_caps () =
  with_sdrad (fun _space sd ->
      for _ = 1 to 258 do
        abort_once sd ~udi:5
      done;
      let records = Api.audit_records sd in
      check int "ring holds the cap" 256 (List.length records);
      check (Alcotest.pair int int) "oldest two evicted" (3, 258)
        ( (List.hd records).Checkpoint.Rewind_log.r_id,
          (List.nth records 255).Checkpoint.Rewind_log.r_id );
      check int "two dropped" 2 (Api.audit_dropped sd);
      check int "rewind count unaffected" 258 (Api.rewind_count sd);
      (* The metrics report totals, not ring occupancy. *)
      let m = Api.metrics sd in
      check (Alcotest.option (Alcotest.float 0.)) "appended total"
        (Some 258.) (M.sample m "sdrad_audit_appended_total");
      check (Alcotest.option (Alcotest.float 0.)) "dropped total" (Some 2.)
        (M.sample m "sdrad_audit_dropped_total"))

let test_switch_metrics_and_spans () =
  let tracer = Trace.create () in
  with_sdrad ~tracer (fun _space sd ->
      Api.run sd ~udi:5
        ~on_rewind:(fun _ -> ())
        (fun () ->
          (* Enabled only around the pair, so the init/deinit monitor
             brackets stay out of the counts. *)
          Trace.set_enabled tracer true;
          Api.enter sd 5;
          Api.exit_domain sd;
          Trace.set_enabled tracer false);
      let m = Api.metrics sd in
      check int "enter counted" 1
        (M.counter_value (M.counter m "sdrad_domain_enters_total"));
      check int "exit counted" 1
        (M.counter_value (M.counter m "sdrad_domain_exits_total"));
      let agg = Trace.aggregate (Api.tracer sd) in
      let count n =
        match List.assoc_opt n agg with Some (c, _) -> c | None -> 0
      in
      (* One enter + one exit, each bracketing one monitor call: two PKRU
         writes per bracket. *)
      check int "enter span" 1 (count "switch.enter");
      check int "exit span" 1 (count "switch.exit");
      check int "four pkru writes" 4 (count "switch.pkru_write");
      check int "two stack swaps" 2 (count "switch.stack_swap"))

(* The one switch anatomy (E7, [sdrad_cli switch]): its span rows
   account for every cycle of a pair, and the PKRU write keeps the share
   the paper measures. *)
let test_anatomy_in_band () =
  let a = Scenario.switch_anatomy () in
  let sum = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 a.rows in
  check (Alcotest.float 0.0) "rows sum to the pair" a.pair sum;
  let share = List.assoc "switch.pkru_write" a.rows /. a.pair in
  check bool
    (Printf.sprintf "pkru share %.3f within the paper's 30-50%% band" share)
    true
    (share >= 0.30 && share <= 0.50);
  check (Alcotest.float 0.0) "four writes per pair" 4.0 a.writes;
  check (Alcotest.float 0.0) "no elision per pair" 0.0 a.elided

(* {1 Tracing costs no simulated time}

   E7 and the gate experiment read the switch anatomy from spans, which
   is sound only if the spans observe a run without moving it. One
   monitor script runs twice, tracer on and off: plain requests with
   admit events, requests under a batched gate, a rewind through two
   nested domains, and an explicit abort. *)

let monitor_script ~traced =
  let tracer = Trace.create () in
  Trace.set_enabled tracer traced;
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create ~tracer space in
  let clock =
    Sched.main (fun _ ->
        let request udi =
          Api.flight_event sd ~udi Checkpoint.Flight.Admit;
          Api.run sd ~udi
            ~on_rewind:(fun _ -> Alcotest.fail "unexpected rewind")
            (fun () ->
              Api.enter sd udi;
              Api.free sd ~udi (Api.malloc sd ~udi 64);
              Api.exit_domain sd)
        in
        for _ = 1 to 4 do
          request 1
        done;
        Api.with_gate sd (fun () ->
            for _ = 1 to 4 do
              request 2
            done);
        Api.run sd ~udi:3
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd 3;
            Api.run sd ~udi:4
              ~opts:{ Types.default_options with rewind = Types.Grandparent }
              ~on_rewind:(fun _ -> Alcotest.fail "rewound to the wrong domain")
              (fun () ->
                Api.enter sd 4;
                ignore (Space.load8 space 0)));
        Api.run sd ~udi:5
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd 5;
            Api.abort sd "planted");
        Sched.now ())
  in
  ( Trace.recorded tracer,
    clock,
    Space.wrpkru_writes space,
    Space.pkru_elided space,
    Api.flight_recorded sd,
    List.map
      (fun r -> (r.Checkpoint.Rewind_log.r_start, r.r_end))
      (Api.audit_records sd) )

let test_tracing_costs_no_time () =
  let spans, clock, writes, elided, events, audit =
    monitor_script ~traced:true
  in
  let none, clock', writes', elided', events', audit' =
    monitor_script ~traced:false
  in
  check bool "the traced run recorded spans" true (spans > 0);
  check int "the untraced run recorded none" 0 none;
  check (Alcotest.float 0.0) "same clock" clock' clock;
  check int "same WRPKRU writes" writes' writes;
  check int "same elisions" elided' elided;
  check int "same flight events" events' events;
  check int "two rewinds audited" 2 (List.length audit);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.0) (Alcotest.float 0.0)))
    "same audit windows" audit' audit

(* {1 Breaker transition counters} *)

let test_policy =
  {
    Supervisor.default_policy with
    budget_max = 3;
    budget_window = 1.0e9;
    backoff_base = 2_000.0;
    backoff_max = 20_000.0;
    cooldown = 200_000.0;
  }

let attempt sup sd space ~udi ~crash =
  Supervisor.run sup ~udi
    ~on_rewind:(fun _ -> `Rewound)
    ~on_busy:(fun ~until:_ -> `Busy)
    (fun () ->
      Api.enter sd udi;
      if crash then Fault_inject.wild_write space;
      Api.exit_domain sd;
      `Ok)

let test_transitions_once_per_edge () =
  with_sdrad (fun space sd ->
      Trace.set_enabled (Api.tracer sd) true;
      let sup = Supervisor.attach ~policy:test_policy sd in
      let udi = 5 in
      let edge ~from ~target = Supervisor.transition_count sup ~from ~target in
      (* A clean request from Closed takes no edge at all. *)
      check bool "clean run ok" true (attempt sup sd space ~udi ~crash:false = `Ok);
      check int "no self edge" 0
        (edge ~from:Supervisor.Closed ~target:Supervisor.Closed);
      (* Three faults: Closed->Backoff on the first, the breaker then
         stays in Backoff until the budget trips Backoff->Quarantined. *)
      for _ = 1 to 3 do
        ignore (attempt sup sd space ~udi ~crash:true)
      done;
      check int "Closed->Backoff once" 1
        (edge ~from:Supervisor.Closed ~target:Supervisor.Backoff);
      check int "Backoff->Quarantined once" 1
        (edge ~from:Supervisor.Backoff ~target:Supervisor.Quarantined);
      (* Cooldown, then the half-open probe admits and succeeds. *)
      Sched.sleep (test_policy.Supervisor.cooldown +. 1.0);
      check bool "probe ok" true (attempt sup sd space ~udi ~crash:false = `Ok);
      check int "Quarantined->Half_open once" 1
        (edge ~from:Supervisor.Quarantined ~target:Supervisor.Half_open);
      check int "Half_open->Closed once" 1
        (edge ~from:Supervisor.Half_open ~target:Supervisor.Closed);
      check bool "breaker closed again" true
        (Supervisor.breaker_state sup ~udi = Supervisor.Closed);
      (* One marker event per edge taken: Closed->Backoff,
         Backoff->Quarantined, Quarantined->Half_open, Half_open->Closed. *)
      let markers =
        List.filter
          (fun s -> s.Trace.s_name = "supervisor.transition")
          (Trace.spans (Api.tracer sd))
      in
      check int "one marker per edge" 4 (List.length markers))

(* {1 Seed stability} *)

(* Identical scenarios under the five chaos seeds must produce identical
   expositions: the seed feeds only the monitor's canary value, which no
   metric exposes. *)
let test_exposition_seed_stable () =
  let expo seed =
    let space = Space.create ~size_mib:32 () in
    let sd = Api.create ~seed space in
    let out = ref "" in
    Sched.main (fun _ ->
        let sup = Supervisor.attach ~policy:test_policy sd in
        ignore (attempt sup sd space ~udi:5 ~crash:false);
        ignore (attempt sup sd space ~udi:5 ~crash:true);
        out := M.expose (Api.metrics sd));
    !out
  in
  match List.map expo [ 11; 23; 37; 41; 53 ] with
  | first :: rest ->
      check bool "non-trivial exposition" true (String.length first > 200);
      List.iteri
        (fun i other ->
          check bool (Printf.sprintf "seed %d identical" i) true (other = first))
        rest
  | [] -> assert false

(* {1 Server scrape surfaces} *)

let test_kvcache_stats_telemetry () =
  let module Server = Kvcache.Server in
  let module Proto = Kvcache.Proto in
  let w = Scenario.world ~size_mib:128 ~monitor:Api.create () in
  let cfg =
    { Server.default_config with variant = Server.Sdrad; workers = 2 }
  in
  let got =
    (Scenario.kvcache w cfg
       (Script
          (fun _ ->
            let c = Netsim.connect w.net ~port:11211 in
            Netsim.send c (Proto.fmt_set ~key:"a" ~flags:0 ~value:"one");
            ignore (Netsim.recv c);
            Netsim.send c Proto.fmt_stats_telemetry;
            let got = Netsim.recv c in
            Netsim.close c;
            got)))
      .result
  in
  match got with
  | None -> Alcotest.fail "no telemetry reply"
  | Some text ->
      let contains needle =
        let l = String.length needle and hlen = String.length text in
        let rec go i =
          i + l <= hlen && (String.sub text i l = needle || go (i + 1))
        in
        go 0
      in
      check bool "server series" true (contains "kvcache_requests_total 2");
      check bool "core series in the same scrape" true
        (contains "sdrad_domain_enters_total");
      check bool "vmem series in the same scrape" true
        (contains "vmem_pkru_writes_total")

let test_httpd_metrics_endpoint () =
  let module Server = Httpd.Server in
  let w = Scenario.world ~size_mib:128 ~monitor:Api.create () in
  let fs = Httpd.Fs.create w.space in
  Httpd.Fs.add fs ~path:"/index.html" ~size:256;
  let cfg =
    { Server.default_config with variant = Server.Sdrad; workers = 1 }
  in
  let got =
    (Scenario.httpd w ~files:(Fun.const fs) cfg
       (Script
          (fun _ ->
            let c = Netsim.connect w.net ~port:8080 in
            Netsim.send c (Workload.Http_load.request ~path:"/index.html");
            ignore (Netsim.recv c);
            Netsim.close c;
            let c = Netsim.connect w.net ~port:8080 in
            Netsim.send c (Workload.Http_load.request ~path:"/metrics");
            let got = Netsim.recv c in
            Netsim.close c;
            got)))
      .result
  in
  match got with
  | None -> Alcotest.fail "no /metrics reply"
  | Some text ->
      let contains needle =
        let l = String.length needle and hlen = String.length text in
        let rec go i =
          i + l <= hlen && (String.sub text i l = needle || go (i + 1))
        in
        go 0
      in
      check bool "200 response" true (String.sub text 9 3 = "200");
      check bool "server series" true (contains "httpd_requests_total");
      check bool "core series in the same scrape" true
        (contains "sdrad_domain_enters_total")

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind mismatch refused" `Quick
            test_kind_mismatch_refused;
          Alcotest.test_case "gauge and histogram" `Quick
            test_gauge_and_histogram;
          Alcotest.test_case "labels and ordering" `Quick
            test_labels_and_ordering;
          Alcotest.test_case "callback instruments" `Quick
            test_callback_instruments;
          Alcotest.test_case "buckets and quantiles" `Quick
            test_hist_buckets_and_quantiles;
          Alcotest.test_case "exemplars" `Quick
            test_exemplars_attached_and_rendered;
        ] );
      ( "context",
        [
          Alcotest.test_case "deterministic ids" `Quick
            test_context_ids_deterministic;
          Alcotest.test_case "hex roundtrip" `Quick test_context_hex_roundtrip;
          Alcotest.test_case "trace_id_at matches the Int64 decoder" `Quick
            test_context_trace_id_at;
          Alcotest.test_case "traceparent roundtrip" `Quick
            test_context_traceparent_roundtrip;
          Alcotest.test_case "hash matches the Int64 FNV-1a" `Quick
            test_context_hash_matches_int64;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is identity" `Quick
            test_trace_disabled_is_identity;
          Alcotest.test_case "ring bounds" `Quick test_trace_ring_bounds;
          Alcotest.test_case "nesting and durations" `Quick
            test_trace_nesting_and_durations;
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
          Alcotest.test_case "aborted span flag" `Quick test_aborted_span_flag;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "incident ring caps" `Quick
            test_incident_ring_caps;
          Alcotest.test_case "switch metrics and spans" `Quick
            test_switch_metrics_and_spans;
          Alcotest.test_case "anatomy in band" `Quick test_anatomy_in_band;
          Alcotest.test_case "tracing costs no simulated time" `Quick
            test_tracing_costs_no_time;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "transitions once per edge" `Quick
            test_transitions_once_per_edge;
        ] );
      ( "stability",
        [
          Alcotest.test_case "exposition seed stable" `Quick
            test_exposition_seed_stable;
        ] );
      ( "servers",
        [
          Alcotest.test_case "kvcache stats telemetry" `Quick
            test_kvcache_stats_telemetry;
          Alcotest.test_case "httpd metrics endpoint" `Quick
            test_httpd_metrics_endpoint;
        ] );
    ]
