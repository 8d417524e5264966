(* Tests for the resilience layer: the domain supervisor (rewind budgets,
   exponential backoff, quarantine, half-open recovery) and the
   deterministic fault-injection engine, plus the end-to-end acceptance
   scenario — a looping attacker turns unlimited rewind-and-discard into
   a DoS amplifier against the unsupervised server, while the supervised
   server quarantines the attacker after its budget, keeps benign traffic
   at zero failures, and heals through a half-open probe. *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Types = Sdrad.Types
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let with_sdrad f =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  Sched.main (fun _ -> f space sd)

(* A policy with short horizons so state transitions happen within a few
   simulated milliseconds. *)
let test_policy =
  {
    Supervisor.default_policy with
    budget_max = 3;
    budget_window = 1.0e9;
    backoff_base = 2_000.0;
    backoff_max = 20_000.0;
    cooldown = 200_000.0;
  }

(* One supervised attempt against [udi]: [crash] faults inside the domain
   (stray store into the unmapped page), otherwise the body completes. *)
let attempt sup sd space ~udi ~crash =
  Supervisor.run sup ~udi
    ~on_rewind:(fun _ -> `Rewound)
    ~on_busy:(fun ~until:_ -> `Busy)
    (fun () ->
      Api.enter sd udi;
      if crash then Fault_inject.wild_write space;
      Api.exit_domain sd;
      `Ok)

(* {1 Supervisor unit tests} *)

let test_budget_trips_quarantine () =
  with_sdrad (fun space sd ->
      let sup = Supervisor.attach ~policy:test_policy sd in
      let udi = 5 in
      for i = 1 to 3 do
        check bool
          (Printf.sprintf "fault %d rewinds" i)
          true
          (attempt sup sd space ~udi ~crash:true = `Rewound)
      done;
      check bool "breaker quarantined after budget" true
        (Supervisor.breaker_state sup ~udi = Supervisor.Quarantined);
      check bool "admission rejected" true
        (attempt sup sd space ~udi ~crash:false = `Busy);
      (* The rejection really was served without touching the domain. *)
      check int "still exactly budget_max rewinds" 3 (Api.rewind_count sd))

let test_backoff_delays_reinit () =
  with_sdrad (fun space sd ->
      (* A backoff long enough that the rewind's own cost cannot swallow
         it: the next admission must actually sleep. *)
      let policy =
        { test_policy with Supervisor.backoff_base = 500_000.0;
          backoff_max = 1.0e6 }
      in
      let sup = Supervisor.attach ~policy sd in
      let udi = 5 in
      let fault_at = Sched.now () in
      ignore (attempt sup sd space ~udi ~crash:true);
      check bool "breaker backing off" true
        (Supervisor.breaker_state sup ~udi = Supervisor.Backoff);
      ignore (attempt sup sd space ~udi ~crash:false);
      check bool "second admission waited out the backoff" true
        (Sched.now () -. fault_at >= policy.Supervisor.backoff_base);
      check int "one backoff wait recorded" 1
        (List.assoc "backoff_waits" (Supervisor.stats sup));
      check bool "success closes the breaker" true
        (Supervisor.breaker_state sup ~udi = Supervisor.Closed))

let test_half_open_probe_recovers () =
  with_sdrad (fun space sd ->
      let sup = Supervisor.attach ~policy:test_policy sd in
      let udi = 5 in
      for _ = 1 to 3 do
        ignore (attempt sup sd space ~udi ~crash:true)
      done;
      check bool "rejected during cooldown" true
        (attempt sup sd space ~udi ~crash:false = `Busy);
      Sched.sleep (test_policy.Supervisor.cooldown +. 1.0);
      check bool "probe admitted and served" true
        (attempt sup sd space ~udi ~crash:false = `Ok);
      check bool "breaker closed after good probe" true
        (Supervisor.breaker_state sup ~udi = Supervisor.Closed);
      check int "probe success counted" 1
        (List.assoc "probe_successes" (Supervisor.stats sup));
      (* Fully recovered: further traffic is admitted directly. *)
      check bool "admitted after recovery" true
        (attempt sup sd space ~udi ~crash:false = `Ok))

let test_failed_probe_requarantines () =
  with_sdrad (fun space sd ->
      let sup = Supervisor.attach ~policy:test_policy sd in
      let udi = 5 in
      for _ = 1 to 3 do
        ignore (attempt sup sd space ~udi ~crash:true)
      done;
      Sched.sleep (test_policy.Supervisor.cooldown +. 1.0);
      check bool "probe rewinds" true
        (attempt sup sd space ~udi ~crash:true = `Rewound);
      check bool "straight back to quarantine" true
        (Supervisor.breaker_state sup ~udi = Supervisor.Quarantined);
      check int "two quarantines recorded" 2
        (List.assoc "quarantines" (Supervisor.stats sup)))

let test_supervision_is_per_udi () =
  with_sdrad (fun space sd ->
      let sup = Supervisor.attach ~policy:test_policy sd in
      for _ = 1 to 3 do
        ignore (attempt sup sd space ~udi:5 ~crash:true)
      done;
      check bool "faulty udi fenced" true
        (attempt sup sd space ~udi:5 ~crash:false = `Busy);
      check bool "innocent udi unaffected" true
        (attempt sup sd space ~udi:6 ~crash:false = `Ok);
      check bool "states reflect both" true
        (Supervisor.states sup
        = [ (5, Supervisor.Quarantined); (6, Supervisor.Closed) ]))

let test_protect_call_rejection () =
  with_sdrad (fun space sd ->
      let sup = Supervisor.attach ~policy:test_policy sd in
      let udi = 5 in
      for _ = 1 to 3 do
        ignore (attempt sup sd space ~udi ~crash:true)
      done;
      match Supervisor.protect_call sup ~udi ~arg:"x" (fun _ _ -> ()) with
      | Supervisor.Rejected { udi = u; until } ->
          check int "rejection names the udi" udi u;
          check bool "release time in the future" true (until > Sched.now ())
      | Supervisor.Ok _ | Supervisor.Faulted _ ->
          Alcotest.fail "expected Rejected")

let test_composes_with_existing_handler () =
  with_sdrad (fun space sd ->
      (* Application subscribers added before and after the supervisor
         attaches all keep firing, and the supervisor keeps counting. *)
      let before = ref 0 and after = ref 0 in
      Api.on_incident sd (fun _ -> incr before);
      let sup = Supervisor.attach ~policy:test_policy sd in
      Api.on_incident sd (fun _ -> incr after);
      ignore (attempt sup sd space ~udi:5 ~crash:true);
      check int "earlier subscriber still fired" 1 !before;
      check int "later subscriber fired" 1 !after;
      check int "supervisor saw it too" 1
        (List.assoc "rewinds_seen" (Supervisor.stats sup)))

(* The heartbeat wire format: a fleet shard writes its worst breaker with
   [breaker_to_string] and the router reads it back with
   [breaker_of_string]. *)
let test_breaker_wire_roundtrip () =
  let all =
    Supervisor.[ Closed; Backoff; Quarantined; Half_open ]
  in
  List.iter
    (fun b ->
      check bool
        (Supervisor.breaker_to_string b ^ " round-trips")
        true
        (Supervisor.breaker_of_string (Supervisor.breaker_to_string b) = b))
    all;
  check int "four distinct names" 4
    (List.length
       (List.sort_uniq compare (List.map Supervisor.breaker_to_string all)));
  check bool "unknown reads as closed" true
    (Supervisor.breaker_of_string "bogus" = Supervisor.Closed);
  with_sdrad (fun space sd ->
      let sup = Supervisor.attach ~policy:test_policy sd in
      check bool "worst of nothing is closed" true
        (Supervisor.worst_breaker sup = Supervisor.Closed);
      ignore (attempt sup sd space ~udi:6 ~crash:false);
      for _ = 1 to 3 do
        ignore (attempt sup sd space ~udi:5 ~crash:true)
      done;
      check bool "worst is the quarantined udi's" true
        (Supervisor.worst_breaker sup = Supervisor.Quarantined))

(* {1 Fault-injection engine} *)

let test_decide_deterministic () =
  let plan =
    [
      Fault_inject.rule ~prob:0.4 ~site:"a" Fault_inject.Wild_write;
      Fault_inject.rule ~prob:0.3 ~site:"b" Fault_inject.Net_drop;
    ]
  in
  let visit_sites fi =
    List.init 200 (fun i -> Fault_inject.decide fi ~site:(if i mod 3 = 0 then "b" else "a"))
  in
  let f1 = Fault_inject.create ~seed:42 plan in
  let f2 = Fault_inject.create ~seed:42 plan in
  check bool "same seed, same decisions" true (visit_sites f1 = visit_sites f2);
  check string "same seed, same log" (Fault_inject.log_to_string f1)
    (Fault_inject.log_to_string f2);
  check bool "some rules actually fired" true (Fault_inject.fires f1 > 0);
  let f3 = Fault_inject.create ~seed:43 plan in
  check bool "different seed, different sequence" false
    (visit_sites f1 = visit_sites f3)

let test_rule_budgets () =
  let fi =
    Fault_inject.create ~seed:1
      [ Fault_inject.rule ~max_fires:2 ~site:"s" Fault_inject.Alloc_fail ]
  in
  let fired =
    List.init 10 (fun _ -> Fault_inject.decide fi ~site:"s")
    |> List.filter Option.is_some |> List.length
  in
  check int "max_fires caps the rule" 2 fired;
  check int "event log matches" 2 (Fault_inject.fires fi)

let test_zero_probability_never_fires () =
  let fi =
    Fault_inject.create ~seed:7
      [ Fault_inject.rule ~prob:0.0 ~site:"s" Fault_inject.Wild_write ]
  in
  for _ = 1 to 50 do
    check bool "never fires" true (Fault_inject.decide fi ~site:"s" = None)
  done

(* The engine against its reference (test/fault_inject_ref.ml), the
   closure-based decider it replaced. Random plans — sites shared by
   several rules, probabilities of 0, 1 and in between, budgets of a
   few fires or none — and random consults, some of a site no rule
   names, inside a thread whose clock moves between them: every
   consult fires the same kind or none, the event logs render the same,
   and the streams stay in step, which 32 more consults of a
   probability-0.5 "probe" rule at the end of every plan read off as 32
   bits of the next draws. *)
let diff_sites = [| "a"; "b"; "c"; "none" |]

let diff_kinds =
  Fault_inject.
    [|
      Alloc_fail; Bit_flip; Wild_write; Net_drop; Net_truncate; Net_delay 700.0;
      Kill_thread; Rewind_interrupt; Net_partition 3_000.0;
    |]

let random_plan rng =
  List.init (Rng.int rng 7) (fun _ ->
      let prob =
        match Rng.int rng 4 with 0 -> 0.0 | 1 -> 1.0 | 2 -> 0.5 | _ -> Rng.float rng
      in
      let max_fires = if Rng.bool rng then max_int else Rng.int rng 4 in
      Fault_inject.rule ~prob ~max_fires
        ~site:diff_sites.(Rng.int rng 3)
        diff_kinds.(Rng.int rng (Array.length diff_kinds)))
  @ [ Fault_inject.rule ~prob:0.5 ~site:"probe" Fault_inject.Wild_write ]

let decide_differential_prop =
  QCheck.Test.make ~name:"decide matches the closure-based decider" ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (plan_seed, seed) ->
      let rng = Rng.create plan_seed in
      let plan = random_plan rng in
      let fi = Fault_inject.create ~seed plan in
      let reference = Fault_inject_ref.create ~seed plan in
      Sched.main (fun _ ->
          for _ = 1 to 1 + Rng.int rng 300 do
            Sched.charge (float_of_int (Rng.int rng 50));
            let site = diff_sites.(Rng.int rng (Array.length diff_sites)) in
            if Fault_inject.decide fi ~site <> Fault_inject_ref.decide reference ~site
            then QCheck.Test.fail_reportf "site %s fired differently" site
          done);
      Fault_inject.log_to_string fi = Fault_inject_ref.log_to_string reference
      && List.for_all
           (fun _ ->
             Fault_inject.decide fi ~site:"probe"
             = Fault_inject_ref.decide reference ~site:"probe")
           (List.init 32 Fun.id))

(* A consult that fires nothing allocates nothing: the first rule of the
   site draws and misses, the second has no budget left, and a site no
   rule names draws nothing. 7.5 words per consult on kv-write-faults
   while the decider built a closure per consult and boxed each draw. *)
let test_decide_allocation () =
  let fi =
    Fault_inject.create ~seed:5
      [
        Fault_inject.rule ~prob:0.0 ~site:"kv.domain" Fault_inject.Wild_write;
        Fault_inject.rule ~max_fires:0 ~site:"kv.domain" Fault_inject.Bit_flip;
        Fault_inject.rule ~prob:0.5 ~site:"net" Fault_inject.Net_drop;
      ]
  in
  let words =
    Sched.main (fun _ ->
        Alloc_probe.words_per_call ~n:10_000 (fun () ->
            ignore (Fault_inject.decide fi ~site:"kv.domain");
            ignore (Fault_inject.decide fi ~site:"httpd.parse")))
  in
  check bool
    (Printf.sprintf "a consult allocates %.1f minor words (budget 0)" words)
    true (words <= 0.0);
  check int "nothing fired" 0 (Fault_inject.fires fi)

(* An incident then the next success: Closed -> Backoff -> Closed, with
   tracing off. It allocates nothing: each edge's counter is made on its
   first use and kept, so no label list is built and no counter looked
   up by name; trace arguments and log closures are built only when
   they are reported; the clock is read from its cell, the backoff
   times are kept unboxed and the window's rewind times in place. The
   incidents are 10^10 cycles apart, past the window, and the clock
   passes each retry time before the admission, so none waits. *)
let test_incident_success_allocation () =
  with_sdrad (fun _space sd ->
      let sup = Supervisor.attach ~policy:test_policy sd in
      let udi = 5 and calls = 300 in
      let faults =
        Array.init calls (fun i ->
            {
              Types.failed_udi = udi;
              cause = Types.Explicit "probe";
              tid = 0;
              at = float_of_int i *. 1e10;
            })
      in
      let next = ref 0 in
      let cycle () =
        Supervisor.on_incident sup faults.(!next);
        incr next;
        Sched.charge 1e10;
        (match Supervisor.admit sup ~udi with
        | Supervisor.Admitted -> ()
        | Supervisor.Probe | Supervisor.Busy _ ->
            Alcotest.fail "a backing-off domain was not admitted");
        Supervisor.succeed sup ~udi
      in
      let words = Alloc_probe.words_per_call ~n:200 cycle in
      check bool
        (Printf.sprintf
           "an incident and the next success allocate %.1f words (budget 0)"
           words)
        true (words <= 0.0);
      check bool "closed again" true
        (Supervisor.breaker_state sup ~udi = Supervisor.Closed);
      check int "no quarantine" 0
        (List.assoc "quarantines" (Supervisor.stats sup));
      check int "no backoff wait" 0
        (List.assoc "backoff_waits" (Supervisor.stats sup));
      List.iter
        (fun (from, target) ->
          check int
            (Printf.sprintf "%s -> %s counted"
               (Supervisor.breaker_to_string from)
               (Supervisor.breaker_to_string target))
            calls
            (Supervisor.transition_count sup ~from ~target);
          check bool "in the registry" true
            (Telemetry.Metrics.sample (Api.metrics sd)
               ~labels:
                 [
                   ("from", Supervisor.breaker_to_string from);
                   ("to", Supervisor.breaker_to_string target);
                 ]
               "supervisor_transitions_total"
            = Some (float_of_int calls)))
        [ (Supervisor.Closed, Supervisor.Backoff);
          (Supervisor.Backoff, Supervisor.Closed) ])

let test_arm_tlsf_fails_allocations () =
  with_sdrad (fun space _sd ->
      let heap = Tlsf.create space ~name:"fi-test" in
      let region = Space.mmap space ~len:(64 * 1024) ~prot:Vmem.Prot.rw ~pkey:0 in
      Tlsf.add_region heap ~addr:region ~len:(64 * 1024);
      let fi =
        Fault_inject.create ~seed:3
          [ Fault_inject.rule ~max_fires:1 ~site:"heap" Fault_inject.Alloc_fail ]
      in
      Fault_inject.arm_tlsf fi heap ~site:"heap";
      check bool "first malloc injected to fail" true
        (Tlsf.malloc_opt heap 128 = None);
      check bool "second malloc succeeds" true (Tlsf.malloc_opt heap 128 <> None))

let test_arm_netsim_drops_and_truncates () =
  let space = Space.create ~size_mib:16 () in
  let sched = Sched.create () in
  let net = Netsim.create (Space.cost space) in
  let got = ref [] in
  let fi =
    Fault_inject.create ~seed:5
      [
        Fault_inject.rule ~max_fires:1 ~site:"net" Fault_inject.Net_drop;
        Fault_inject.rule ~max_fires:1 ~site:"net" Fault_inject.Net_truncate;
      ]
  in
  Fault_inject.arm_netsim fi net ~site:"net";
  let _ =
    Sched.spawn sched ~name:"server" (fun () ->
        let l = Netsim.listen net ~port:1 in
        match Netsim.accept l with
        | None -> ()
        | Some c ->
            let rec drain () =
              match Netsim.recv c with
              | Some m ->
                  got := m :: !got;
                  drain ()
              | None -> ()
            in
            drain ();
            Netsim.close_listener l)
  in
  let _ =
    Sched.spawn sched ~name:"client" (fun () ->
        let c = Netsim.connect net ~port:1 in
        for i = 1 to 4 do
          Netsim.send c (Printf.sprintf "message-%d!" i)
        done;
        Netsim.close c)
  in
  Sched.run sched;
  let got = List.rev !got in
  (* Four sends, one dropped; one of the delivered is a strict prefix. *)
  check int "one message dropped" 3 (List.length got);
  check bool "one message truncated" true
    (List.exists (fun m -> String.length m < String.length "message-1!") got);
  check int "both rules fired" 2 (Fault_inject.fires fi)

let test_kill_thread () =
  let sched = Sched.create () in
  let cleaned = ref false in
  let victim =
    Sched.spawn sched ~name:"victim" (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            while true do
              Sched.sleep 1_000.0
            done))
  in
  let fi =
    Fault_inject.create ~seed:9
      [ Fault_inject.rule ~site:"kill" Fault_inject.Kill_thread ]
  in
  let _ =
    Sched.spawn sched ~name:"killer" (fun () ->
        Sched.sleep 5_000.0;
        check bool "kill fired" true
          (Fault_inject.maybe_kill fi ~site:"kill" ~sched ~tid:victim))
  in
  Sched.run sched;
  check bool "finalizer ran on kill" true !cleaned;
  check bool "outcome is Failed Killed" true
    (Sched.outcome sched victim = Some (Sched.Failed Sched.Killed))

let test_smash_canary_causes_rewind () =
  with_sdrad (fun _space sd ->
      let cause = ref None in
      Api.run sd ~udi:1
        ~on_rewind:(fun f -> cause := Some f.Types.cause)
        (fun () ->
          Api.enter sd 1;
          Fault_inject.smash_canary sd);
      check bool "stack smash detected and rewound" true
        (!cause = Some Types.Stack_smash))

(* {1 Acceptance: the DoS amplifier and its fix}

   [Invariants.run_dos]: a looping attacker turns unlimited rewinds into
   a DoS amplifier against the unsupervised server; the supervised one
   caps its rewinds at the budget, turns the rest away busy, keeps benign
   traffic at zero failures and heals through a half-open probe. *)

let expect name ok = check bool name true ok

let test_dos_amplifier_fixed () =
  let attacks = 10 in
  let unsupervised = Invariants.run_dos ~seed:17 ~supervised:false ~attacks in
  let supervised = Invariants.run_dos ~seed:17 ~supervised:true ~attacks in
  Invariants.dos_holds expect ~attacks ~unsupervised ~supervised

(* {1 Acceptance: reproducible chaos} *)

(* [Invariants.run_injected]: benign clients only, with the engine
   corrupting event-domain memory from inside at "kv.domain". Its
   injection and incident logs must be byte-identical across runs with
   the same (seed, plan). *)
let test_injection_replayable () =
  let a = Invariants.run_injected ~seed:91 in
  let b = Invariants.run_injected ~seed:91 in
  Invariants.injected_holds expect a;
  Invariants.injected_replays expect a b;
  let c = Invariants.run_injected ~seed:92 in
  check bool "different seed, different fault plan" true
    (Fault_inject.log_to_string a.inj_faults
    <> Fault_inject.log_to_string c.inj_faults)

let injection_prop =
  QCheck.Test.make ~name:"every injected corruption rewinds, never crashes"
    ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      Invariants.holds (fun expect ->
          Invariants.injected_holds expect (Invariants.run_injected ~seed)))

let () =
  Alcotest.run "resilience"
    [
      ( "supervisor",
        [
          Alcotest.test_case "budget trips quarantine" `Quick
            test_budget_trips_quarantine;
          Alcotest.test_case "backoff delays re-init" `Quick
            test_backoff_delays_reinit;
          Alcotest.test_case "half-open probe recovers" `Quick
            test_half_open_probe_recovers;
          Alcotest.test_case "failed probe re-quarantines" `Quick
            test_failed_probe_requarantines;
          Alcotest.test_case "per-udi isolation" `Quick
            test_supervision_is_per_udi;
          Alcotest.test_case "protect_call rejection" `Quick
            test_protect_call_rejection;
          Alcotest.test_case "breaker wire round-trip" `Quick
            test_breaker_wire_roundtrip;
          Alcotest.test_case "composes with app handler" `Quick
            test_composes_with_existing_handler;
          Alcotest.test_case "incident and success host allocation" `Quick
            test_incident_success_allocation;
        ] );
      ( "fault-inject",
        [
          Alcotest.test_case "deterministic decisions" `Quick
            test_decide_deterministic;
          Alcotest.test_case "rule budgets" `Quick test_rule_budgets;
          Alcotest.test_case "zero probability" `Quick
            test_zero_probability_never_fires;
          Alcotest.test_case "tlsf adapter" `Quick
            test_arm_tlsf_fails_allocations;
          Alcotest.test_case "netsim adapter" `Quick
            test_arm_netsim_drops_and_truncates;
          Alcotest.test_case "thread kill" `Quick test_kill_thread;
          Alcotest.test_case "canary smash rewinds" `Quick
            test_smash_canary_causes_rewind;
          QCheck_alcotest.to_alcotest decide_differential_prop;
          Alcotest.test_case "decide host allocation" `Quick
            test_decide_allocation;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "DoS amplifier fixed" `Slow
            test_dos_amplifier_fixed;
          Alcotest.test_case "injection replayable" `Slow
            test_injection_replayable;
          QCheck_alcotest.to_alcotest injection_prop;
        ] );
    ]
