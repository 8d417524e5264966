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
module Server = Kvcache.Server
module Proto = Kvcache.Proto

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
      (* An application incident handler installed before the supervisor
         must keep firing after the supervisor attaches. *)
      let app_saw = ref 0 in
      Api.set_incident_handler sd (fun _ -> incr app_saw);
      let sup = Supervisor.attach ~policy:test_policy sd in
      ignore (attempt sup sd space ~udi:5 ~crash:true);
      check int "application handler still fired" 1 !app_saw;
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

(* {1 Acceptance: the DoS amplifier and its fix} *)

type dos_outcome = {
  rewinds : int;
  busy_replies : int;
  benign_failures : int;
  benign_ok : int;
  recovered : bool;
  crashed : bool;
}

(* A looping attacker from one source address reconnects after every
   rewind and fires the CVE payload again; benign clients run normal
   traffic from their own addresses. [supervised] decides whether a
   Supervisor gates the per-client domains. *)
let run_dos ~seed ~supervised ~attacks =
  let cfg =
    {
      Server.default_config with
      variant = Server.Sdrad;
      vulnerable = true;
      workers = 2;
      per_client_domains = true;
    }
  in
  let policy =
    {
      Supervisor.default_policy with
      budget_max = 3;
      budget_window = 1.0e9;
      backoff_base = 5_000.0;
      backoff_max = 50_000.0;
      cooldown = 2.0e6;
    }
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(Api.create ~virtual_keys:true)
      ?supervisor:(if supervised then Some (Supervisor.attach ~policy) else None)
      ()
  in
  let sched = w.sched and net = w.net in
  let attacker_src = 777 in
  let benign = 3 and ops_per_client = 25 in
  let benign_failures = ref 0 and benign_ok = ref 0 in
  let busy_replies = ref 0 and recovered = ref false in
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           let tids = ref [] in
           for i = 0 to benign - 1 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "good%d" i)
                 (fun () ->
                   let rng = Rng.create (seed + (100 * i)) in
                   let c = Netsim.connect net ~src:(1 + i) ~port:11211 in
                   for _ = 1 to ops_per_client do
                     Sched.sleep (float_of_int (Rng.int rng 8_000));
                     let key = Printf.sprintf "k%d" (Rng.int rng 20) in
                     let req =
                       if Rng.bool rng then Proto.fmt_get key
                       else
                         Proto.fmt_set ~key ~flags:0
                           ~value:(Bytes.to_string (Rng.bytes rng 64))
                     in
                     Netsim.send c req;
                     match Netsim.recv c with
                     | None -> incr benign_failures
                     | Some r -> (
                         match Proto.parse_reply r with
                         | Proto.Failed _ -> incr benign_failures
                         | _ -> incr benign_ok)
                   done;
                   Netsim.close c)
               :: !tids
           done;
           tids :=
             Sched.spawn sched ~name:"evil" (fun () ->
                 for _ = 1 to attacks do
                   Sched.sleep 20_000.0;
                   (* Reconnect from the same address: with per-client
                      domains the rewind budget follows the attacker. *)
                   let c = Netsim.connect net ~src:attacker_src ~port:11211 in
                   Netsim.send c
                     (Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                        ~value:(String.make 300 'X'));
                   (match Netsim.recv c with
                   | None -> () (* rewound; server closed the connection *)
                   | Some r ->
                       if r = Proto.server_error_busy then incr busy_replies);
                   Netsim.close c
                 done;
                 (* After the cooldown the attacker behaves: the half-open
                    probe must readmit and heal the domain. *)
                 if supervised then begin
                   Sched.sleep 2.5e6;
                   let c = Netsim.connect net ~src:attacker_src ~port:11211 in
                   Netsim.send c (Proto.fmt_get "pwn");
                   (match Netsim.recv c with
                   | Some r -> (
                       match Proto.parse_reply r with
                       | Proto.Failed _ -> ()
                       | _ -> recovered := true)
                   | None -> ());
                   Netsim.close c
                 end)
             :: !tids;
           List.iter Sched.join !tids))
  in
  {
    rewinds = Server.rewinds s;
    busy_replies = !busy_replies;
    benign_failures = !benign_failures;
    benign_ok = !benign_ok;
    recovered = !recovered;
    crashed = Server.crashed s;
  }

let test_dos_amplifier_fixed () =
  let attacks = 10 in
  let un = run_dos ~seed:17 ~supervised:false ~attacks in
  let sup = run_dos ~seed:17 ~supervised:true ~attacks in
  (* Unsupervised: every attack costs a full rewind, forever. *)
  check bool "servers stayed up" true (not (un.crashed || sup.crashed));
  check int "unsupervised rewinds unboundedly" attacks un.rewinds;
  (* Supervised: the attacker exhausts its budget and is fenced off. *)
  check int "supervised rewinds capped at the budget" 3 sup.rewinds;
  check int "remaining attacks turned away busy" (attacks - 3)
    sup.busy_replies;
  check int "zero benign failures under attack" 0 sup.benign_failures;
  check bool "benign traffic actually served" true
    (sup.benign_ok = un.benign_ok && sup.benign_ok = 3 * 25);
  (* And the quarantine is not a death sentence. *)
  check bool "attacker domain recovered via half-open probe" true
    sup.recovered

(* {1 Acceptance: reproducible chaos} *)

(* One injected chaos run: benign clients only, with the engine corrupting
   event-domain memory from inside at "kv.domain". Returns the rendered
   injection log and incident log. Both must be byte-identical across runs
   with the same (seed, plan). *)
let run_injected ~seed =
  let w = Scenario.world ~size_mib:128 ~monitor:Api.create () in
  let sched = w.sched and net = w.net in
  let fi =
    Fault_inject.create ~seed
      [
        Fault_inject.rule ~prob:0.15 ~site:"kv.domain" Fault_inject.Wild_write;
        Fault_inject.rule ~prob:0.05 ~site:"kv.domain" Fault_inject.Stack_smash;
      ]
  in
  let cfg =
    { Server.default_config with variant = Server.Sdrad; workers = 2 }
  in
  let { Scenario.server = s; _ } =
    Scenario.kvcache ~faults:fi w cfg
      (Script
         (fun _ ->
           let tids = ref [] in
           for i = 0 to 3 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "cl%d" i)
                 (fun () ->
                   let rng = Rng.create (seed + i) in
                   (* Reconnect per request: a rewind may close the conn. *)
                   for _ = 1 to 25 do
                     Sched.sleep (float_of_int (Rng.int rng 10_000));
                     let c = Netsim.connect net ~port:11211 in
                     let key = Printf.sprintf "k%d" (Rng.int rng 10) in
                     Netsim.send c
                       (Proto.fmt_set ~key ~flags:0
                          ~value:(Bytes.to_string (Rng.bytes rng 48)));
                     ignore (Netsim.recv c);
                     Netsim.close c
                   done)
               :: !tids
           done;
           List.iter Sched.join !tids))
  in
  let incident_log =
    Api.incidents (Option.get w.sd)
    |> List.map (fun f -> Format.asprintf "%a" Types.pp_fault f)
    |> String.concat "\n"
  in
  (Fault_inject.log_to_string fi, incident_log, Server.rewinds s)

let test_injection_replayable () =
  let log1, inc1, rewinds1 = run_injected ~seed:91 in
  let log2, inc2, rewinds2 = run_injected ~seed:91 in
  check bool "faults were injected" true (rewinds1 > 0);
  check int "identical rewind counts" rewinds1 rewinds2;
  check string "byte-identical injection logs" log1 log2;
  check string "byte-identical incident logs" inc1 inc2;
  let log3, _, _ = run_injected ~seed:92 in
  check bool "different seed, different fault plan" true (log1 <> log3)

let injection_prop =
  QCheck.Test.make ~name:"every injected corruption rewinds, never crashes"
    ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let log, _, rewinds = run_injected ~seed in
      (* Wild_write and Stack_smash always fault inside the domain, so
         every fired event is one rewind. *)
      let fired =
        List.length (String.split_on_char '\n' (String.trim log))
      in
      (log = "" && rewinds = 0) || fired = rewinds)

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
