(* Tests for the checkpoint & restore baseline and the stats helpers. *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Sched = Simkern.Sched
module Cost = Simkern.Cost

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* {1 Checkpoint} *)

let test_snapshot_restores_contents () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:8 () in
      let a = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
      Space.store_string s a "before checkpoint";
      let snap = Checkpoint.take s in
      Space.store_string s a "after, corrupted!";
      Checkpoint.restore s snap;
      check Alcotest.string "contents rolled back" "before checkpoint"
        (Space.read_string s a 17))

let test_snapshot_restores_mappings () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:8 () in
      let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
      Space.store8 s a 7;
      let snap = Checkpoint.take s in
      Space.munmap s a;
      check bool "unmapped" false (Space.is_mapped s a);
      Checkpoint.restore s snap;
      check bool "mapping back" true (Space.is_mapped s a);
      check int "contents back" 7 (Space.load8 s a);
      (* The allocation registry is restored too: munmap must work. *)
      Space.munmap s a)

let test_snapshot_cost_scales_with_size () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:32 () in
      let small = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
      ignore small;
      let snap1 = Checkpoint.take s in
      let big = Space.mmap s ~len:(4 * 1024 * 1024) ~prot:Prot.rw ~pkey:0 in
      ignore big;
      let snap2 = Checkpoint.take s in
      check bool "bigger image" true (Checkpoint.bytes snap2 > Checkpoint.bytes snap1);
      check bool "costlier dump" true
        (Checkpoint.take_cycles s snap2 > Checkpoint.take_cycles s snap1);
      check bool "costlier restore" true
        (Checkpoint.restore_cycles s snap2 > Checkpoint.restore_cycles s snap1))

let test_restart_dominated_by_reload () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:8 () in
      let cold = Checkpoint.restart_cycles s ~reload_bytes:0 in
      let warm = Checkpoint.restart_cycles s ~reload_bytes:(1024 * 1024 * 1024) in
      (* Reloading 1 GiB of cache must cost orders of magnitude more than
         the bare restart — the paper's Memcached cold-start problem. *)
      check bool "reload dominates" true (warm > 1000.0 *. cold))

(* {1 Transactional rewind} *)

(* Differential property: interrupting a multi-domain rewind at any step
   (a second fault mid-discard, absorbed by the two-phase intent/commit
   protocol) must leave exactly the state an uninterrupted rewind leaves —
   same audit record (modulo interrupt count and virtual-time window),
   same surviving domains, same monitor-heap footprint, same Dlock
   poisoning. The domain tree is randomized per seed (depth <= 4: an
   entered chain plus Ready children, one of which holds a lock). *)

module Api = Sdrad.Api
module Dlock = Sdrad.Dlock
module Rl = Checkpoint.Rewind_log
module Fl = Checkpoint.Flight

let run_rewind_scenario ~seed ~hook =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create ~seed space in
  let rng = Simkern.Rng.create ((seed * 7919) + 13) in
  let depth = 1 + Simkern.Rng.int rng 3 in
  let ready_children = 1 + Simkern.Rng.int rng 3 in
  let lock_child = Simkern.Rng.int rng ready_children in
  let with_grandchild = depth <= 2 && Simkern.Rng.int rng 2 = 1 in
  let lock = Dlock.create sd in
  let udis = ref [] in
  let consultations = ref 0 in
  Api.set_rewind_fault_hook sd
    (Some
       (fun () ->
         let i = !consultations in
         incr consultations;
         hook i));
  Sched.main (fun _ ->
      let rec chain d =
        udis := d :: !udis;
        Api.run sd ~udi:d
          ~on_rewind:(fun _ ->
            if d <> depth then Alcotest.fail "only the deepest level rewinds")
          (fun () ->
            Api.enter sd d;
            ignore (Api.malloc sd ~udi:d ((16 * d) + 16));
            if d < depth then begin
              chain (d + 1);
              Api.exit_domain sd
            end
            else begin
              (* Ready subtree hanging off the faulting domain: these are
                 not on the entered chain, but the rewind must discard
                 them (and run their lock-release cleanups) all the
                 same. *)
              for i = 0 to ready_children - 1 do
                let udi = 50 + i in
                udis := udi :: !udis;
                Api.run sd ~udi
                  ~on_rewind:(fun _ -> Alcotest.fail "ready child rewound")
                  (fun () ->
                    Api.enter sd udi;
                    ignore (Api.malloc sd ~udi (24 + (8 * i)));
                    (if with_grandchild && i = 0 then begin
                       udis := 70 :: !udis;
                       Api.run sd ~udi:70
                         ~on_rewind:(fun _ -> Alcotest.fail "grandchild rewound")
                         (fun () ->
                           Api.enter sd 70;
                           ignore (Api.malloc sd ~udi:70 32);
                           Api.exit_domain sd)
                     end);
                    if i = lock_child then ignore (Dlock.acquire lock);
                    Api.exit_domain sd)
              done;
              ignore (Space.load8 space 0)
            end)
      in
      chain 1);
  (* Render everything the rewind is responsible for — audit record minus
     the interrupt/time fields, survivors, monitor footprint, lock state —
     as a string, so a mismatch prints both sides. *)
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      Printf.bprintf b "rec id=%d target=%d kind=%s si=%s addr=%d msg=%s replays=%d [" r.Rl.r_id
        r.Rl.r_target
        (Rl.kind_to_string r.Rl.r_kind)
        r.Rl.r_si r.Rl.r_fault_addr r.Rl.r_msg r.Rl.r_replays;
      List.iter
        (fun x ->
          let sb, sl = x.Rl.x_stack in
          Printf.bprintf b " (%d %s %d+%d %s)" x.Rl.x_udi
            (match x.Rl.x_was with
            | `Entered -> "e"
            | `Ready -> "r"
            | `Dormant -> "d")
            sb sl
            (String.concat ","
               (List.map (fun (a, l) -> Printf.sprintf "%d:%d" a l) x.Rl.x_regions)))
        r.Rl.r_subtree;
      Printf.bprintf b " ]";
      (* The flight-recorder excerpt frozen at intent time is part of the
         record, so it is part of the equivalence surface too. *)
      List.iter
        (fun e ->
          Printf.bprintf b " {%s@%.0f u%d t%d a%d x%x}"
            (Fl.kind_to_string e.Fl.e_kind)
            e.Fl.e_at e.Fl.e_udi e.Fl.e_tid e.Fl.e_arg e.Fl.e_trace)
        r.Rl.r_events;
      Buffer.add_char b '\n')
    (Api.audit_records sd);
  Printf.bprintf b "bytes=%d pending=%b\n"
    (Api.monitor_bytes sd - Api.audit_bytes sd - Api.flight_bytes sd)
    (Api.audit_pending sd);
  Printf.bprintf b "lock poisoned=%b holder=%s\n" (Dlock.poisoned lock)
    (match Dlock.holder lock with
    | None -> "-"
    | Some t -> string_of_int t);
  List.iter
    (fun u -> Printf.bprintf b "live %d=%b\n" u (Api.is_initialized sd u))
    (List.sort_uniq compare !udis);
  (* The live flight rings outlive the domains they describe; an
     interrupted rewind must leave them exactly as an uninterrupted one
     does. Event kinds only: post-rewind timestamps shift with the
     virtual time an interrupt consumes, like the excluded time window. *)
  List.iter
    (fun u ->
      Printf.bprintf b "flight %d:" u;
      List.iter
        (fun e -> Printf.bprintf b " %s" (Fl.kind_to_string e.Fl.e_kind))
        (Api.flight_events sd ~udi:u);
      Buffer.add_char b '\n')
    (Api.flight_domains sd);
  Printf.bprintf b "flight recorded=%d dropped=%d\n" (Api.flight_recorded sd)
    (Api.flight_dropped sd);
  (Buffer.contents b, !consultations)

let test_interrupted_rewind_differential () =
  List.iter
    (fun seed ->
      let base, steps = run_rewind_scenario ~seed ~hook:(fun _ -> false) in
      check bool "multi-step rewind" true (steps >= 2);
      (* One run per possible interrupt point, plus an interrupt storm
         that rides the monitor's absorption budget. *)
      for k = 0 to steps - 1 do
        let obs, _ = run_rewind_scenario ~seed ~hook:(fun i -> i = k) in
        check Alcotest.string
          (Printf.sprintf "seed %d, interrupt at step %d" seed k)
          base obs
      done;
      let obs, _ = run_rewind_scenario ~seed ~hook:(fun _ -> true) in
      check Alcotest.string
        (Printf.sprintf "seed %d, interrupt storm" seed)
        base obs)
    [ 11; 23; 37; 41; 53 ]

(* {1 Flight recorder} *)

(* A standalone ring over a fresh monitor-style heap: a mapped region
   handed to TLSF, the shape [Api.create] wires up internally. *)
let make_flight ?cap ?max_domains () =
  let s = Space.create ~size_mib:8 () in
  let heap = Tlsf.create s ~name:"flight-test" in
  let len = 256 * 1024 in
  let r = Space.mmap s ~len ~prot:Prot.rw ~pkey:0 in
  Tlsf.add_region heap ~addr:r ~len;
  (s, Fl.create s ~heap ?cap ?max_domains ())

(* The stored words of [Fl.excerpt_into]'s events, one list per event. *)
let excerpt f ~udi ~n =
  let words = Array.make (n * Fl.event_words) 0 in
  let stop = Fl.excerpt_into f ~udi ~n words 0 in
  List.init (stop / Fl.event_words) (fun i ->
      Array.to_list (Array.sub words (i * Fl.event_words) Fl.event_words))

let excerpt_args f ~udi ~n = List.map (fun ws -> List.nth ws 4) (excerpt f ~udi ~n)

let test_flight_record_order_and_snapshot () =
  Sched.main (fun _ ->
      let _s, f = make_flight () in
      check int "no rings yet" 0 (List.length (Fl.domains f));
      check int "unknown domain reads empty" 0 (List.length (Fl.events f ~udi:3));
      Fl.record f ~udi:3 ~tid:1 ~at:10 ~trace:42 ~arg:1 Fl.Admit;
      Fl.record f ~udi:3 ~tid:1 ~at:11 ~trace:42 ~arg:2 Fl.Switch_in;
      Fl.record f ~udi:3 ~tid:2 ~at:12 ~trace:0 ~arg:3 Fl.Fault;
      (match Fl.events f ~udi:3 with
      | [ a; b; c ] ->
          check bool "oldest first" true (a.Fl.e_kind = Fl.Admit);
          check (Alcotest.float 0.0) "timestamp kept" 10.0 a.Fl.e_at;
          check int "tid kept" 1 a.Fl.e_tid;
          check int "owner udi kept" 3 a.Fl.e_udi;
          check bool "trace carried" true (a.Fl.e_trace = 42);
          check bool "order" true
            (b.Fl.e_kind = Fl.Switch_in && c.Fl.e_kind = Fl.Fault);
          check bool "absent trace reads zero" true (c.Fl.e_trace = 0)
      | l -> Alcotest.failf "expected 3 events, got %d" (List.length l));
      check (Alcotest.list int) "excerpt keeps the tail, oldest first" [ 2; 3 ]
        (excerpt_args f ~udi:3 ~n:2);
      check (Alcotest.list int) "oversized excerpt is just the ring" [ 1; 2; 3 ]
        (excerpt_args f ~udi:3 ~n:99);
      check int "recorded" 3 (Fl.recorded f);
      check int "nothing dropped" 0 (Fl.dropped f);
      check Alcotest.string "kind rendering" "switch-in"
        (Fl.kind_to_string Fl.Switch_in))

(* The excerpt a rewind freezes into its audit record replaced a list of
   the ring's events cut to its last [n]. The list's reference, here:
   the same words, read with the same checked loads in the same order,
   which the space's access hook and the thread's clock see. Rings of
   random capacity and fill, wrapped or not, excerpts of every size. *)
let ref_snapshot f ~udi ~n =
  let evs = Fl.events f ~udi in
  let len = List.length evs in
  if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs

let stored_words e =
  [
    int_of_float e.Fl.e_at; Fl.kind_code e.Fl.e_kind; e.Fl.e_tid + 1;
    e.Fl.e_trace; e.Fl.e_arg; e.Fl.e_udi;
  ]

let test_flight_excerpt_matches_snapshot () =
  let rng = Simkern.Rng.create 7 in
  let kinds = [| Fl.Admit; Fl.Switch_in; Fl.Switch_out; Fl.Fault; Fl.Replay |] in
  for case = 1 to 200 do
    Sched.main (fun _ ->
        let cap = 1 + Simkern.Rng.int rng 9 in
        let s, f = make_flight ~cap () in
        let udi = 1 + Simkern.Rng.int rng 3 in
        for i = 1 to Simkern.Rng.int rng (3 * cap) do
          Fl.record f ~udi:(1 + Simkern.Rng.int rng 3) ~tid:(Simkern.Rng.int rng 4)
            ~at:(i * 17) ~trace:(Simkern.Rng.int rng 1000) ~arg:i
            kinds.(Simkern.Rng.int rng (Array.length kinds))
        done;
        let n = Simkern.Rng.int rng (cap + 3) in
        let watch f =
          let seen = ref [] in
          Space.set_access_hook s (Some (fun a len _ -> seen := (a, len) :: !seen));
          let c0 = Sched.now () in
          let v = f () in
          Space.set_access_hook s None;
          (v, List.rev !seen, Sched.now () -. c0)
        in
        let ref_words, ref_loads, ref_cycles =
          watch (fun () -> List.map stored_words (ref_snapshot f ~udi ~n))
        in
        let words, loads, cycles = watch (fun () -> excerpt f ~udi ~n) in
        let what = Printf.sprintf "case %d (cap %d, n %d)" case cap n in
        check (Alcotest.list (Alcotest.list int)) (what ^ ": words") ref_words words;
        check (Alcotest.list (Alcotest.pair int int)) (what ^ ": loads") ref_loads
          loads;
        check (Alcotest.float 0.0) (what ^ ": cycles") ref_cycles cycles)
  done

let test_flight_kind_codes_roundtrip () =
  List.iter
    (fun k ->
      check bool (Fl.kind_to_string k) true (Fl.code_kind (Fl.kind_code k) = k))
    [
      Fl.Admit; Fl.Switch_in; Fl.Switch_out; Fl.Alloc_poison; Fl.Lock_acquire;
      Fl.Fault; Fl.Shed; Fl.Replay; Fl.Route; Fl.Failover; Fl.Race;
    ]

let test_flight_ring_wrap_counts_drops () =
  Sched.main (fun _ ->
      let _s, f = make_flight ~cap:4 () in
      for i = 1 to 6 do
        Fl.record f ~udi:7 ~tid:0 ~at:i ~trace:0 ~arg:i Fl.Admit
      done;
      check (Alcotest.list int) "most recent four, oldest first" [ 3; 4; 5; 6 ]
        (List.map (fun e -> e.Fl.e_arg) (Fl.events f ~udi:7));
      check int "recorded counts everything" 6 (Fl.recorded f);
      check int "wrap losses counted" 2 (Fl.dropped f))

let test_flight_domain_eviction () =
  Sched.main (fun _ ->
      let _s, f = make_flight ~max_domains:2 () in
      Fl.record f ~udi:1 ~tid:0 ~at:1 ~trace:0 ~arg:0 Fl.Admit;
      Fl.record f ~udi:1 ~tid:0 ~at:2 ~trace:0 ~arg:0 Fl.Fault;
      Fl.record f ~udi:2 ~tid:0 ~at:3 ~trace:0 ~arg:0 Fl.Admit;
      Fl.record f ~udi:3 ~tid:0 ~at:4 ~trace:0 ~arg:0 Fl.Admit;
      check (Alcotest.list int) "oldest ring evicted" [ 2; 3 ] (Fl.domains f);
      check int "evicted events counted dropped" 2 (Fl.dropped f);
      check int "evicted domain reads empty" 0
        (List.length (Fl.events f ~udi:1)))

let test_flight_store_load_roundtrip () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:8 () in
      let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
      let e =
        {
          Fl.e_at = 12345.0;
          e_tid = 3;
          e_kind = Fl.Replay;
          e_udi = 9;
          e_trace = 0x2fca9509bd23d4;
          e_arg = 17;
        }
      in
      Fl.store s a e;
      check int "six words" 48 Fl.stored_size;
      check bool "round-trips" true (Fl.load s a = e))

let test_flight_survives_rewind_with_trace () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  let trace = Telemetry.Context.trace (Telemetry.Context.root "op-1") in
  Sched.main (fun _ ->
      Api.with_trace sd trace (fun () ->
          Api.run sd ~udi:5
            ~on_rewind:(fun _ -> ())
            (fun () ->
              Api.flight_event sd ~udi:5 Fl.Admit;
              Api.enter sd 5;
              Api.abort sd "drill")));
  (* The domain is discarded; its ring — monitor memory — is not. *)
  check bool "ring survives the discard" true
    (List.mem 5 (Api.flight_domains sd));
  let events = Api.flight_events sd ~udi:5 in
  let kinds = List.map (fun e -> e.Fl.e_kind) events in
  check bool "admit, switch-in, fault retained" true
    (List.mem Fl.Admit kinds
    && List.mem Fl.Switch_in kinds
    && List.mem Fl.Fault kinds);
  List.iter
    (fun e ->
      check bool "every event carries the installed trace" true
        (e.Fl.e_trace = trace))
    events;
  (* ...and the audit record froze the tail at intent time. *)
  match Api.audit_records sd with
  | [ r ] ->
      check bool "snapshot nonempty" true (r.Rl.r_events <> []);
      let last = List.nth r.Rl.r_events (List.length r.Rl.r_events - 1) in
      check bool "fault is the last frozen event" true
        (last.Fl.e_kind = Fl.Fault);
      check bool "frozen event carries the trace" true (last.Fl.e_trace = trace)
  | l -> Alcotest.failf "expected one audit record, got %d" (List.length l)

(* Two identical seeded runs must render byte-identical audit + flight
   dumps — the property behind the golden-tested forensics surfaces
   ([sdrad_cli incident], [rollback-report]). *)
let test_flight_dump_determinism () =
  List.iter
    (fun seed ->
      let a, _ = run_rewind_scenario ~seed ~hook:(fun _ -> false) in
      let b, _ = run_rewind_scenario ~seed ~hook:(fun _ -> false) in
      check Alcotest.string (Printf.sprintf "seed %d byte-identical" seed) a b)
    [ 11; 23; 37; 41; 53 ]

(* {1 Stats} *)

let test_summary_known_values () =
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check (Alcotest.float 1e-9) "mean" 5.0 s.Stats.mean;
  check (Alcotest.float 0.01) "stddev (sample)" 2.138 s.Stats.stddev;
  check (Alcotest.float 1e-9) "min" 2.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 9.0 s.Stats.max;
  check (Alcotest.float 1e-9) "p50" 4.5 s.Stats.p50

let test_welford_matches_batch () =
  let xs = List.init 100 (fun i -> float_of_int (i * i) /. 7.0) in
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) xs;
  check (Alcotest.float 1e-6) "mean" (Stats.mean xs) (Stats.Welford.mean w);
  check (Alcotest.float 1e-6) "stddev" (Stats.stddev xs) (Stats.Welford.stddev w)

let test_ops_per_sec () =
  (* 2.1e9 cycles at 2.1 GHz is one second. *)
  let v = Stats.ops_per_sec Cost.default ~ops:1000 ~cycles:2.1e9 in
  check (Alcotest.float 0.001) "1000 ops in 1s" 1000.0 v

let test_table_renders () =
  let out =
    Stats.Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  check bool "has separator" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  check int "four lines" 4 (List.length lines);
  (* All lines the same width (aligned columns). *)
  match lines with
  | l1 :: rest ->
      List.iter (fun l -> check int "aligned" (String.length l1) (String.length l)) rest
  | [] -> ()

let welford_prop =
  QCheck.Test.make ~name:"welford equals batch stats" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 2 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let w = Stats.Welford.create () in
      List.iter (Stats.Welford.add w) xs;
      Float.abs (Stats.Welford.mean w -. Stats.mean xs) < 1e-6
      && Float.abs (Stats.Welford.stddev w -. Stats.stddev xs) < 1e-6)

let () =
  Alcotest.run "checkpoint-stats"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "restores contents" `Quick test_snapshot_restores_contents;
          Alcotest.test_case "restores mappings" `Quick test_snapshot_restores_mappings;
          Alcotest.test_case "cost scales" `Quick test_snapshot_cost_scales_with_size;
          Alcotest.test_case "restart reload cost" `Quick test_restart_dominated_by_reload;
        ] );
      ( "transactional-rewind",
        [
          Alcotest.test_case "interrupted rewind is equivalent" `Quick
            test_interrupted_rewind_differential;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "record order and snapshot" `Quick
            test_flight_record_order_and_snapshot;
          Alcotest.test_case "excerpt reads as the snapshot did" `Quick
            test_flight_excerpt_matches_snapshot;
          Alcotest.test_case "kind codes roundtrip" `Quick
            test_flight_kind_codes_roundtrip;
          Alcotest.test_case "ring wrap counts drops" `Quick
            test_flight_ring_wrap_counts_drops;
          Alcotest.test_case "domain eviction" `Quick
            test_flight_domain_eviction;
          Alcotest.test_case "store/load roundtrip" `Quick
            test_flight_store_load_roundtrip;
          Alcotest.test_case "survives rewind with trace" `Quick
            test_flight_survives_rewind_with_trace;
          Alcotest.test_case "dump determinism" `Quick
            test_flight_dump_determinism;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary_known_values;
          Alcotest.test_case "welford" `Quick test_welford_matches_batch;
          Alcotest.test_case "ops per sec" `Quick test_ops_per_sec;
          Alcotest.test_case "table" `Quick test_table_renders;
          QCheck_alcotest.to_alcotest welford_prop;
        ] );
    ]
