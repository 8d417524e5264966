(* Tests for PKRU write elision and batched call gates: the checked
   WRPKRU install (skip + count when the value is already current), write
   counts across nested monitor sections and open gates, the
   per-(caller, callee) marshalling-buffer cache with its cross-thread
   invalidation regression, and a 5-seed differential property test
   pitting batched gates against the unbatched path over a full kvcache
   server run. *)

module Space = Vmem.Space
module Pkru = Vmem.Pkru
module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Flight = Checkpoint.Flight
module Server = Kvcache.Server
module Proto = Kvcache.Proto

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let check_float msg = Alcotest.check (Alcotest.float 1e-9) msg

(* {1 Value elision at the Space level} *)

let test_elision_counts () =
  let s = Space.create ~size_mib:8 () in
  let key = Option.get (Space.pkey_alloc s) in
  let v = Pkru.deny Pkru.all_access ~key in
  Sched.main (fun _ ->
      let w0 = Space.wrpkru_writes s and e0 = Space.pkru_elided s in
      Space.wrpkru s v;
      check int "first install is a real write" (w0 + 1) (Space.wrpkru_writes s);
      let t0 = Sched.now () in
      Space.wrpkru s v;
      check int "redundant install elided" (w0 + 1) (Space.wrpkru_writes s);
      check int "elision counted" (e0 + 1) (Space.pkru_elided s);
      check_float "elided install is free" 0.0 (Sched.now () -. t0))

(* {1 Monitor sections and gates: write counts} *)

let mk_api () =
  let space = Space.create ~size_mib:64 () in
  (space, Api.create space)

let test_nested_monitor_writes () =
  let space, sd = mk_api () in
  Sched.main (fun _ ->
      (* establish this thread's state first: a stateless thread's flight
         events are recorded without raising privileges *)
      ignore (Api.current sd);
      (* A monitor bracket from the root costs exactly one write in and
         one write out... *)
      let w0 = Space.wrpkru_writes space in
      Api.flight_event sd Flight.Admit;
      check int "plain bracket: two writes" (w0 + 2) (Space.wrpkru_writes space);
      (* ...and under an open gate the root sits in the monitor view, so
         the same brackets elide entirely. *)
      Api.with_gate sd (fun () ->
          let w1 = Space.wrpkru_writes space in
          for _ = 1 to 5 do
            Api.flight_event sd Flight.Admit
          done;
          check int "gated brackets: zero writes" w1 (Space.wrpkru_writes space)))

(* A cleanup hook firing during a rewind re-enters the monitor (the
   abnormal exit already holds it): the nested section must not add
   writes — the regression the [monitor_depth] counter guards. *)
let test_reentrant_monitor_during_rewind () =
  let run ~cleanup =
    let space, sd = mk_api () in
    let writes = ref 0 in
    Sched.main (fun _ ->
        let w0 = Space.wrpkru_writes space in
        ignore
          (Api.run sd ~udi:5
             ~on_rewind:(fun _ -> `Rewound)
             (fun () ->
               Api.enter sd 5;
               if cleanup then (
                 let (_cancel : unit -> unit) =
                   Api.on_abnormal_cleanup sd (fun () ->
                       Api.flight_event sd Flight.Lock_acquire)
                 in
                 ());
               Space.store8 space 64 1;
               `Fine));
        writes := Space.wrpkru_writes space - w0);
    !writes
  in
  let bare = run ~cleanup:false and hooked = run ~cleanup:true in
  check int "nested cleanup section adds no writes" bare hooked

(* The full batched-vs-plain write count is read off the real servers in
   the differential below; here pin the primitive: entering and leaving a
   gate from the root is one write each way, brackets inside it are free,
   and domain transitions still install the compartment policy. *)
let test_gate_bracket_writes () =
  let space, sd = mk_api () in
  Sched.main (fun _ ->
      ignore
        (Api.run sd ~udi:7
           ~on_rewind:(fun _ -> ())
           (fun () ->
             let w0 = Space.wrpkru_writes space in
             let w_in_gate = ref 0 in
             Api.with_gate sd (fun () ->
                 check bool "gate open" true (Api.gate_open sd);
                 check int "open_gate: one write" (w0 + 1)
                   (Space.wrpkru_writes space);
                 (* a domain round trip inside the gate still switches
                    into and out of the compartment *)
                 Api.enter sd 7;
                 Api.exit_domain sd;
                 w_in_gate := Space.wrpkru_writes space;
                 check bool "transitions still write" true
                   (!w_in_gate > w0 + 1));
             check bool "gate closed" false (Api.gate_open sd);
             check int "close_gate: one write back" (!w_in_gate + 1)
               (Space.wrpkru_writes space))))

(* {1 Marshalling-buffer cache} *)

let test_gate_buffer_cache () =
  let _space, sd = mk_api () in
  Sched.main (fun _ ->
      ignore
        (Api.run sd ~udi:9
           ~on_rewind:(fun _ -> ())
           (fun () ->
             let b1 = Api.gate_buffer sd ~udi:9 256 in
             let b2 = Api.gate_buffer sd ~udi:9 256 in
             check int "same slot, same buffer" b1 b2;
             let small = Api.gate_buffer sd ~udi:9 64 in
             check int "smaller request reuses the buffer" b1 small;
             let other = Api.gate_buffer sd ~slot:1 ~udi:9 256 in
             check bool "slots are distinct buffers" true (other <> b1);
             let big = Api.gate_buffer sd ~udi:9 1024 in
             check bool "growth reallocates" true (big <> b1);
             check int "grown buffer is cached" big
               (Api.gate_buffer sd ~udi:9 1024))))

(* Regression: discarding one thread's instance of a udi must not forget
   another thread's cached buffers for its own (healthy) instance — the
   stale cache made the victim re-allocate above its still-live buffers,
   silently moving it off the bottom of its sub-heap. *)
let test_gate_buffer_cross_thread_invalidation () =
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create space in
  let sched = Sched.create () in
  let addr_before = ref 0 and addr_after = ref 0 in
  ignore
    (Sched.spawn sched ~name:"victim" (fun () ->
         ignore
           (Api.run sd ~udi:11
              ~on_rewind:(fun _ -> ())
              (fun () ->
                addr_before := Api.gate_buffer sd ~udi:11 128;
                (* let the faulty thread rewind its own instance of udi 11 *)
                Sched.sleep 1.0e6;
                addr_after := Api.gate_buffer sd ~udi:11 128))));
  ignore
    (Sched.spawn sched ~name:"faulty" (fun () ->
         Sched.sleep 1_000.0;
         ignore
           (Api.run sd ~udi:11
              ~on_rewind:(fun _ -> `Rewound)
              (fun () ->
                Api.enter sd 11;
                Space.store8 space 64 1;
                `Fine))));
  Sched.run sched;
  List.iter
    (function _, _, Sched.Failed e -> raise e | _ -> ())
    (Sched.outcomes sched);
  check int "victim's cache survives the other thread's rewind"
    !addr_before !addr_after

(* {1 Differential property: fast path ≡ slow path over 5 seeds}

   Two kvcache servers run the same seeded single-client request mix —
   sets, gets, deletes, pipelined bursts and CVE attacks that rewind the
   event domain — one with batched gates, one with batching off.
   Everything observable must be
   bytewise identical: every reply, the rewind and request counts, the
   store's integrity walk, incident records (cause, address, udi),
   per-trace flight-recorder dumps (timestamps stripped) and the final
   domain/policy snapshot. Only virtual time may differ. *)

let kind_name = function
  | Flight.Admit -> "admit"
  | Flight.Switch_in -> "in"
  | Flight.Switch_out -> "out"
  | Flight.Alloc_poison -> "poison"
  | Flight.Lock_acquire -> "lock"
  | Flight.Fault -> "fault"
  | Flight.Shed -> "shed"
  | Flight.Replay -> "replay"
  | Flight.Route -> "route"
  | Flight.Failover -> "failover"
  | Flight.Race -> "race"

let cause_name = function
  | Sdrad.Types.Segv { addr; code; access } ->
      Printf.sprintf "segv 0x%x %s %s" addr
        (match code with
        | Space.MAPERR -> "maperr"
        | Space.ACCERR -> "accerr"
        | Space.PKUERR -> "pkuerr"
        | Space.POISON -> "poison")
        (match access with
        | Space.Read -> "read"
        | Space.Write -> "write"
        | Space.Exec -> "exec")
  | Sdrad.Types.Stack_smash -> "stack-smash"
  | Sdrad.Types.Explicit m -> "explicit " ^ m

let run_kv_scenario ~fast seed =
  let w = Scenario.world ~size_mib:128 ~monitor:Api.create () in
  let space = w.space and sd = Option.get w.sd and net = w.net in
  let cfg =
    {
      Server.default_config with
      variant = Server.Sdrad;
      vulnerable = true;
      workers = 1;
      gate_batch_limit = (if fast then 8 else 0);
    }
  in
  let trace = Buffer.create 8192 in
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           let rng = Rng.create seed in
           let c = ref (Netsim.connect net ~port:11211) in
           let fresh () =
             if (not (Netsim.is_open !c)) || Netsim.peer_closed !c then
               c := Netsim.connect net ~port:11211
           in
           let record i r =
             Printf.bprintf trace "%d %s\n" i
               (match r with Some x -> x | None -> "<closed>")
           in
           for i = 1 to 60 do
             fresh ();
             match Rng.int rng 10 with
             | 0 | 1 | 2 ->
                 let key = Printf.sprintf "k%d" (Rng.int rng 40) in
                 let value = String.make (1 + Rng.int rng 900) 'v' in
                 Netsim.send !c (Proto.fmt_set ~key ~flags:(Rng.int rng 4) ~value);
                 record i (Netsim.recv !c)
             | 3 | 4 | 5 ->
                 Netsim.send !c (Proto.fmt_get (Printf.sprintf "k%d" (Rng.int rng 40)));
                 record i (Netsim.recv !c)
             | 6 ->
                 Netsim.send !c (Proto.fmt_delete (Printf.sprintf "k%d" (Rng.int rng 40)));
                 record i (Netsim.recv !c)
             | 7 | 8 ->
                 (* pipelined burst: multiple requests deliverable at once is
                    exactly what the batched gate coalesces *)
                 let n = 2 + Rng.int rng 3 in
                 for _j = 1 to n do
                   Netsim.send !c
                     (Proto.fmt_set
                        ~key:(Printf.sprintf "p%d" (Rng.int rng 20))
                        ~flags:0
                        ~value:(String.make (1 + Rng.int rng 200) 'b'))
                 done;
                 for j = 1 to n do
                   record (i + (j * 1000)) (Netsim.recv !c)
                 done
             | _ ->
                 (* the CVE-2011-4971 analogue, causally tagged so its flight
                    events are comparable across runs *)
                 Netsim.send !c
                   (Proto.fmt_set_lying_traced
                      ~trace:(Int64.of_int ((seed * 1000) + i))
                      ~key:"pwn" ~flags:0 ~declared:(-1)
                      ~value:(String.make (100 + Rng.int rng 300) 'X'));
                 record i (Netsim.recv !c)
           done;
           Netsim.close !c))
  in
  Printf.bprintf trace "served=%d rewinds=%d faults=%d dbbytes=%d\n"
    (Server.requests_served s) (Server.rewinds s) (Space.fault_count space)
    (Server.db_bytes s);
  List.iter (Printf.bprintf trace "db: %s\n") (Server.db_check s);
  List.iter
    (fun f ->
      Printf.bprintf trace "incident udi=%d tid=%d %s\n" f.Sdrad.Types.failed_udi
        f.Sdrad.Types.tid
        (cause_name f.Sdrad.Types.cause))
    (Api.incidents sd);
  List.iter
    (fun udi ->
      List.iter
        (fun (e : Flight.event) ->
          Printf.bprintf trace "flight %d: tid=%d %s trace=%Lx arg=%d\n" udi
            e.Flight.e_tid (kind_name e.Flight.e_kind) e.Flight.e_trace
            e.Flight.e_arg)
        (Api.flight_events sd ~udi))
    (Api.flight_domains sd);
  List.iter
    (fun (d : Api.domain_info) ->
      Printf.bprintf trace "dom %d %s tid=%d parent=%d state=%s stack=%s regions=%s\n"
        d.Api.di_udi
        (match d.Api.di_kind with `Exec -> "exec" | `Data -> "data")
        d.Api.di_tid d.Api.di_parent
        (match d.Api.di_state with
        | `Dormant -> "dormant"
        | `Ready -> "ready"
        | `Entered -> "entered")
        (match d.Api.di_stack with
        | Some (b, l) -> Printf.sprintf "%d+%d" b l
        | None -> "-")
        (String.concat ","
           (List.map (fun (b, l) -> Printf.sprintf "%d+%d" b l) d.Api.di_regions)))
    (Api.domains_info sd);
  let batched =
    let text = Telemetry.Metrics.expose (Api.metrics sd) in
    List.fold_left
      (fun acc line ->
        match String.index_opt line ' ' with
        | Some i when String.sub line 0 i = "gate_batched_calls_total" ->
            int_of_string (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> acc)
      0
      (String.split_on_char '\n' text)
  in
  (Buffer.contents trace, batched)

let test_gate_differential () =
  List.iter
    (fun seed ->
      let fast, fast_batched = run_kv_scenario ~fast:true seed in
      let slow, slow_batched = run_kv_scenario ~fast:false seed in
      check int "slow path never batches" 0 slow_batched;
      check bool "fast path coalesced something" true (fast_batched > 0);
      if not (String.equal fast slow) then begin
        let fl = String.split_on_char '\n' fast in
        let sl = String.split_on_char '\n' slow in
        let rec first a b =
          match (a, b) with
          | x :: xs, y :: ys -> if String.equal x y then first xs ys else (x, y)
          | x :: _, [] -> (x, "<end>")
          | [], y :: _ -> ("<end>", y)
          | [], [] -> ("", "")
        in
        let fx, sx = first fl sl in
        Alcotest.failf "seed %d: runs diverge — fast=%S slow=%S" seed fx sx
      end)
    [ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "gate"
    [
      ( "elision",
        [
          Alcotest.test_case "checked install" `Quick test_elision_counts;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "nested sections" `Quick test_nested_monitor_writes;
          Alcotest.test_case "re-entrant during rewind" `Quick
            test_reentrant_monitor_during_rewind;
          Alcotest.test_case "gate bracket writes" `Quick
            test_gate_bracket_writes;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "cache semantics" `Quick test_gate_buffer_cache;
          Alcotest.test_case "cross-thread invalidation" `Quick
            test_gate_buffer_cross_thread_invalidation;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fast path ≡ slow path (5 seeds)" `Quick
            test_gate_differential;
        ] );
    ]
