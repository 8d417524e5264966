(* Chaos rewind soak (`dune build @chaos-rewind-soak` / `make
   chaos-rewind-soak`): the fault-during-rewind campaign. Every rewind in
   these runs is itself under attack — a seeded [Rewind_interrupt] plan
   fires second faults between discard steps, exercising the two-phase
   intent/commit protocol end to end. For each seed the campaign checks
   that no partial rollback state is ever observable:

   - no poisoned lock is leaked (a lock held anywhere in a discarded
     subtree is released, flagged poisoned),
   - no half-discarded subtree survives (every domain of the rewound
     subtree is gone, the monitor-heap footprint returns to baseline,
     no intent record is left pending),
   - the replay-journal invariants hold under interrupted rewinds (no
     acknowledged write lost, no non-idempotent op applied twice), and
   - every rewind — interrupted or not — commits exactly one incident
     record to the durable audit log.

   The kvcache leg's clients, read-back and checks are [Invariants'].
   Exits non-zero if any invariant was violated, replayable from the
   printed seed. *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Dlock = Sdrad.Dlock
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module KServer = Kvcache.Server
module Proto = Kvcache.Proto

(* {1 Monitor leg}

   Random nested trees (an entered chain with Ready children, one of them
   holding a Dlock), faulted at the deepest level while a probabilistic
   interrupt plan harasses the discard loop. *)

let monitor_leg ~seed =
  let expect = Invariants.expect ~seed and rounds = 12 in
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create ~seed space in
  let fi =
    Fault_inject.create ~seed
      [ Fault_inject.rule ~prob:0.5 ~site:"soak.rewind" Fault_inject.Rewind_interrupt ]
  in
  Fault_inject.arm_rewind fi sd ~site:"soak.rewind";
  let incidents = ref 0 in
  Api.on_incident sd (fun _ -> incr incidents);
  let rng = Rng.create ((seed * 31) + 7) in
  Sched.main (fun _ ->
    let baseline = ref None in
    for _round = 1 to rounds do
      let depth = 1 + Rng.int rng 3 in
      let readies = 1 + Rng.int rng 3 in
      let lock = Dlock.create sd in
      let lock_child = Rng.int rng readies in
      let used = ref [] in
      let before = Api.audit_appended sd in
      let rec chain d =
        used := d :: !used;
        Api.run sd ~udi:d
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd d;
            ignore (Api.malloc sd ~udi:d (16 + (8 * d)));
            if d < depth then begin
              chain (d + 1);
              Api.exit_domain sd
            end
            else begin
              for i = 0 to readies - 1 do
                let udi = 50 + i in
                used := udi :: !used;
                Api.run sd ~udi
                  ~on_rewind:(fun _ -> ())
                  (fun () ->
                    Api.enter sd udi;
                    ignore (Api.malloc sd ~udi (24 + (8 * i)));
                    if i = lock_child then ignore (Dlock.acquire lock);
                    Api.exit_domain sd)
              done;
              ignore (Space.load8 space 0)
            end)
      in
      chain 1;
      (* The rewind consumed the deepest level and its Ready subtree;
         the ancestors it unwound through are left Ready — clear them
         so every round starts from a bare tree. *)
      if depth > 1 then Api.destroy sd 1 ~heap:`Discard;
      expect "monitor: exactly one incident per rewind"
        (Api.audit_appended sd = before + 1);
      Invariants.no_pending_intent expect "monitor" sd;
      expect "monitor: lock not leaked by subtree discard"
        (Dlock.holder lock = None);
      expect "monitor: released lock is poisoned" (Dlock.poisoned lock);
      List.iter
        (fun u ->
          expect
            (Printf.sprintf "monitor: udi %d fully discarded" u)
            (not (Api.is_initialized sd u)))
        (List.sort_uniq compare !used);
      let footprint =
        Api.monitor_bytes sd - Api.audit_bytes sd - Api.flight_bytes sd
      in
      match !baseline with
      | None -> baseline := Some footprint
      | Some b ->
          expect "monitor: footprint back to baseline" (footprint = b)
    done);
  expect "monitor: audit log agrees with the incident handler"
    (!incidents = Api.audit_appended sd);
  Printf.printf "seed %2d  monitor: %d rewinds, %d interrupts absorbed\n%!" seed
    !incidents (Fault_inject.fires fi)

(* {1 kvcache leg}

   End-to-end: retrying clients with idempotency keys against the
   SDRaD-protected cache while lying requests trigger rewinds, random
   corruption lands in worker domains, and the interrupt plan fires
   mid-rewind. The replay-journal invariants must survive all of it. *)

let kv_leg ~seed =
  let expect = Invariants.expect ~seed and clients = 3 and incrs = 12 in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(Api.create ~seed)
      ~supervisor:(Supervisor.attach ~policy:Invariants.lenient_policy) ()
  in
  let sd = Option.get w.sd in
  let fi =
    Fault_inject.create ~seed
      [
        Fault_inject.rule ~prob:0.04 ~site:"kv.domain" Fault_inject.Wild_write;
        Fault_inject.rule ~prob:0.5 ~site:"kv.rewind" Fault_inject.Rewind_interrupt;
      ]
  in
  Fault_inject.arm_rewind fi sd ~site:"kv.rewind";
  let cfg =
    {
      KServer.default_config with
      variant = KServer.Sdrad;
      vulnerable = true;
      workers = 2;
    }
  in
  let { Scenario.server = s; _ } =
    Scenario.kvcache ~faults:fi w cfg
      (Script
         (fun _ ->
           let tids =
             Invariants.spawn_counters w ~seed ~name:"rw" ~clients ~incrs
               ~retries:(ref 0)
           in
           (* Lying declared lengths: the classic overflow that forces a
              worker-domain rewind — here with the interrupt plan armed. *)
           let evil =
             Sched.spawn w.sched ~name:"evil" (fun () ->
                 for _ = 1 to 6 do
                   Sched.sleep 60_000.0;
                   let c = Netsim.connect w.net ~src:777 ~port:11211 in
                   Netsim.send c
                     (Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                        ~value:(String.make 300 'X'));
                   ignore (Netsim.recv c);
                   Netsim.close c
                 done)
           in
           List.iter Sched.join (evil :: tids);
           Invariants.counters_exact expect "kv" w.net ~clients ~incrs))
  in
  Invariants.kv_holds expect "kv" w s;
  Printf.printf
    "seed %2d  kvcache: %d rewinds, %d audit records, %d interrupts, %d \
     replays\n\
     %!"
    seed (KServer.rewinds s) (Api.audit_appended sd) (Fault_inject.fires fi)
    (KServer.replay_hits s)

let () =
  Invariants.run ~what:"rewind-soak"
    ~held:
      "all rewind-soak invariants held: no partial rollback state observable"
    [ monitor_leg; kv_leg ]
