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

   Exits non-zero on the first violated invariant, replayable from the
   printed seed. *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Dlock = Sdrad.Dlock
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module Retry = Resilience.Retry
module KServer = Kvcache.Server
module Proto = Kvcache.Proto

let seeds = [ 11; 23; 37; 41; 53 ]
let failures = ref 0

let expect ~seed name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL [seed %d] %s\n%!" seed name
  end

(* {1 Monitor leg}

   Random nested trees (an entered chain with Ready children, one of them
   holding a Dlock), faulted at the deepest level while a probabilistic
   interrupt plan harasses the discard loop. *)

let monitor_leg ~seed =
  let rounds = 12 in
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create ~seed space in
  let fi =
    Fault_inject.create ~seed
      [ Fault_inject.rule ~prob:0.5 ~site:"soak.rewind" Fault_inject.Rewind_interrupt ]
  in
  Fault_inject.arm_rewind fi sd ~site:"soak.rewind";
  let incidents = ref 0 in
  Api.set_incident_handler sd (fun _ -> incr incidents);
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
      expect ~seed "exactly one incident per rewind"
        (Api.audit_appended sd = before + 1);
      expect ~seed "no intent left pending" (not (Api.audit_pending sd));
      expect ~seed "lock not leaked by subtree discard"
        (Dlock.holder lock = None);
      expect ~seed "released lock is poisoned" (Dlock.poisoned lock);
      List.iter
        (fun u ->
          expect ~seed
            (Printf.sprintf "udi %d fully discarded" u)
            (not (Api.is_initialized sd u)))
        (List.sort_uniq compare !used);
      let footprint =
        Api.monitor_bytes sd - Api.audit_bytes sd - Api.flight_bytes sd
      in
      match !baseline with
      | None -> baseline := Some footprint
      | Some b ->
          expect ~seed "monitor footprint back to baseline" (footprint = b)
    done);
  expect ~seed "audit log agrees with the incident handler"
    (!incidents = Api.audit_appended sd);
  Printf.printf "seed %2d  monitor: %d rewinds, %d interrupts absorbed\n%!" seed
    !incidents (Fault_inject.fires fi)

(* {1 kvcache leg}

   End-to-end: retrying clients with idempotency keys against the
   SDRaD-protected cache while lying requests trigger rewinds, random
   corruption lands in worker domains, and the interrupt plan fires
   mid-rewind. The replay-journal invariants must survive all of it. *)

let kv_leg ~seed =
  let clients = 3 and incrs = 12 in
  let policy =
    {
      Supervisor.default_policy with
      budget_max = 100;
      backoff_base = 2_000.0;
      backoff_max = 20_000.0;
    }
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(Api.create ~seed)
      ~supervisor:(Supervisor.attach ~policy) ()
  in
  let sd = Option.get w.sd and sched = w.sched and net = w.net in
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
  let retry_policy =
    {
      Retry.default_policy with
      attempt_timeout = 120_000.0;
      overall_timeout = 4.0e6;
      backoff_base = 5_000.0;
      backoff_cap = 160_000.0;
    }
  in
  let { Scenario.server = s; _ } =
    Scenario.kvcache ~faults:fi w cfg
      (Script
         (fun _ ->
           let tids =
             List.init clients (fun i ->
                 Sched.spawn sched
                   ~name:(Printf.sprintf "rw%d" i)
                   (fun () ->
                     let rng = Rng.create (seed + (100 * i)) in
                     let eng =
                       Retry.create retry_policy
                         ~rng:(Rng.create (seed + (200 * i) + 1))
                         ~name:(Printf.sprintf "rw%d" i)
                     in
                     let key = Printf.sprintf "ctr%d" i in
                     let conn = ref (Netsim.connect net ~port:11211) in
                     let live () =
                       let c = !conn in
                       if Netsim.is_open c && not (Netsim.peer_closed c) then c
                       else begin
                         Netsim.close c;
                         conn := Netsim.connect net ~port:11211;
                         !conn
                       end
                     in
                     let acked req ~ok =
                       let rec loop () =
                         match
                           Retry.execute eng (fun ~rid:_ ~attempt:_ ~deadline ->
                               let c = live () in
                               Netsim.send c req;
                               match Netsim.recv_deadline c ~deadline with
                               | Some r ->
                                   if r = Proto.server_error_busy then
                                     Error (`Retry "busy")
                                   else if ok (Proto.parse_reply r) then Ok ()
                                   else Error (`Retry "bad reply")
                               | None ->
                                   Netsim.close c;
                                   Error (`Retry "timeout"))
                         with
                         | Ok () -> ()
                         | Error _ ->
                             Sched.sleep 100_000.0;
                             loop ()
                       in
                       loop ()
                     in
                     acked
                       (Proto.fmt_set ~key ~flags:0 ~value:"0")
                       ~ok:(fun r -> r = Proto.Stored);
                     for n = 1 to incrs do
                       Sched.sleep (float_of_int (Rng.int rng 12_000));
                       let rid = Printf.sprintf "rw%d-op%d" i n in
                       acked
                         (Proto.fmt_incr ~rid key 1)
                         ~ok:(function Proto.Number _ -> true | _ -> false)
                     done;
                     Netsim.close !conn))
           in
           (* Lying declared lengths: the classic overflow that forces a
              worker-domain rewind — here with the interrupt plan armed. *)
           let evil =
             Sched.spawn sched ~name:"evil" (fun () ->
                 for _ = 1 to 6 do
                   Sched.sleep 60_000.0;
                   let c = Netsim.connect net ~src:777 ~port:11211 in
                   Netsim.send c
                     (Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                        ~value:(String.make 300 'X'));
                   ignore (Netsim.recv c);
                   Netsim.close c
                 done)
           in
           List.iter Sched.join (evil :: tids);
           (* Read every counter back and check exactness. *)
           List.iteri
             (fun i () ->
               let key = Printf.sprintf "ctr%d" i in
               let rec read_back tries =
                 if tries = 0 then None
                 else begin
                   let c = Netsim.connect net ~port:11211 in
                   Netsim.send c (Proto.fmt_get key);
                   let r = Netsim.recv_deadline c ~deadline:(Sched.now () +. 500_000.0) in
                   Netsim.close c;
                   match Option.map Proto.parse_reply r with
                   | Some (Proto.Value v) -> Some (int_of_string v)
                   | _ ->
                       Sched.sleep 50_000.0;
                       read_back (tries - 1)
                 end
               in
               match read_back 10 with
               | None -> expect ~seed (key ^ " readable after soak") false
               | Some v ->
                   expect ~seed
                     (Printf.sprintf
                        "%s applied exactly once per ack (got %d, want %d)" key v
                        incrs)
                     (v = incrs))
             (List.init clients (fun _ -> ()))))
  in
  expect ~seed "kv: no crash under interrupted rewinds"
    (not (KServer.crashed s));
  expect ~seed "kv: no intent left pending" (not (Api.audit_pending sd));
  expect ~seed
    (Printf.sprintf "kv: one audit record per rewind (%d rewinds, %d records)"
       (KServer.rewinds s) (Api.audit_appended sd))
    (KServer.rewinds s = Api.audit_appended sd);
  Printf.printf
    "seed %2d  kvcache: %d rewinds, %d audit records, %d interrupts, %d \
     replays\n\
     %!"
    seed (KServer.rewinds s) (Api.audit_appended sd) (Fault_inject.fires fi)
    (KServer.replay_hits s)

let () =
  List.iter (fun seed -> monitor_leg ~seed) seeds;
  List.iter (fun seed -> kv_leg ~seed) seeds;
  if !failures > 0 then begin
    Printf.printf "%d rewind-soak invariant(s) violated\n%!" !failures;
    exit 1
  end;
  print_endline
    "all rewind-soak invariants held: no partial rollback state observable"
