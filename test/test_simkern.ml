(* Tests for the simkern substrate: RNG determinism, virtual-time
   scheduling order, mutex handoff and contention accounting, condition
   variables, joins and failure reporting. *)

module Rng = Simkern.Rng
module Sched = Simkern.Sched
module Cost = Simkern.Cost

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* {1 Rng} *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let va = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let vb = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  check bool "different streams" true (va <> vb)

let test_rng_split_independent () =
  let root = Rng.create 7 in
  let child = Rng.split root in
  let vr = List.init 10 (fun _ -> Rng.int root 1000) in
  let vc = List.init 10 (fun _ -> Rng.int child 1000) in
  check bool "independent" true (vr <> vc)

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "still a permutation" true (sorted = Array.init 50 Fun.id);
  check bool "actually moved" true (a <> Array.init 50 Fun.id)

let rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* {1 Sched} *)

let test_sched_runs_in_clock_order () =
  let t = Sched.create () in
  let order = ref [] in
  let mark label = order := label :: !order in
  let _ =
    Sched.spawn t ~name:"slow" (fun () ->
        Sched.charge 100.0;
        Sched.yield ();
        mark "slow")
  in
  let _ =
    Sched.spawn t ~name:"fast" (fun () ->
        Sched.charge 10.0;
        Sched.yield ();
        mark "fast")
  in
  Sched.run t;
  check (Alcotest.list Alcotest.string) "fast first" [ "fast"; "slow" ]
    (List.rev !order)

let test_sched_charge_advances_clock () =
  let t = Sched.create () in
  let final = ref 0.0 in
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 123.0;
        Sched.charge 77.0;
        final := Sched.now ())
  in
  Sched.run t;
  check (Alcotest.float 0.001) "clock" 200.0 !final

let test_sched_horizon_is_makespan () =
  let t = Sched.create () in
  let _ = Sched.spawn t (fun () -> Sched.charge 50.0) in
  let _ = Sched.spawn t (fun () -> Sched.charge 400.0) in
  let _ = Sched.spawn t (fun () -> Sched.charge 10.0) in
  Sched.run t;
  check (Alcotest.float 0.001) "horizon" 400.0 (Sched.horizon t)

let test_sched_join_waits () =
  let t = Sched.create () in
  let seen = ref false in
  let worker =
    Sched.spawn t ~name:"worker" (fun () ->
        Sched.charge 1000.0;
        seen := true)
  in
  let _ =
    Sched.spawn t ~name:"joiner" (fun () ->
        Sched.join worker;
        check bool "worker finished before join returned" true !seen;
        check bool "joiner clock caught up" true (Sched.now () >= 1000.0))
  in
  Sched.run t

let test_sched_failure_reported () =
  let t = Sched.create () in
  let tid = Sched.spawn t ~name:"crasher" (fun () -> failwith "boom") in
  Sched.run t;
  match Sched.outcome t tid with
  | Some (Sched.Failed (Failure m)) -> check Alcotest.string "msg" "boom" m
  | _ -> Alcotest.fail "expected Failed outcome"

let test_sched_deadlock_detected () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let _ =
    Sched.spawn t (fun () ->
        Sched.Mutex.lock m;
        (* never unlocks; second thread blocks forever *)
        Sched.charge 1.0)
  in
  let _ = Sched.spawn t (fun () -> Sched.Mutex.lock m) in
  Alcotest.check_raises "deadlock"
    (Sched.Deadlock "t1")
    (fun () -> Sched.run t)

(* The harness every simulation runs in: one body thread, a drained run,
   the body's value back. *)
let test_sched_main () =
  let first_tid = Sched.spawn (Sched.create ()) ignore in
  let at, tid =
    Sched.main (fun t ->
        let child = Sched.spawn t (fun () -> Sched.charge 500.0) in
        Sched.join child;
        (Sched.now (), Sched.self ()))
  in
  check (Alcotest.float 0.0) "body's value, after its child ran" 500.0 at;
  check int "body gets the first tid" first_tid tid;
  check int "on a caller's scheduler too" first_tid
    (Sched.main ~sched:(Sched.create ()) (fun _ -> Sched.self ()));
  Alcotest.check_raises "re-raises the body's exception" (Failure "boom")
    (fun () -> Sched.main (fun _ -> failwith "boom"));
  Alcotest.check_raises "blocked body" (Sched.Deadlock "main") (fun () ->
      Sched.main (fun _ -> Sched.suspend ignore));
  Alcotest.check_raises "blocked child of a finished body"
    (Sched.Deadlock "stuck") (fun () ->
      Sched.main (fun t ->
          ignore (Sched.spawn t ~name:"stuck" (fun () -> Sched.suspend ignore))));
  Alcotest.check_raises "a failed body's exception, not the deadlock it leaves"
    (Failure "boom") (fun () ->
      Sched.main (fun t ->
          ignore (Sched.spawn t ~name:"stuck" (fun () -> Sched.suspend ignore));
          failwith "boom"))

let test_mutex_mutual_exclusion () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 0 to 9 do
    ignore
      (Sched.spawn t
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           for _ = 1 to 5 do
             Sched.Mutex.with_lock m (fun () ->
                 incr inside;
                 if !inside > !max_inside then max_inside := !inside;
                 Sched.charge 10.0;
                 Sched.yield ();
                 decr inside)
           done))
  done;
  Sched.run t;
  check int "never two holders" 1 !max_inside

let test_mutex_contention_accounting () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let _ =
    Sched.spawn t (fun () ->
        Sched.Mutex.lock m;
        Sched.sleep 500.0;
        Sched.Mutex.unlock m)
  in
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 1.0;
        Sched.Mutex.lock m;
        Sched.Mutex.unlock m)
  in
  Sched.run t;
  check int "one contention" 1 (Sched.Mutex.contentions m);
  check bool "waited about 499 cycles" true (Sched.Mutex.wait_cycles m >= 400.0)

let test_cond_signal_wakes () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let c = Sched.Cond.create () in
  let got = ref None in
  let q = Queue.create () in
  let _ =
    Sched.spawn t ~name:"consumer" (fun () ->
        Sched.Mutex.lock m;
        while Queue.is_empty q do
          Sched.Cond.wait c m
        done;
        got := Some (Queue.pop q);
        Sched.Mutex.unlock m)
  in
  let _ =
    Sched.spawn t ~name:"producer" (fun () ->
        Sched.charge 100.0;
        Sched.Mutex.lock m;
        Queue.push 42 q;
        Sched.Cond.signal c;
        Sched.Mutex.unlock m)
  in
  Sched.run t;
  check (Alcotest.option int) "received" (Some 42) !got

let test_cond_broadcast_wakes_all () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let c = Sched.Cond.create () in
  let go = ref false in
  let woken = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Sched.spawn t (fun () ->
           Sched.Mutex.lock m;
           while not !go do
             Sched.Cond.wait c m
           done;
           incr woken;
           Sched.Mutex.unlock m))
  done;
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 10.0;
        Sched.Mutex.lock m;
        go := true;
        Sched.Cond.broadcast c;
        Sched.Mutex.unlock m)
  in
  Sched.run t;
  check int "all woken" 5 !woken

let test_sched_spawn_inherits_clock () =
  let t = Sched.create () in
  let child_start = ref 0.0 in
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 777.0;
        let child = Sched.spawn (Sched.current ()) (fun () -> child_start := Sched.now ()) in
        Sched.join child)
  in
  Sched.run t;
  check bool "child starts at parent's time" true (!child_start >= 777.0)

let test_sched_determinism () =
  let run_once () =
    let t = Sched.create () in
    let trace = Buffer.create 64 in
    let r = Rng.create 11 in
    for i = 0 to 4 do
      ignore
        (Sched.spawn t (fun () ->
             for _ = 1 to 3 do
               Sched.charge (float_of_int (Rng.int r 100));
               Buffer.add_string trace (string_of_int i);
               Sched.yield ()
             done))
    done;
    Sched.run t;
    Buffer.contents trace
  in
  check Alcotest.string "identical traces" (run_once ()) (run_once ())


let test_rwlock_readers_share () =
  let t = Sched.create () in
  let rw = Sched.Rwlock.create () in
  let max_concurrent = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sched.spawn t (fun () ->
           Sched.Rwlock.with_rd rw (fun () ->
               if Sched.Rwlock.readers rw > !max_concurrent then
                 max_concurrent := Sched.Rwlock.readers rw;
               Sched.sleep 100.0)))
  done;
  Sched.run t;
  check bool "readers overlapped" true (!max_concurrent > 1)

let test_rwlock_writer_exclusive () =
  let t = Sched.create () in
  let rw = Sched.Rwlock.create () in
  let in_write = ref false and violations = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn t (fun () ->
           for _ = 1 to 4 do
             Sched.Rwlock.with_wr rw (fun () ->
                 if !in_write then incr violations;
                 in_write := true;
                 Sched.sleep 10.0;
                 in_write := false)
           done));
    ignore
      (Sched.spawn t (fun () ->
           for _ = 1 to 4 do
             Sched.Rwlock.with_rd rw (fun () ->
                 if !in_write then incr violations;
                 Sched.sleep 5.0)
           done))
  done;
  Sched.run t;
  check int "no read/write overlap" 0 !violations

let test_rwlock_writer_waits_for_readers () =
  let t = Sched.create () in
  let rw = Sched.Rwlock.create () in
  let order = ref [] in
  let _ =
    Sched.spawn t ~name:"reader" (fun () ->
        Sched.Rwlock.rd_lock rw;
        Sched.sleep 1000.0;
        order := `Reader_done :: !order;
        Sched.Rwlock.rd_unlock rw)
  in
  let _ =
    Sched.spawn t ~name:"writer" (fun () ->
        Sched.charge 10.0;
        Sched.Rwlock.wr_lock rw;
        order := `Writer_in :: !order;
        Sched.Rwlock.wr_unlock rw)
  in
  Sched.run t;
  check bool "writer entered after reader finished" true
    (List.rev !order = [ `Reader_done; `Writer_in ])

let test_rwlock_misuse_detected () =
  let t = Sched.create () in
  let rw = Sched.Rwlock.create () in
  let tid =
    Sched.spawn t (fun () -> Sched.Rwlock.rd_unlock rw)
  in
  Sched.run t;
  match Sched.outcome t tid with
  | Some (Sched.Failed (Invalid_argument _)) -> ()
  | _ -> Alcotest.fail "unbalanced rd_unlock not caught"

(* {1 Timers ≡ timer fibers}

   [Sched.suspend_until] must run every script exactly as a timed wait
   built from a timer thread does: a fiber spawned at the call that moves
   its clock to the deadline, then calls the wake. That fiber is the
   reference below. Each seed runs the same random scripts against both
   and compares every observable: the (tid, clock) at every step, each
   real thread's final clock and waited time, the horizon read mid-run
   and at the end, and the outcomes once the reference's timer threads
   are filtered out. Clocks move on a 100-cycle grid, so timers, wakes
   and other threads' steps often share a clock and the tie-break is
   exercised. *)

let fiber_suspend_until ~deadline register =
  let wake_ref = ref None in
  let _timer =
    Sched.spawn (Sched.current ()) ~name:"timer" (fun () ->
        Sched.wait_until deadline;
        match !wake_ref with Some w -> w ~at:deadline | None -> ())
  in
  Sched.suspend (fun wake ->
      wake_ref := Some wake;
      register wake)

(* Deadlines relative to the caller's clock, or to another thread's. *)
type deadline = Past of int | Now | Ahead of int | Clock_of of int * int

type when_ = Immediately | At_deadline | Later of int

type op =
  | Charge of int
  | Yield
  | Wait_until of int
  | Timed_wait of deadline
  | Send of int * when_  (* wake thread [j]'s pending timed wait *)
  | Kill of int  (* kill thread [j] if it is blocked in a timed wait *)
  | Horizon
  | Spawn of op list

let gen_script rng ~threads ~len =
  let step k = 100 * (1 + Random.State.int rng k) in
  let rec op ~spawn =
    match Random.State.int rng 100 with
    | n when n < 22 -> Charge (step 8)
    | n when n < 30 -> Yield
    | n when n < 38 -> Wait_until (step 6 - 100)
    | n when n < 62 ->
        Timed_wait
          (match Random.State.int rng 8 with
          | 0 -> Past (step 3)
          | 1 -> Now
          | 2 | 3 -> Clock_of (Random.State.int rng threads, step 3 - 100)
          | _ -> Ahead (step 12))
    | n when n < 80 ->
        Send
          ( Random.State.int rng threads,
            match Random.State.int rng 3 with
            | 0 -> Immediately
            | 1 -> At_deadline
            | _ -> Later (step 4) )
    | n when n < 86 -> Kill (Random.State.int rng threads)
    | n when n < 96 -> Horizon
    | _ when spawn ->
        Spawn
          (List.init (2 + Random.State.int rng 4) (fun _ -> op ~spawn:false))
    | _ -> Yield
  in
  List.init len (fun _ -> op ~spawn:true)

type tally = {
  mutable timeouts : int;
  mutable early : int;  (* woken by a sender before the deadline *)
  mutable exact : int;  (* woken by a sender exactly at the deadline *)
  mutable past : int;  (* deadline at or before the caller's clock *)
  mutable kills : int;
}

(* Run [scripts] with [timed] as the timed wait; returns everything the
   two implementations must agree on. *)
let run_scripts timed scripts tally =
  let sched = Sched.create () in
  let n = Array.length scripts in
  let tids = Array.make n (-1) in
  let pending = Array.make n None in
  let real = ref [] and log = ref [] in
  let children = ref 0 in
  let note fmt =
    Printf.ksprintf
      (fun s ->
        log := Printf.sprintf "%d@%h %s" (Sched.self ()) (Sched.now ()) s :: !log)
      fmt
  in
  let rec step i = function
    | Charge c ->
        Sched.charge (float_of_int c);
        note "charge"
    | Yield ->
        Sched.yield ();
        note "yield"
    | Wait_until d ->
        Sched.wait_until (Sched.now () +. float_of_int d);
        note "wait_until"
    | Timed_wait d ->
        let now = Sched.now () in
        let deadline =
          match d with
          | Past k -> now -. float_of_int k
          | Now -> now
          | Ahead k -> now +. float_of_int k
          | Clock_of (j, k) ->
              Option.get (Sched.thread_clock sched tids.(j)) +. float_of_int k
        in
        if deadline <= now then tally.past <- tally.past + 1;
        timed ~deadline (fun wake ->
            if i >= 0 then pending.(i) <- Some (wake, deadline));
        (if i < 0 || Option.is_some pending.(i) then begin
           tally.timeouts <- tally.timeouts + 1;
           if i >= 0 then pending.(i) <- None
         end
         else if Sched.now () < deadline then tally.early <- tally.early + 1
         else if Sched.now () = deadline then tally.exact <- tally.exact + 1);
        note "timed_wait"
    | Send (j, w) ->
        (match pending.(j) with
        | Some (wake, deadline) ->
            pending.(j) <- None;
            wake
              ~at:
                (match w with
                | Immediately -> Sched.now ()
                | At_deadline -> deadline
                | Later k -> Sched.now () +. float_of_int k)
        | None -> ());
        note "send %d" j
    | Kill j ->
        (match pending.(j) with
        | Some _ ->
            pending.(j) <- None;
            tally.kills <- tally.kills + 1;
            Sched.kill sched tids.(j)
        | None -> ());
        note "kill %d" j
    | Horizon -> note "horizon %h" (Sched.horizon sched)
    | Spawn ops ->
        let name = Printf.sprintf "c%d" !children in
        incr children;
        real := Sched.spawn sched ~name (body (-1) ops) :: !real;
        note "spawn"
  and body i ops () =
    match List.iter (step i) ops with
    | () -> ()
    | exception Sched.Killed ->
        note "killed";
        raise Sched.Killed
  in
  Array.iteri
    (fun i ops ->
      tids.(i) <- Sched.spawn sched ~name:(Printf.sprintf "w%d" i) (body i ops);
      real := tids.(i) :: !real)
    scripts;
  Sched.run sched;
  let finals =
    List.map
      (fun tid ->
        Printf.sprintf "%d clock %h waited %h" tid
          (Option.get (Sched.thread_clock sched tid))
          (Option.get (Sched.thread_waited sched tid)))
      (List.sort compare !real)
  in
  let outcomes =
    List.filter_map
      (fun (tid, name, oc) ->
        if name = "timer" then None
        else
          Some
            (Printf.sprintf "%d %s %s" tid name
               (match oc with
               | Sched.Completed -> "completed"
               | Failed e -> Printexc.to_string e)))
      (Sched.outcomes sched)
  in
  (List.rev !log, finals, Printf.sprintf "%h" (Sched.horizon sched), outcomes)

let test_timers_match_fibers () =
  let total = { timeouts = 0; early = 0; exact = 0; past = 0; kills = 0 } in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let threads = 6 + Random.State.int rng 5 in
      let scripts =
        Array.init threads (fun _ ->
            gen_script rng ~threads ~len:(10 + Random.State.int rng 15))
      in
      let log', finals', horizon', outcomes' =
        run_scripts fiber_suspend_until scripts total
      in
      let log, finals, horizon, outcomes =
        run_scripts Sched.suspend_until scripts
          { timeouts = 0; early = 0; exact = 0; past = 0; kills = 0 }
      in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let strings = Alcotest.(list string) in
      check strings (name "resumption log") log' log;
      check strings (name "final clocks") finals' finals;
      check Alcotest.string (name "horizon") horizon' horizon;
      check strings (name "outcomes") outcomes' outcomes)
    [ 1; 2; 3; 4; 5 ];
  (* The scripts must reach every case the equivalence is about. *)
  List.iter
    (fun (what, n) -> check bool (what ^ " occur") true (n > 0))
    [
      ("timeouts", total.timeouts); ("early wakes", total.early);
      ("wakes at the deadline", total.exact); ("past deadlines", total.past);
      ("kills of blocked threads", total.kills);
    ]

(* {1 Cost} *)

let test_cost_conversions () =
  let c = Cost.default in
  check (Alcotest.float 1e-9) "1us at 2.1GHz" 2100.0 (Cost.cycles_of_us c 1.0);
  check (Alcotest.float 1e-9) "roundtrip" 1.0
    (Cost.us_of_cycles c (Cost.cycles_of_us c 1.0))

let () =
  Alcotest.run "simkern"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          QCheck_alcotest.to_alcotest rng_int_bounds;
        ] );
      ( "sched",
        [
          Alcotest.test_case "clock order" `Quick test_sched_runs_in_clock_order;
          Alcotest.test_case "charge advances clock" `Quick test_sched_charge_advances_clock;
          Alcotest.test_case "horizon" `Quick test_sched_horizon_is_makespan;
          Alcotest.test_case "join waits" `Quick test_sched_join_waits;
          Alcotest.test_case "failure reported" `Quick test_sched_failure_reported;
          Alcotest.test_case "deadlock detected" `Quick test_sched_deadlock_detected;
          Alcotest.test_case "spawn inherits clock" `Quick test_sched_spawn_inherits_clock;
          Alcotest.test_case "determinism" `Quick test_sched_determinism;
          Alcotest.test_case "timers ≡ timer fibers, 5 seeds" `Quick
            test_timers_match_fibers;
          Alcotest.test_case "main" `Quick test_sched_main;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "contention accounting" `Quick test_mutex_contention_accounting;
          Alcotest.test_case "cond signal" `Quick test_cond_signal_wakes;
          Alcotest.test_case "cond broadcast" `Quick test_cond_broadcast_wakes_all;
          Alcotest.test_case "rwlock readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "rwlock writer exclusive" `Quick test_rwlock_writer_exclusive;
          Alcotest.test_case "rwlock writer waits" `Quick test_rwlock_writer_waits_for_readers;
          Alcotest.test_case "rwlock misuse" `Quick test_rwlock_misuse_detected;
        ] );
      ("cost", [ Alcotest.test_case "conversions" `Quick test_cost_conversions ]);
    ]
