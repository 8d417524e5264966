(* Tests for the simkern substrate: RNG determinism, virtual-time
   scheduling order, mutex handoff and contention accounting, joins and
   failure reporting. *)

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

(* splitmix64 over a plain [int64] state: the reference every [Rng]
   stream must keep matching. *)
module Ref_splitmix = struct
  type t = { mutable state : int64 }

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix t.state

  let int t bound = Int64.to_int (Int64.shift_right_logical (int64 t) 2) mod bound
  let float t = Int64.to_float (Int64.shift_right_logical (int64 t) 11) *. 0x1.0p-53
  let split t = { state = int64 t }
end

let test_rng_matches_reference () =
  let same what seed draw reference =
    let r = Rng.create seed and m = { Ref_splitmix.state = Int64.of_int seed } in
    for i = 1 to 100_000 do
      if not (draw r = reference m) then
        Alcotest.failf "seed %d: %s output %d differs" seed what i
    done
  in
  List.iter
    (fun seed ->
      same "int64" seed Rng.int64 Ref_splitmix.int64;
      same "int" seed (fun r -> Rng.int r 1_000_003) (fun m ->
          Ref_splitmix.int m 1_000_003);
      same "float" seed Rng.float Ref_splitmix.float;
      (* The int draw scales to the reference's [Int64.to_float] value
         bit for bit, and [below] compares that value. *)
      same "bits53" seed
        (fun r -> float_of_int (Rng.bits53 r) *. 0x1.0p-53)
        Ref_splitmix.float;
      same "below" seed
        (fun r -> Rng.below r 0.01)
        (fun m -> Ref_splitmix.float m < 0.01);
      (* A split child draws the reference child's stream. *)
      same "split" seed
        (fun r -> Rng.int64 (Rng.split r))
        (fun m -> Ref_splitmix.int64 (Ref_splitmix.split m)))
    [ 0; 1; 42; -7; max_int ]

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

(* {1 The running-thread record} *)

(* Outside a run the record names no thread, and the accessors that
   read it fail. *)
let names_no_thread what =
  check int (what ^ ": no tid") (-1) Sched.running.tid;
  check bool (what ^ ": not in a thread") false (Sched.in_thread ());
  let fails f =
    match f () with
    | _ -> Alcotest.failf "%s: expected a failure" what
    | exception Failure m ->
        check Alcotest.string (what ^ ": failure") "Sched: not inside a simulation"
          m
  in
  fails (fun () -> ignore (Sched.self ()));
  fails (fun () -> ignore (Sched.clock_cell ()));
  fails (fun () -> ignore (Sched.now ()));
  fails (fun () -> Sched.charge 1.0)

(* Inside thread [tid] of [t], the record names [tid] and its cell: a
   cycle added to the record's cell shows in the thread's clock. *)
let names_thread t tid what =
  check int (what ^ ": tid") tid Sched.running.tid;
  check int (what ^ ": self") tid (Sched.self ());
  let before = Option.get (Sched.thread_clock t tid) in
  let k = Sched.running.cell in
  k.clock <- k.clock +. 1.0;
  check (Alcotest.float 0.0) (what ^ ": the thread's own cell") (before +. 1.0)
    (Option.get (Sched.thread_clock t tid));
  check bool (what ^ ": clock_cell") true (Sched.clock_cell () == k)

let test_running_record () =
  names_no_thread "before a run";
  let t = Sched.create () in
  let deadlines = Float.Array.make 1 300.0 in
  let probe name body =
    let me = ref (-1) in
    me := Sched.spawn t ~name (fun () -> body !me);
    !me
  in
  let a =
    probe "a" (fun me ->
        names_thread t me "a, first step";
        Sched.yield ();
        names_thread t me "a, after a yield";
        Sched.charge 50.0;
        Sched.yield ();
        names_thread t me "a, after a charged yield";
        Sched.block_until_from deadlines 0;
        names_thread t me "a, after a timed wait")
  in
  let b =
    probe "b" (fun me ->
        names_thread t me "b, first step";
        Sched.sleep 20.0;
        names_thread t me "b, after a sleep";
        Sched.wait_until 400.0;
        names_thread t me "b, after a wait")
  in
  check bool "distinct threads" true (a <> b);
  names_no_thread "spawned, not run";
  Sched.run t;
  (* A failed check inside a thread ends the thread, not the test. *)
  let completed t tid =
    match Sched.outcome t tid with
    | Some Sched.Completed -> ()
    | Some (Sched.Failed e) -> raise e
    | None -> Alcotest.fail "a probe thread did not finish"
  in
  completed t a;
  completed t b;
  names_no_thread "after a run";
  (* A thread that runs a simulation of its own sees itself again once
     the nested run returns, raises or deadlocks. *)
  let outer = Sched.create () in
  for _ = 1 to 3 do
    ignore (Sched.spawn outer ignore)
  done;
  let me = ref (-1) in
  me :=
    Sched.spawn outer (fun () ->
        let mine = Sched.running.cell in
        names_thread outer !me "outer, before";
        let inner_tid, inner_cell =
          Sched.main (fun _ -> (Sched.running.tid, Sched.running.cell))
        in
        check int "the nested body's tid" 0 inner_tid;
        check bool "the nested body's own cell" true (inner_cell != mine);
        names_thread outer !me "outer, after a nested run returned";
        (match Sched.main (fun _ -> failwith "nested") with
        | () -> Alcotest.fail "the nested body raised"
        | exception Failure _ -> ());
        names_thread outer !me "outer, after a nested run raised";
        (match Sched.main (fun _ -> Sched.block ()) with
        | () -> Alcotest.fail "the nested body blocked"
        | exception Sched.Deadlock _ -> ());
        names_thread outer !me "outer, after a nested run deadlocked";
        check bool "the same cell throughout" true (Sched.running.cell == mine));
  check bool "not the nested body's tid" true (!me <> 0);
  Sched.run outer;
  completed outer !me;
  names_no_thread "after the outer run"

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
      Sched.main (fun _ -> Sched.block ()));
  Alcotest.check_raises "blocked child of a finished body"
    (Sched.Deadlock "stuck") (fun () ->
      Sched.main (fun t ->
          ignore (Sched.spawn t ~name:"stuck" (fun () -> Sched.block ()))));
  Alcotest.check_raises "a failed body's exception, not the deadlock it leaves"
    (Failure "boom") (fun () ->
      Sched.main (fun t ->
          ignore (Sched.spawn t ~name:"stuck" (fun () -> Sched.block ()));
          failwith "boom"))

(* A server thread dies while a client waits for its answer: the run
   ends with the client blocked, and what [main] raises is the server's
   exception, the cause, not the [Deadlock] naming the client. A thread
   that was killed is not a cause: with only that, the deadlock stands. *)
let test_failed_thread_before_deadlock () =
  Alcotest.check_raises "the server's exception" (Failure "server died")
    (fun () ->
      Sched.main (fun t ->
          (* The client waits for a wake the server dies before sending. *)
          ignore (Sched.spawn t ~name:"client" (fun () -> Sched.block ()));
          ignore
            (Sched.spawn t ~name:"server" (fun () ->
                 Sched.charge 100.0;
                 failwith "server died"))));
  Alcotest.check_raises "the first failed thread by tid, not by time"
    (Failure "lower tid") (fun () ->
      Sched.main (fun t ->
          ignore (Sched.spawn t ~name:"stuck" (fun () -> Sched.block ()));
          ignore
            (Sched.spawn t (fun () ->
                 Sched.charge 9.0;
                 failwith "lower tid"));
          ignore
            (Sched.spawn t (fun () ->
                 Sched.charge 5.0;
                 failwith "higher tid"))));
  Alcotest.check_raises "a killed thread is no cause" (Sched.Deadlock "stuck")
    (fun () ->
      Sched.main (fun t ->
          let victim = Sched.spawn t (fun () -> Sched.sleep 1_000.0) in
          ignore (Sched.spawn t ~name:"stuck" (fun () -> Sched.block ()));
          Sched.kill t victim))

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

(* {1 Timers ≡ timer fibers}

   [Sched.block_until_from] must run every script exactly as a timed wait
   built from a timer thread does: a fiber spawned at the call that moves
   its clock to the deadline, then wakes the waiter's handle. That fiber
   is the reference below. Each seed runs the same random scripts
   against both and compares every observable: the (tid, clock) at
   every step, each real thread's final clock and waited time, the
   horizon read mid-run and at the end, and the outcomes once the
   reference's timer threads are filtered out. Clocks move on a 100-cycle grid, so timers, wakes
   and other threads' steps often share a clock and the tie-break is
   exercised. *)

let fiber_block_until deadline =
  let h = Sched.handle () in
  let _timer =
    Sched.spawn (Sched.current ()) ~name:"timer" (fun () ->
        Sched.wait_until deadline;
        ignore (Sched.wake_from h (Float.Array.make 1 deadline) 0))
  in
  Sched.block ()

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
        if i >= 0 then pending.(i) <- Some (Sched.handle (), deadline);
        timed deadline;
        (if i < 0 || Option.is_some pending.(i) then begin
           tally.timeouts <- tally.timeouts + 1;
           if i >= 0 then pending.(i) <- None
         end
         else if Sched.now () < deadline then tally.early <- tally.early + 1
         else if Sched.now () = deadline then tally.exact <- tally.exact + 1);
        note "timed_wait"
    | Send (j, w) ->
        (match pending.(j) with
        | Some (h, deadline) ->
            pending.(j) <- None;
            let at =
              match w with
              | Immediately -> Sched.now ()
              | At_deadline -> deadline
              | Later k -> Sched.now () +. float_of_int k
            in
            ignore (Sched.wake_from h (Float.Array.make 1 at) 0)
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
        run_scripts fiber_block_until scripts total
      in
      let log, finals, horizon, outcomes =
        run_scripts
          (fun deadline ->
            Sched.block_until_from (Float.Array.make 1 deadline) 0)
          scripts
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

(* A handle names one suspension of one scheduler's thread. Kept past
   the run it came from, it must not wake the thread a later scheduler
   puts in the same slot, even at the same point in its life: here
   [main] of both runs, blocked in its first suspension. *)
let test_handle_from_another_run () =
  let stale = ref Sched.no_handle in
  Alcotest.check_raises "first run" (Sched.Deadlock "main") (fun () ->
      Sched.main (fun _ ->
          stale := Sched.handle ();
          Sched.block ()));
  let stale_woke = ref true in
  Sched.main (fun t ->
      let own = Sched.handle () in
      let _ =
        Sched.spawn t (fun () ->
            stale_woke := Sched.wake !stale;
            ignore (Sched.wake own))
      in
      Sched.block ());
  check bool "the stale handle woke nothing" false !stale_woke

(* {1 Waiters killed while blocked}

   A killed waiter leaves its handle in the queue it waited on, stale:
   the kill ended that suspension. A handoff that wakes one waiter must
   pass over it to the next, or the lock or signal is lost. *)

(* A thread killed mid-sleep unwinds when the kill happens, not when its
   sleep would have ended, and a Dlock it held is poison-released then:
   the next acquirer takes it, poisoned, at the kill's time. *)
let test_kill_mid_sleep () =
  let killed_at = ref nan and unwound_at = ref nan and taken_at = ref nan in
  let poisoned = ref false in
  Sched.main (fun t ->
      let sd = Sdrad.Api.create (Vmem.Space.create ~size_mib:8 ()) in
      let l = Sdrad.Dlock.create sd in
      let sleeper =
        Sched.spawn t ~name:"sleeper" (fun () ->
            Sdrad.Dlock.with_lock l (fun ~poisoned:_ ->
                try Sched.sleep 1.0e12
                with Sched.Killed as e ->
                  unwound_at := Sched.now ();
                  raise e))
      in
      Sched.sleep 10_000.0;
      Sched.kill t sleeper;
      killed_at := Sched.now ();
      poisoned := not (Sdrad.Dlock.acquire l);
      taken_at := Sched.now ();
      Sdrad.Dlock.clear_poisoned l;
      Sdrad.Dlock.release l);
  check (Alcotest.float 0.0) "unwound at the kill" !killed_at !unwound_at;
  check bool "the lock came back poisoned" true !poisoned;
  if !taken_at -. !killed_at > 10_000.0 then
    Alcotest.failf "the lock was taken %.0f cycles after the kill"
      (!taken_at -. !killed_at)

let test_killed_mutex_waiter () =
  let got = ref false in
  Sched.main (fun t ->
      let m = Sched.Mutex.create () in
      Sched.Mutex.lock m;
      let b = Sched.spawn t ~name:"B" (fun () -> Sched.Mutex.lock m) in
      Sched.sleep 10.0;
      Sched.kill t b;
      Sched.Mutex.unlock m;
      Sched.join
        (Sched.spawn t ~name:"C" (fun () ->
             Sched.Mutex.lock m;
             got := true;
             Sched.Mutex.unlock m));
      check bool "B died" true (Sched.outcome t b = Some (Sched.Failed Sched.Killed)));
  check bool "C took the mutex" true !got

(* {1 Host allocation}

   What a scheduling event costs in OCaml minor words, pinned at the
   measured figure. A blocked thread is named by an int handle and the
   scheduler's effect handler is built once, so a yield costs only its
   continuation. *)

let words_in_thread f =
  Sched.main (fun _ -> Alloc_probe.words_per_call ~n:10_000 f)

let test_yield_allocation () =
  let words = words_in_thread Sched.yield in
  if words > 2.0 then
    Alcotest.failf "a yield allocates %.1f minor words; the budget is 2" words

(* 24.0 words: the thread record and its clock cell, the joiner's cons
   cell and continuation, and the handler closure [Effect.Deep.match_with]
   builds for each thread it starts. The warm-up spawns past 256
   threads, so the scheduler's thread vector makes its last minor-heap
   growth before the count (it read 24.03 with that growth inside, under
   a budget of 26). *)
let test_spawn_join_allocation () =
  let words =
    Sched.main (fun t ->
        Alloc_probe.words_per_call ~warmup:300 ~n:10_000 (fun () ->
            Sched.join (Sched.spawn t ignore)))
  in
  if words > 24.0 then
    Alcotest.failf "a spawn + join allocates %.1f minor words; the budget is 24"
      words

let test_mutex_allocation () =
  let m = Sched.Mutex.create () in
  let words =
    words_in_thread (fun () ->
        Sched.Mutex.lock m;
        Sched.Mutex.unlock m)
  in
  if words > 0.0 then
    Alcotest.failf
      "an uncontended lock + unlock allocates %.1f minor words; the budget is 0"
      words

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
          Alcotest.test_case "matches a reference splitmix64" `Quick
            test_rng_matches_reference;
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
          Alcotest.test_case "running-thread record" `Quick test_running_record;
          Alcotest.test_case "yield host allocation" `Quick test_yield_allocation;
          Alcotest.test_case "spawn + join host allocation" `Quick
            test_spawn_join_allocation;
          Alcotest.test_case "handle from another run" `Quick
            test_handle_from_another_run;
          Alcotest.test_case "failed thread before deadlock" `Quick
            test_failed_thread_before_deadlock;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "contention accounting" `Quick test_mutex_contention_accounting;
          Alcotest.test_case "killed mutex waiter" `Quick test_killed_mutex_waiter;
          Alcotest.test_case "kill mid-sleep" `Quick test_kill_mid_sleep;
          Alcotest.test_case "mutex host allocation" `Quick test_mutex_allocation;
        ] );
      ("cost", [ Alcotest.test_case "conversions" `Quick test_cost_conversions ]);
    ]
