(* Tests for the simulated loopback network: connection establishment,
   message ordering, blocking recv with latency accounting, close
   semantics, and waitset-based multiplexing. *)

module Sched = Simkern.Sched
module Cost = Simkern.Cost

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let run_sim f =
  let sched = Sched.create () in
  f sched;
  Sched.run sched;
  List.iter
    (fun (_, name, oc) ->
      match oc with
      | Sched.Completed -> ()
      | Sched.Failed e ->
          Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e))
    (Sched.outcomes sched)

let test_echo_roundtrip () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            match Netsim.recv c with
            | Some msg -> Netsim.send c ("echo:" ^ msg)
            | None -> Alcotest.fail "server saw close")
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.send c "hello";
            match Netsim.recv c with
            | Some reply -> check string "echoed" "echo:hello" reply
            | None -> Alcotest.fail "no reply")
      in
      ())

let test_message_ordering () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let got = ref [] in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            for _ = 1 to 5 do
              match Netsim.recv c with
              | Some m -> got := m :: !got
              | None -> ()
            done)
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            for i = 1 to 5 do
              Netsim.send c (string_of_int i)
            done)
      in
      ());
  ()

let test_ordering_preserved () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            let msgs = List.init 5 (fun _ -> Option.get (Netsim.recv c)) in
            check
              (Alcotest.list string)
              "fifo order"
              [ "1"; "2"; "3"; "4"; "5" ]
              msgs)
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            List.iter (Netsim.send c) [ "1"; "2"; "3"; "4"; "5" ])
      in
      ())

let test_latency_advances_clock () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            let before = Sched.now () in
            (match Netsim.recv c with Some _ -> () | None -> ());
            check bool "recv advanced past message latency" true
              (Sched.now () >= before))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.send c (String.make 1000 'x'))
      in
      ())

let test_close_wakes_receiver () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            check bool "recv returns None on close" true (Netsim.recv c = None))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Sched.sleep 5_000.0;
            Netsim.close c)
      in
      ())

let test_pending_messages_before_close () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            Sched.sleep 100_000.0;
            (* The client has sent then closed: the data must still be
               readable before the close is reported. *)
            check bool "message first" true (Netsim.recv c = Some "last words");
            check bool "then close" true (Netsim.recv c = None))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.send c "last words";
            Netsim.close c)
      in
      ())

let test_waitset_multiplexes () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let served = ref 0 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let ws = Netsim.Waitset.create () in
            for _ = 1 to 3 do
              Netsim.Waitset.add ws (Option.get (Netsim.accept l))
            done;
            let finished = ref 0 in
            while !finished < 3 do
              match Netsim.Waitset.wait ws with
              | None -> finished := 3
              | Some c -> (
                  match Netsim.recv c with
                  | Some msg ->
                      incr served;
                      Netsim.send c ("ok:" ^ msg)
                  | None ->
                      Netsim.Waitset.remove ws c;
                      incr finished)
            done)
      in
      for i = 1 to 3 do
        ignore
          (Sched.spawn sched
             ~name:(Printf.sprintf "client%d" i)
             (fun () ->
               let c = Netsim.connect net ~port:80 in
               Sched.sleep (float_of_int (i * 1000));
               Netsim.send c (string_of_int i);
               (match Netsim.recv c with
               | Some r -> check string "reply" ("ok:" ^ string_of_int i) r
               | None -> Alcotest.fail "no reply");
               Netsim.close c))
      done;
      Sched.run sched;
      check int "all three served" 3 !served)

(* The waitset serves the earliest head-of-line arrival; equal arrivals
   go to the first ready connection in rotation order from the cursor
   (which sits one past the previous winner), wrapping at the end of the
   set. Each message is sent by its own fiber at a chosen virtual time,
   so equal send times give exactly equal arrivals. *)
let test_waitset_pick_order () =
  let winners = ref [] in
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let clients = Array.init 4 (fun _ -> Netsim.connect net ~port:80) in
            let servers = Array.init 4 (fun _ -> Option.get (Netsim.accept l)) in
            let ws = Netsim.Waitset.create () in
            Array.iter (Netsim.Waitset.add ws) servers;
            let round sends =
              let t0 = Sched.now () in
              List.iter
                (fun (i, dt) ->
                  ignore
                    (Sched.spawn sched (fun () ->
                         Sched.wait_until (t0 +. 10_000.0 +. dt);
                         Netsim.send clients.(i) "x")))
                sends;
              List.iter
                (fun _ ->
                  match Netsim.Waitset.wait ws with
                  | None -> Alcotest.fail "waitset closed"
                  | Some c ->
                      ignore (Netsim.recv c);
                      let rec slot i = if servers.(i) == c then i else slot (i + 1) in
                      winners := slot 0 :: !winners)
                sends
            in
            (* Ties from cursor 0: rotation order. *)
            round [ (3, 0.0); (1, 0.0); (2, 0.0) ];
            (* Cursor back at 0; slot 2 arrives first, then a tie on 0, 1
               and 3 resolves from cursor 3 and wraps: 3, 0, 1. *)
            round [ (0, 1_000.0); (1, 1_000.0); (2, 0.0); (3, 1_000.0) ];
            (* Cursor at 2: an earlier arrival on slot 1 beats slot 2,
               although slot 2 comes first in rotation. *)
            round [ (2, 1_000.0); (1, 0.0) ];
            Array.iter Netsim.close clients)
      in
      ());
  check (Alcotest.list int) "winner order"
    [ 1; 2; 3; 2; 3; 0; 1; 1; 2 ]
    (List.rev !winners)

let test_send_after_close_is_noop () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () -> ignore (Option.get (Netsim.accept l)))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.close c;
            Netsim.send c "into the void";
            check bool "still closed" false (Netsim.is_open c))
      in
      ())

(* {1 Host cost of a timed wait}

   A blocked timed wait arms a scheduler timer, not a thread. [Sched]
   keeps every finished thread for [outcomes], so a thread per timed wait
   would stay in host memory until the end of the run. *)

let exchanges = 1_000

(* Echo every message on the first connection accepted on [l]. *)
let echo_server l () =
  let c = Option.get (Netsim.accept l) in
  let rec serve () =
    match Netsim.recv c with
    | Some m ->
        Netsim.send c m;
        serve ()
    | None -> ()
  in
  serve ()

let plain_roundtrip c =
  Netsim.send c "ping";
  match Netsim.recv c with Some _ -> () | None -> Alcotest.fail "no reply"

let timed_roundtrip c =
  Netsim.send c "ping";
  match Netsim.recv_deadline c ~deadline:(Sched.now () +. 1.0e6) with
  | Some _ -> ()
  | None -> Alcotest.fail "reply missed its deadline"

(* Run [server] against a client thread that runs [client] on its
   connection; returns the scheduler once the run is over. *)
let exchange ~server ~client =
  let sched = Sched.create () in
  let net = Netsim.create Cost.default in
  let l = Netsim.listen net ~port:80 in
  ignore (Sched.spawn sched ~name:"server" (server l));
  ignore
    (Sched.spawn sched ~name:"client" (fun () ->
         let c = Netsim.connect net ~port:80 in
         client c;
         Netsim.close c));
  Sched.run sched;
  sched

let check_only_real_threads sched =
  let finished = Sched.outcomes sched in
  check int "threads the scheduler holds" 2 (List.length finished);
  List.iter
    (fun (_, name, oc) ->
      match oc with
      | Sched.Completed -> ()
      | Failed e -> Alcotest.failf "%s failed: %s" name (Printexc.to_string e))
    finished

let test_timed_recv_leaves_no_threads () =
  check_only_real_threads
    (exchange ~server:echo_server ~client:(fun c ->
         for _ = 1 to exchanges do
           timed_roundtrip c
         done))

let test_timed_wait_leaves_no_threads () =
  let waitset_server l () =
    let ws = Netsim.Waitset.create () in
    Netsim.Waitset.add ws (Option.get (Netsim.accept l));
    let rec serve () =
      match Netsim.Waitset.wait_deadline ws ~deadline:(Sched.now () +. 1.0e6) with
      | None -> Alcotest.fail "request missed its deadline"
      | Some c -> (
          match Netsim.recv c with
          | Some m ->
              Netsim.send c m;
              serve ()
          | None -> ())
    in
    serve ()
  in
  check_only_real_threads
    (exchange ~server:waitset_server ~client:(fun c ->
         for _ = 1 to exchanges do
           plain_roundtrip c
         done))

(* Minor words one exchange allocates, both threads and the scheduler
   included, measured in the client thread after a warm-up. *)
let words_per_exchange roundtrip =
  let words = ref 0.0 in
  ignore
    (exchange ~server:echo_server ~client:(fun c ->
         words :=
           Alloc_probe.words_per_call ~warmup:exchanges ~n:exchanges (fun () ->
               roundtrip c)));
  !words

(* Pinned at the measured figures plus under 10 %. *)
let test_timed_recv_allocation () =
  let plain = words_per_exchange plain_roundtrip in
  if plain > 13.0 then
    Alcotest.failf
      "an exchange through plain recv allocates %.1f minor words; the budget \
       is 13"
      plain;
  let timed = words_per_exchange timed_roundtrip in
  if timed > 17.0 then
    Alcotest.failf
      "a timed exchange allocates %.1f minor words; the budget is 17" timed

(* A receive that timed out leaves its handle in the connection, stale.
   The thread then blocks on a held mutex; a message arriving on the
   first connection afterwards must not wake it there, so [lock] returns
   only once the holder has unlocked. *)
let test_stale_wake () =
  let got_lock_at = ref nan and unlocked_at = ref nan in
  Sched.main (fun t ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let m = Sched.Mutex.create () in
      Sched.Mutex.lock m;
      let waiter =
        Sched.spawn t ~name:"waiter" (fun () ->
            let c = Netsim.connect net ~port:80 in
            let deadline = Sched.now () +. 1_000.0 in
            check bool "timed out" true (Netsim.recv_deadline c ~deadline = None);
            Sched.Mutex.lock m;
            got_lock_at := Sched.now ();
            Sched.Mutex.unlock m)
      in
      let server = Option.get (Netsim.accept l) in
      Sched.sleep 5_000.0;
      (* The waiter is blocked in [lock] by now. *)
      Netsim.send server "late";
      Sched.sleep 50_000.0;
      unlocked_at := Sched.now ();
      Sched.Mutex.unlock m;
      Sched.join waiter);
  check bool "lock returned only after the unlock" true
    (!got_lock_at >= !unlocked_at)

let () =
  Alcotest.run "netsim"
    [
      ( "conn",
        [
          Alcotest.test_case "echo roundtrip" `Quick test_echo_roundtrip;
          Alcotest.test_case "ordering" `Quick test_ordering_preserved;
          Alcotest.test_case "multi message" `Quick test_message_ordering;
          Alcotest.test_case "latency" `Quick test_latency_advances_clock;
        ] );
      ( "close",
        [
          Alcotest.test_case "close wakes receiver" `Quick test_close_wakes_receiver;
          Alcotest.test_case "pending before close" `Quick test_pending_messages_before_close;
          Alcotest.test_case "send after close" `Quick test_send_after_close_is_noop;
        ] );
      ( "waitset",
        [
          Alcotest.test_case "multiplex" `Quick test_waitset_multiplexes;
          Alcotest.test_case "pick order" `Quick test_waitset_pick_order;
        ] );
      ( "timed wait",
        [
          Alcotest.test_case "recv_deadline leaves no threads" `Quick
            test_timed_recv_leaves_no_threads;
          Alcotest.test_case "wait_deadline leaves no threads" `Quick
            test_timed_wait_leaves_no_threads;
          Alcotest.test_case "host allocation" `Quick test_timed_recv_allocation;
          Alcotest.test_case "stale wake after a timeout" `Quick test_stale_wake;
        ] );
    ]
