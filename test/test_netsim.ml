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
              let c = Netsim.Waitset.wait ws in
              if c == Netsim.no_conn then finished := 3
              else
                match Netsim.recv c with
                | Some msg ->
                    incr served;
                    Netsim.send c ("ok:" ^ msg)
                | None ->
                    Netsim.Waitset.remove ws c;
                    incr finished
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
                  let c = Netsim.Waitset.wait ws in
                  if c == Netsim.no_conn then Alcotest.fail "waitset closed";
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

(* A connect to a closed listener is refused: it costs what a connect
   costs, and its receive reports the close at once instead of waiting
   for an accept that never comes. *)
let test_connect_to_closed_listener () =
  Sched.main (fun _ ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      Netsim.close_listener l;
      let t0 = Sched.now () in
      let c = Netsim.connect net ~port:80 in
      let t1 = Sched.now () in
      check (Alcotest.float 0.0) "charged as a connect" Cost.default.net_msg
        (t1 -. t0);
      check bool "peer closed" true (Netsim.peer_closed c);
      check bool "receive reports the close" true (Netsim.recv c = None);
      check (Alcotest.float 0.0) "without waiting" t1 (Sched.now ());
      check bool "nothing to accept" true (Netsim.accept l = None))

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

(* A receive with a deadline, into one buffer. *)
let timed_roundtrip =
  let reply = Netsim.Buf.create () and deadline = Float.Array.make 1 0.0 in
  fun c ->
    Netsim.send c "ping";
    Float.Array.set deadline 0 ((Sched.clock_cell ()).clock +. 1.0e6);
    if not (Netsim.recv_buf_deadline c reply deadline 0) then
      Alcotest.fail "reply missed its deadline"

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

(* Echo every message on the first connection accepted on [l], through
   one buffer. *)
let buf_echo_server l () =
  let c = Option.get (Netsim.accept l) in
  let b = Netsim.Buf.create () in
  while Netsim.recv_buf c b do
    Netsim.send_buf c b
  done

(* A round trip between two buffers; with [timed], the reply is
   awaited with a deadline kept in a slot. *)
let buf_roundtrip ~timed =
  let out = Netsim.Buf.create () and into = Netsim.Buf.create () in
  let deadline = Float.Array.make 1 0.0 in
  Netsim.Buf.add_string out "ping";
  fun c ->
    Netsim.send_buf c out;
    let k = Sched.clock_cell () in
    Float.Array.set deadline 0 (k.clock +. 1.0e6);
    if
      not
        (if timed then Netsim.recv_buf_deadline c into deadline 0
         else Netsim.recv_buf c into)
    then Alcotest.fail "reply missed its deadline"

(* Minor words one exchange allocates, both threads and the scheduler
   included, measured in the client thread after a warm-up. *)
let words_per_exchange ?(server = echo_server) roundtrip =
  let words = ref 0.0 in
  ignore
    (exchange ~server ~client:(fun c ->
         words :=
           Alloc_probe.words_per_call ~warmup:exchanges ~n:exchanges (fun () ->
               roundtrip c)));
  !words

(* Pinned at the measured figures, 8.0 and 12.0 words: a sent string
   is queued and received by reference, and a wake reads the message's
   delivery time from the receiver's ring (12.0 and 16.0 while it was
   passed as a boxed float). The timed exchange's extra 4 words are the
   deadline the caller computes and passes as a [float]; the receive
   stages it for the timer and boxes nothing more (13 was the budget
   while the timer took it as an argument). *)
let test_timed_recv_allocation () =
  let plain = words_per_exchange plain_roundtrip in
  if plain > 8.0 then
    Alcotest.failf
      "an exchange through plain recv allocates %.1f minor words; the budget \
       is 8"
      plain;
  let timed = words_per_exchange timed_roundtrip in
  if timed > 12.0 then
    Alcotest.failf
      "a timed exchange allocates %.1f minor words; the budget is 12" timed

(* Between buffers, a receive whose deadline lies in a slot arms its
   timer without boxing it: a timed exchange allocates what a plain one
   does, 4.0 words, the two blocked threads' continuations (6.0 while
   the deadline was a [float] argument). *)
let test_timed_recv_buf_allocation () =
  let words timed =
    words_per_exchange ~server:buf_echo_server (buf_roundtrip ~timed)
  in
  let plain = words false and timed = words true in
  if plain > 4.0 || timed > 4.0 then
    Alcotest.failf
      "an exchange between buffers allocates %.1f minor words, a timed one \
       %.1f; the budget is 4"
      plain timed

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
            check bool "timed out" true (Timed_recv.recv_deadline c ~deadline = None);
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

(* {1 The buffer path} *)

(* A network whose messages arrive the instant they are sent, so one
   thread can receive what it sent without a scheduling point: what is
   left to measure is the message's own trip. *)
let instant = { Cost.default with net_msg = 0.0; net_byte = 0.0 }

(* One thread sends a warm 1 KiB message from a buffer and receives it
   into another: a frame from the pool and back, two copies, no
   allocation. *)
let test_buffer_exchange_allocation () =
  let words =
    Sched.main (fun _ ->
        let net = Netsim.create instant in
        let l = Netsim.listen net ~port:80 in
        let client = Netsim.connect net ~port:80 in
        let server = Option.get (Netsim.accept l) in
        let out = Netsim.Buf.create () and into = Netsim.Buf.create () in
        Netsim.Buf.add_string out (String.make 1024 'x');
        let exchange () =
          Netsim.send_buf client out;
          if not (Netsim.recv_buf server into) then Alcotest.fail "no message"
        in
        let words = Alloc_probe.words_per_call ~n:10_000 exchange in
        check string "delivered" (Netsim.Buf.contents out)
          (Netsim.Buf.contents into);
        words)
  in
  if words > 0.0 then
    Alcotest.failf
      "a warm 1 KiB send_buf + recv_buf allocates %.1f minor words; the \
       budget is 0"
      words

(* A wait that finds a connection ready returns it, not [Some] of it:
   no allocation. 2.0 words while it returned an option. *)
let test_waitset_wait_allocation () =
  let words =
    Sched.main (fun _ ->
        let net = Netsim.create instant in
        let l = Netsim.listen net ~port:80 in
        let client = Netsim.connect net ~port:80 in
        let server = Option.get (Netsim.accept l) in
        let ws = Netsim.Waitset.create () in
        Netsim.Waitset.add ws server;
        (* Left queued, so every wait finds it ready at once. *)
        Netsim.send client "ready";
        Alloc_probe.words_per_call ~n:10_000 (fun () ->
            if Netsim.Waitset.wait ws != server then
              Alcotest.fail "the ready connection was not reported"))
  in
  if words > 0.0 then
    Alcotest.failf
      "a wait on a ready connection allocates %.1f minor words; the budget \
       is 0"
      words

(* A message sent into a watched connection and received from it: the
   connection joins its waitset's ready list as the message arrives and
   leaves it as the inbox drains, and neither allocates. *)
let test_watched_exchange_allocation () =
  let words =
    Sched.main (fun _ ->
        let net = Netsim.create instant in
        let l = Netsim.listen net ~port:80 in
        let client = Netsim.connect net ~port:80 in
        let server = Option.get (Netsim.accept l) in
        let ws = Netsim.Waitset.create () in
        Netsim.Waitset.add ws server;
        let out = Netsim.Buf.create () and into = Netsim.Buf.create () in
        Netsim.Buf.add_string out "get k\r\n";
        Alloc_probe.words_per_call ~n:10_000 (fun () ->
            Netsim.send_buf client out;
            let c = Netsim.Waitset.wait ws in
            if not (c == server && Netsim.recv_buf c into) then
              Alcotest.fail "the message was not reported"))
  in
  if words > 0.0 then
    Alcotest.failf
      "a message through a watched connection allocates %.1f minor words; \
       the budget is 0"
      words

(* One connection's whole life on a warm network and waitset: connect,
   accept, add, a request and its reply, the client's close, the wait
   that reports it, remove and the server's close. What is left is the
   two endpoints, their one-slot inboxes and [accept]'s [Some]. Pinned
   at the 46.0 words measured; 73.0 while a connect looked its listener
   up with [Hashtbl.find_opt], boxed its charge and queued the server
   end in a [Queue] cell, an accept dequeued it with [Queue.take_opt]
   and boxed its charge, an add stored [Some ws], and an inbox started
   at four slots. *)
let lifecycle_words_budget = 46.0

let test_lifecycle_allocation () =
  let words =
    Sched.main (fun _ ->
        let net = Netsim.create instant in
        let l = Netsim.listen net ~port:80 in
        let ws = Netsim.Waitset.create () in
        let req = Netsim.Buf.create () and rep = Netsim.Buf.create () in
        Netsim.Buf.add_string req "get k\r\n";
        Alloc_probe.words_per_call ~n:1_000 (fun () ->
            let client = Netsim.connect net ~port:80 in
            let server = Option.get (Netsim.accept l) in
            Netsim.Waitset.add ws server;
            Netsim.send_buf client req;
            let c = Netsim.Waitset.wait ws in
            if not (c == server && Netsim.recv_buf c rep) then
              Alcotest.fail "no request";
            Netsim.send_buf c rep;
            if not (Netsim.recv_buf client rep) then Alcotest.fail "no reply";
            Netsim.close client;
            if Netsim.Waitset.wait ws != server || Netsim.recv_buf server rep
            then Alcotest.fail "the close was not reported";
            Netsim.Waitset.remove ws server;
            Netsim.close server))
  in
  if words > lifecycle_words_budget then
    Alcotest.failf
      "a connection's lifecycle allocates %.1f minor words; the budget is %.1f"
      words lifecycle_words_budget

(* Size class of a [len]-byte frame: 64 bytes, doubled [c] times. *)
let rec size_class c len = if 64 lsl c >= len then c else size_class (c + 1) len

(* Echo round trips on the buffer path, each sending a burst of one to
   three messages of up to 2 KiB, the largest pooled size, before
   reading the echoes: the pool ends up holding no more frames of a size
   class than were ever in flight at once. *)
let test_pool_bound () =
  let classes = 8 in
  let in_flight = Array.make classes 0 and peak = Array.make classes 0 in
  let sent len =
    let c = size_class 0 len in
    in_flight.(c) <- in_flight.(c) + 1;
    peak.(c) <- max peak.(c) in_flight.(c)
  in
  let received len =
    let c = size_class 0 len in
    in_flight.(c) <- in_flight.(c) - 1
  in
  let pooled =
    Sched.main (fun t ->
        let net = Netsim.create Cost.default in
        let l = Netsim.listen net ~port:80 in
        let server =
          Sched.spawn t ~name:"server" (fun () ->
              let c = Option.get (Netsim.accept l) in
              let b = Netsim.Buf.create () in
              while Netsim.recv_buf c b do
                received (Netsim.Buf.length b);
                Netsim.send_buf c b;
                sent (Netsim.Buf.length b)
              done)
        in
        let c = Netsim.connect net ~port:80 in
        let b = Netsim.Buf.create () in
        for i = 1 to 10_000 do
          let burst = 1 + (i mod 3) in
          for j = 1 to burst do
            Netsim.Buf.clear b;
            Netsim.Buf.add_string b (String.make ((i * j) mod 2049) 'm');
            Netsim.send_buf c b;
            sent (Netsim.Buf.length b)
          done;
          for _ = 1 to burst do
            if not (Netsim.recv_buf c b) then Alcotest.fail "no echo";
            received (Netsim.Buf.length b)
          done
        done;
        Netsim.close c;
        Sched.join server;
        Netsim.pooled_frames net)
  in
  check (Alcotest.array int) "nothing in flight" (Array.make classes 0)
    in_flight;
  let bound = Array.fold_left ( + ) 0 peak in
  if pooled > bound || pooled = 0 then
    Alcotest.failf
      "the pool holds %d frames; the peaks in flight per size class sum to %d"
      pooled bound

(* {2 The string path and the buffer path deliver the same}

   A random sequence of messages, 0 to 70 KiB, each with a fault-hook
   action, sent by one thread and drained by another, once with
   [send]/[recv] and once with [send_buf]/[recv_buf]. Both must deliver
   the same bytes at the same times and leave both clocks the same; the
   buffer path also reports each delivery time, checked against the
   latency model. *)

type action = Deliver | Drop | Truncate of int | Delay of float

let gen_msgs =
  let open QCheck.Gen in
  let size = frequency [ (3, int_bound 2048); (1, int_bound (70 * 1024)) ] in
  let act =
    frequency
      [
        (4, return Deliver);
        (1, return Drop);
        (1, map (fun n -> Truncate n) (int_range (-10) 4096));
        (1, map (fun d -> Delay d) (float_range (-1000.0) 1.0e6));
      ]
  in
  list_size (int_bound 40)
    (triple size act (float_bound_inclusive 50_000.0))

type delivery = { bytes : string; clock : float; arrival : float }

(* Run [msgs] — (length, action, gap before sending) — through the
   network: message [i] is sent from a buffer when [buf_send i] and
   received into one when [buf_recv i] (a string receive reports no
   arrival). The deliveries, the sender's clock after connecting, and
   each side's final clock. *)
let deliver ~buf_send ~buf_recv msgs =
  let actions = Queue.create () in
  List.iter (fun (_, a, _) -> Queue.add a actions) msgs;
  let got = ref [] and start = ref nan in
  let sender_end = ref nan and receiver_end = ref nan in
  Sched.main (fun t ->
      let net = Netsim.create Cost.default in
      Netsim.set_fault_hook net
        (Some
           (fun ~len:_ ->
             match Queue.pop actions with
             | Deliver -> Netsim.Deliver
             | Drop -> Netsim.Drop
             | Truncate n -> Netsim.Truncate n
             | Delay d -> Netsim.Delay d));
      let l = Netsim.listen net ~port:80 in
      let receiver =
        Sched.spawn t ~name:"receiver" (fun () ->
            let c = Option.get (Netsim.accept l) in
            let b = Netsim.Buf.create () in
            let rec drain i =
              let got_one =
                if buf_recv i then
                  Netsim.recv_buf c b
                  && begin
                       got :=
                         {
                           bytes = Netsim.Buf.contents b;
                           clock = Sched.now ();
                           arrival = Netsim.Buf.arrival b;
                         }
                         :: !got;
                       true
                     end
                else
                  match Netsim.recv c with
                  | Some m ->
                      got :=
                        { bytes = m; clock = Sched.now (); arrival = nan }
                        :: !got;
                      true
                  | None -> false
              in
              if got_one then drain (i + 1)
            in
            drain 0;
            receiver_end := Sched.now ())
      in
      let c = Netsim.connect net ~port:80 in
      start := Sched.now ();
      let b = Netsim.Buf.create () in
      List.iteri
        (fun i (len, _, gap) ->
          Sched.charge gap;
          let m = String.init len (fun j -> Char.chr ((i + j) land 255)) in
          if buf_send i then begin
            Netsim.Buf.clear b;
            Netsim.Buf.add_string b m;
            Netsim.send_buf c b
          end
          else Netsim.send c m)
        msgs;
      sender_end := Sched.now ();
      Netsim.close c;
      Sched.join receiver);
  (List.rev !got, !start, !sender_end, !receiver_end)

(* Delivery times the latency model gives [msgs] sent from [start]: a
   sender's clock after each send is its clock before plus the message's
   latency, and the message arrives one latency and its delay later. *)
let model_arrivals start msgs =
  let cost = Cost.default in
  let clock = ref start and arrivals = ref [] in
  List.iter
    (fun (len, a, gap) ->
      let lat = cost.net_msg +. (cost.net_byte *. float_of_int len) in
      clock := !clock +. gap;
      clock := !clock +. lat;
      match a with
      | Drop -> ()
      | Delay d -> arrivals := (!clock +. lat +. Float.max 0.0 d) :: !arrivals
      | Deliver | Truncate _ -> arrivals := (!clock +. lat +. 0.0) :: !arrivals)
    msgs;
  List.rev !arrivals

let print_msgs =
  QCheck.Print.(
    list
      (triple int
         (function
           | Deliver -> "Deliver"
           | Drop -> "Drop"
           | Truncate n -> Printf.sprintf "Truncate %d" n
           | Delay d -> Printf.sprintf "Delay %g" d)
         float))

let string_and_buffer_paths_agree =
  QCheck.Test.make ~count:60 ~name:"string and buffer paths deliver the same"
    (QCheck.make ~print:print_msgs gen_msgs) (fun msgs ->
      let strings, start, s_send, s_recv =
        deliver ~buf_send:(fun _ -> false) ~buf_recv:(fun _ -> false) msgs
      in
      let arrivals = model_arrivals start msgs in
      let same (got, _, send, recv) =
        List.length got = List.length strings
        && List.for_all2
             (fun s b ->
               String.equal s.bytes b.bytes && Float.equal s.clock b.clock)
             strings got
        && List.for_all2
             (fun b at -> Float.is_nan b.arrival || Float.equal b.arrival at)
             got arrivals
        && Float.equal s_send send && Float.equal s_recv recv
      in
      let odd i = i land 1 = 1 in
      same (deliver ~buf_send:(fun _ -> true) ~buf_recv:(fun _ -> true) msgs)
      (* Either end may use either path: a string into a buffer, a pooled
         frame out to a string. *)
      && same (deliver ~buf_send:odd ~buf_recv:(fun i -> not (odd i)) msgs))

(* {1 The ready list against the scan it replaced}

   Random traces drive one waitset and [Waitset_ref], the scan every
   wait made before the ready list, side by side. The reference reads
   readiness and arrivals from the test's own model of each connection:
   the delivery times of the messages queued to its watched end and
   whether either end has closed. Messages arrive the instant they are
   sent plus a delay set by their length, 0, 1,000 or 2,000 cycles,
   and the clock moves only when a trace advances it or a wait catches
   up with a message, so equal arrivals are common and ties go to the
   cursor. *)

type wop =
  | Connect  (** a new connection, accepted and added *)
  | Send of int * int  (** connection, length 1-3 *)
  | Recv of int  (** a non-blocking receive on the watched end *)
  | Close_client of int
  | Close_server of int
  | Remove of int
  | Readd of int  (** add back a removed connection, last in order *)
  | Wait of bool
      (** a blocking wait (a poll when nothing is ready); [true]: receive
          from the winner *)
  | Poll
  | Advance of int

let print_wop = function
  | Connect -> "Connect"
  | Send (k, n) -> Printf.sprintf "Send (%d, %d)" k n
  | Recv k -> Printf.sprintf "Recv %d" k
  | Close_client k -> Printf.sprintf "Close_client %d" k
  | Close_server k -> Printf.sprintf "Close_server %d" k
  | Remove k -> Printf.sprintf "Remove %d" k
  | Readd k -> Printf.sprintf "Readd %d" k
  | Wait r -> Printf.sprintf "Wait %b" r
  | Poll -> "Poll"
  | Advance d -> Printf.sprintf "Advance %d" d

let gen_wops =
  let open QCheck.Gen in
  let k = int_bound 7 in
  let op =
    frequency
      [
        (2, return Connect);
        (8, map2 (fun k n -> Send (k, n)) k (int_range 1 3));
        (2, map (fun k -> Recv k) k);
        (1, map (fun k -> Close_client k) k);
        (1, map (fun k -> Close_server k) k);
        (2, map (fun k -> Remove k) k);
        (1, map (fun k -> Readd k) k);
        (5, map (fun r -> Wait r) bool);
        (2, return Poll);
        (1, map (fun d -> Advance d) (int_range 0 3_000));
      ]
  in
  map2 (fun first rest -> first @ rest)
    (list_repeat 3 (return Connect))
    (list_size (int_bound 60) op)

(* The test's model of one connection. *)
type mconn = {
  client : Netsim.conn;
  server : Netsim.conn;  (* the watched end *)
  inbox : float Queue.t;  (* delivery times of the messages to [server] *)
  mutable c_closed : bool;
  mutable s_closed : bool;
  mutable watched : bool;
}

let m_ready m = (not (Queue.is_empty m.inbox)) || m.c_closed || m.s_closed
let m_ready_at m =
  if Queue.is_empty m.inbox then neg_infinity else Queue.peek m.inbox

(* Whether the waitset and the reference agree at every step of [ops]. *)
let ready_list_agrees ops =
  Sched.main (fun _ ->
      let net = Netsim.create instant in
      Netsim.set_fault_hook net
        (Some (fun ~len -> Netsim.Delay (float_of_int ((len - 1) * 1_000))));
      let l = Netsim.listen net ~port:80 in
      let ws = Netsim.Waitset.create () and r = Waitset_ref.create () in
      let conns = ref [||] in
      let nth k =
        let a = !conns in
        if Array.length a = 0 then None else Some a.(k mod Array.length a)
      in
      let agree = ref true in
      let expect b = if not b then agree := false in
      (* The model's side of a receive from [m]'s watched end. *)
      let received m = ignore (Queue.pop m.inbox) in
      let deliverable m =
        (not (Queue.is_empty m.inbox)) && Queue.peek m.inbox <= Sched.now ()
      in
      (* A wait's result against the reference's pick, given the
         deadline a message must arrive by ([infinity] for [wait]). *)
      let check_wait got ~deadline ~recv =
        match
          Waitset_ref.pick_earliest r ~ready:m_ready ~ready_at:m_ready_at
        with
        | None -> expect (got == Netsim.no_conn)
        | Some m ->
            if Queue.is_empty m.inbox || m_ready_at m <= deadline then begin
              expect (got == m.server);
              if recv && deliverable m then begin
                expect (Timed_recv.try_recv m.server <> None);
                received m
              end
            end
            else expect (got == Netsim.no_conn)
      in
      List.iter
        (fun op ->
          (match op with
          | Connect ->
              let client = Netsim.connect net ~port:80 in
              let server = Option.get (Netsim.accept l) in
              let m =
                {
                  client;
                  server;
                  inbox = Queue.create ();
                  c_closed = false;
                  s_closed = false;
                  watched = true;
                }
              in
              conns := Array.append !conns [| m |];
              Netsim.Waitset.add ws server;
              Waitset_ref.add r m
          | Send (k, n) ->
              Option.iter
                (fun m ->
                  Netsim.send m.client (String.make n 'x');
                  if not (m.c_closed || m.s_closed) then
                    Queue.add
                      (Sched.now () +. float_of_int ((n - 1) * 1_000))
                      m.inbox)
                (nth k)
          | Recv k ->
              Option.iter
                (fun m ->
                  let got = Timed_recv.try_recv m.server in
                  expect (Option.is_some got = deliverable m);
                  if Option.is_some got then received m)
                (nth k)
          | Close_client k ->
              Option.iter
                (fun m ->
                  Netsim.close m.client;
                  m.c_closed <- true)
                (nth k)
          | Close_server k ->
              Option.iter
                (fun m ->
                  Netsim.close m.server;
                  m.s_closed <- true)
                (nth k)
          | Remove k ->
              Option.iter
                (fun m ->
                  if m.watched then begin
                    Netsim.Waitset.remove ws m.server;
                    Waitset_ref.remove r m;
                    m.watched <- false
                  end)
                (nth k)
          | Readd k ->
              Option.iter
                (fun m ->
                  if not m.watched then begin
                    Netsim.Waitset.add ws m.server;
                    Waitset_ref.add r m;
                    m.watched <- true
                  end)
                (nth k)
          | Wait recv ->
              let any_ready =
                Array.exists (fun m -> m.watched && m_ready m) !conns
              in
              if any_ready then
                check_wait (Netsim.Waitset.wait ws) ~deadline:infinity ~recv
              else
                check_wait (Netsim.Waitset.poll ws) ~deadline:(Sched.now ())
                  ~recv
          | Poll ->
              let now = Sched.now () in
              check_wait (Netsim.Waitset.poll ws) ~deadline:now ~recv:false;
              expect (Sched.now () = now)
          | Advance d -> Sched.wait_until (Sched.now () +. float_of_int d));
          let queued = ref 0 in
          Array.iter
            (fun m ->
              if m.watched then queued := !queued + Queue.length m.inbox)
            !conns;
          expect (Netsim.Waitset.backlog ws = !queued);
          expect (Netsim.Waitset.size ws = Waitset_ref.size r))
        ops;
      !agree)

let ready_list_matches_scan =
  QCheck.Test.make ~count:10_000
    ~name:"ready list picks as the full scan did"
    (QCheck.make ~print:(QCheck.Print.list print_wop) gen_wops)
    ready_list_agrees

(* A removal at every position of sets of 1 to 9 connections, from
   every cursor position, with every connection ready at the same time,
   so the cursor alone decides each pick: then the removed connection
   comes back, and a churn of removals and re-adds from a full set
   leaves vacated slots behind until an add squeezes them out. *)
let removal_at_every_position () =
  let all n f = List.init n f in
  let sends n = all n (fun k -> Send (k, 1)) in
  let waits n = List.init n (fun _ -> Wait true) in
  for n = 1 to 9 do
    for cursor = 0 to n - 1 do
      for pos = 0 to n - 1 do
        let churn =
          List.concat
            (List.init 24 (fun j ->
                 [ Remove (j mod n); Send ((j + 1) mod n, 1); Wait true;
                   Readd (j mod n) ]))
        in
        let ops =
          List.concat
            [ all n (fun _ -> Connect); sends n; waits cursor; [ Remove pos ];
              sends n; waits n; [ Readd pos; Connect; Connect ];
              sends (n + 2); waits (n + 3); churn; sends (n + 2);
              waits (n + 3) ]
        in
        if not (ready_list_agrees ops) then
          Alcotest.failf
            "%d connections, cursor %d, removal at %d: the pick differs" n
            cursor pos
      done
    done
  done

(* The random traces' test, with the sweep above run first. *)
let ready_list_test =
  let name, speed, random = QCheck_alcotest.to_alcotest ready_list_matches_scan in
  ( name,
    speed,
    fun () ->
      removal_at_every_position ();
      random () )

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
          Alcotest.test_case "connect to a closed listener" `Quick
            test_connect_to_closed_listener;
        ] );
      ( "waitset",
        [
          Alcotest.test_case "multiplex" `Quick test_waitset_multiplexes;
          Alcotest.test_case "pick order" `Quick test_waitset_pick_order;
          Alcotest.test_case "wait host allocation" `Quick
            test_waitset_wait_allocation;
          Alcotest.test_case "watched exchange host allocation" `Quick
            test_watched_exchange_allocation;
          Alcotest.test_case "connection lifecycle host allocation" `Quick
            test_lifecycle_allocation;
          ready_list_test;
        ] );
      ( "timed wait",
        [
          Alcotest.test_case "recv_deadline leaves no threads" `Quick
            test_timed_recv_leaves_no_threads;
          Alcotest.test_case "host allocation" `Quick test_timed_recv_allocation;
          Alcotest.test_case "stale wake after a timeout" `Quick test_stale_wake;
          Alcotest.test_case "slot deadline host allocation" `Quick
            test_timed_recv_buf_allocation;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "buffer exchange host allocation" `Quick
            test_buffer_exchange_allocation;
          Alcotest.test_case "pool bound" `Quick test_pool_bound;
          QCheck_alcotest.to_alcotest string_and_buffer_paths_agree;
        ] );
    ]
