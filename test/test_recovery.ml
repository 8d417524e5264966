(* End-to-end recovery correctness: deadline-aware receives, client
   retry/timeout/backoff with a retry budget, the rewind-safe replay
   journal (at-most-once retried mutations), the admission edges of the
   shared serving core, and overload shedding in both servers. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Cost = Simkern.Cost
module Api = Sdrad.Api
module Retry = Resilience.Retry
module Journal = Resilience.Journal
module KServer = Kvcache.Server
module Proto = Kvcache.Proto
module HServer = Httpd.Server
module Fs = Httpd.Fs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* Every thread of a finished run completed. *)
let all_completed sched =
  List.iter
    (fun (_, name, oc) ->
      match oc with
      | Sched.Completed -> ()
      | Sched.Failed e ->
          Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e))
    (Sched.outcomes sched)

let run_sim f =
  let sched = Sched.create () in
  f sched;
  Sched.run sched;
  all_completed sched

(* {1 Deadline-aware receives} *)

let test_recv_deadline () =
  run_sim (fun sched ->
      let net = Netsim.create Cost.default in
      let l = Netsim.listen net ~port:80 in
      let _ =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Option.get (Netsim.accept l) in
            (* Reply only to the second request the client sends. *)
            ignore (Netsim.recv c);
            ignore (Netsim.recv c);
            Netsim.send c "late-reply";
            ignore (Netsim.recv c))
      in
      let _ =
        Sched.spawn sched ~name:"client" (fun () ->
            let c = Netsim.connect net ~port:80 in
            Netsim.send c "one";
            let t0 = Sched.now () in
            (* Nothing will arrive: must give up exactly at the deadline. *)
            (match Timed_recv.recv_deadline c ~deadline:(t0 +. 5_000.0) with
            | None -> ()
            | Some m -> Alcotest.failf "unexpected message %S" m);
            check (Alcotest.float 0.0) "clock stops at the deadline"
              (t0 +. 5_000.0) (Sched.now ());
            check bool "timeout is not peer close" false (Netsim.peer_closed c);
            (* A message arriving before the deadline is delivered. *)
            Netsim.send c "two";
            (match Timed_recv.recv_deadline c ~deadline:(Sched.now () +. 1.0e6) with
            | Some m -> check string "delivered before deadline" "late-reply" m
            | None -> Alcotest.fail "reply lost");
            Netsim.close c)
      in
      ())

(* {1 Retry engine} *)

let quick_policy =
  {
    Retry.max_attempts = 4;
    attempt_timeout = 1_000.0;
    overall_timeout = 1.0e6;
    backoff_base = 100.0;
    backoff_cap = 1_000.0;
  }

let test_retry_success_after_backoff () =
  Sched.main (fun _ ->
      let eng = Retry.create quick_policy ~rng:(Rng.create 1) in
      let attempts = ref 0 in
      let rids = ref [] and traces = ref [] in
      let t0 = Sched.now () in
      let r =
        Retry.execute eng (fun eng ->
            incr attempts;
            rids := Retry.rid eng :: !rids;
            traces := Retry.trace eng :: !traces;
            check int "the context's span counts the attempts up"
              (!attempts - 1)
              (Telemetry.Context.span (Retry.context eng));
            check bool "deadline respects attempt timeout" true
              (Float.Array.get (Retry.deadline_slot eng) 0 <= Sched.now () +. 1_000.0);
            if !attempts < 3 then Error (`Retry "flaky") else Ok ())
      in
      (match r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Retry.error_to_string e));
      check int "three attempts" 3 !attempts;
      check int "two retries counted" 2 (Retry.retries eng);
      check int "one logical call" 1 (Retry.calls eng);
      (match (!rids, !traces) with
      | [ a; b; c ], [ x; y; z ] ->
          check bool "rid stable across retries" true (a = b && b = c);
          check bool "trace minted from the rid" true
            (x = y && y = z
            && x = Telemetry.Context.trace (Telemetry.Context.root a))
      | _ -> Alcotest.fail "expected three recorded rids");
      check bool "backoff slept between attempts" true
        (Sched.now () -. t0 >= 2.0 *. 100.0))

let test_retry_budget_exhaustion () =
  Sched.main (fun _ ->
      let bgt = Retry.budget ~cap:10.0 ~deposit:0.0 ~withdraw:10.0 () in
      let eng =
        Retry.create { quick_policy with max_attempts = 10 } ~budget:bgt
          ~rng:(Rng.create 2)
      in
      let r = Retry.execute eng (fun _ -> Error (`Retry "down")) in
      (match r with
      | Error Retry.Budget_exhausted -> ()
      | Error e ->
          Alcotest.failf "wanted Budget_exhausted, got %s"
            (Retry.error_to_string e)
      | Ok () -> Alcotest.fail "must not succeed");
      (* 10 tokens buy exactly one 10-token retry; the second is refused. *)
      check int "one retry went through" 1 (Retry.retries eng);
      check int "exhaustion counted once" 1 (Retry.budget_exhaustions eng);
      check bool "bucket drained" true (Retry.budget_tokens bgt < 10.0))

(* Request ids are "<name>-<n>", one per logical call, as [Printf]
   formats them; [rid_bytes] holds the same bytes. *)
let test_retry_rids () =
  Sched.main (fun _ ->
      List.iter
        (fun name ->
          let eng = Retry.create quick_policy ~rng:(Rng.create 5) ~name in
          for n = 0 to 12_345 do
            let seen = ref "" in
            match
              Retry.execute eng (fun eng ->
                  seen := Retry.rid eng;
                  Ok ())
            with
            | Ok () ->
                let want = Printf.sprintf "%s-%d" name n in
                check string "rid" want !seen;
                check string "rid bytes" want
                  (Bytes.sub_string (Retry.rid_bytes eng) 0
                     (Retry.rid_length eng))
            | Error e -> Alcotest.fail (Retry.error_to_string e)
          done)
        [ "client"; "yl7"; "" ])

(* A logical call that succeeds at once, with an attempt function that
   allocates nothing, pinned at its measured words: nothing. The engine
   keeps the call's rid, trace id and deadline, so neither the call nor
   its attempt builds anything (17 words when a call built its rid
   string, a trace context and its attempt's child, and passed the
   attempt a boxed deadline and took its value back in an [Ok]). *)
let test_retry_allocation () =
  let ok = Ok () in
  let attempt _ = ok in
  let words =
    Sched.main (fun _ ->
        let eng = Retry.create quick_policy ~rng:(Rng.create 6) in
        Alloc_probe.words_per_call ~n:10_000 (fun () ->
            ignore (Retry.execute eng attempt)))
  in
  if words > 0.0 then
    Alcotest.failf "a retried call allocates %.1f minor words; the budget is 0"
      words

let test_retry_attempts_and_deadline () =
  Sched.main (fun _ ->
      (* Attempts exhausted: every attempt fails fast. *)
      let eng = Retry.create quick_policy ~rng:(Rng.create 3) in
      (match Retry.execute eng (fun _ -> Error (`Retry "nope")) with
      | Error (Retry.Attempts_exhausted reason) ->
          check string "last reason surfaced" "nope" reason
      | Error e ->
          Alcotest.failf "wanted Attempts_exhausted, got %s"
            (Retry.error_to_string e)
      | Ok () -> Alcotest.fail "must not succeed");
      check int "max_attempts honoured" 4 (Retry.calls eng + 3);
      (* Overall deadline: attempts are slow, the call deadline wins. *)
      let eng2 =
        Retry.create
          {
            quick_policy with
            max_attempts = 100;
            attempt_timeout = 1_000.0;
            overall_timeout = 2_500.0;
          }
          ~rng:(Rng.create 4)
      in
      let t0 = Sched.now () in
      (match
         Retry.execute eng2 (fun eng ->
             Sched.wait_until (Float.Array.get (Retry.deadline_slot eng) 0);
             Error (`Retry "slow"))
       with
      | Error Retry.Deadline_exceeded -> ()
      | Error e ->
          Alcotest.failf "wanted Deadline_exceeded, got %s"
            (Retry.error_to_string e)
      | Ok () -> Alcotest.fail "must not succeed");
      check bool "gave up near the overall deadline" true
        (Sched.now () -. t0 >= 2_500.0 && Sched.now () -. t0 < 10_000.0))

(* A backoff sleep clipped to the overall deadline used to be followed by
   one more attempt whose deadline was the clock: a request sent after
   the call had given up on it. Attempts that each wait out their
   deadline, over 20 jitter seeds: every attempt starts with time left,
   and the call ends with [Deadline_exceeded] at its deadline. *)
let test_retry_no_attempt_past_deadline () =
  Sched.main (fun _ ->
      for seed = 1 to 20 do
        let eng =
          Retry.create
            {
              quick_policy with
              max_attempts = 100;
              attempt_timeout = 1_000.0;
              overall_timeout = 2_500.0;
            }
            ~rng:(Rng.create seed)
        in
        let t0 = Sched.now () in
        let r =
          Retry.execute eng (fun eng ->
              let left = Float.Array.get (Retry.deadline_slot eng) 0 -. Sched.now () in
              if left <= 0.0 then
                Alcotest.failf "seed %d: attempt %d launched with %.0f cycles left"
                  seed
                  (Telemetry.Context.span (Retry.context eng))
                  left;
              Sched.wait_until (Float.Array.get (Retry.deadline_slot eng) 0);
              Error (`Retry "slow"))
        in
        (match r with
        | Error Retry.Deadline_exceeded -> ()
        | Error e ->
            Alcotest.failf "seed %d: wanted Deadline_exceeded, got %s" seed
              (Retry.error_to_string e)
        | Ok () -> Alcotest.fail "must not succeed");
        check (Alcotest.float 1e-6)
          (Printf.sprintf "seed %d: ends at the overall deadline" seed)
          2_500.0 (Sched.now () -. t0)
      done)

(* {1 Replay journal unit semantics} *)

(* Whole-string keys over the journal's [s off len] interface. *)
let jfind j k =
  match Journal.find j k 0 (String.length k) with
  | r -> Some r
  | exception Not_found -> None

let jrecord j k r = Journal.record j k 0 (String.length k) r
let jmem j k = Journal.mem j k 0 (String.length k)

let test_journal_semantics () =
  let j = Journal.create ~capacity:2 () in
  check bool "empty journal misses" true (jfind j "a" = None);
  jrecord j "a" "ra";
  jrecord j "a" "overwrite-attempt";
  check bool "first write wins" true (jfind j "a" = Some "ra");
  check int "replay hit counted" 1 (Journal.hits j);
  check bool "mem does not count a hit" true (jmem j "a");
  check int "mem left hit count alone" 1 (Journal.hits j);
  jrecord j "b" "rb";
  jrecord j "c" "rc";
  check int "capacity bound held" 2 (Journal.size j);
  check int "oldest entry evicted" 1 (Journal.evictions j);
  check bool "evicted id forgotten" true (jfind j "a" = None);
  check bool "younger ids survive" true
    (jfind j "b" = Some "rb" && jfind j "c" = Some "rc");
  (* A key is read where it lies and copied: overwriting the caller's
     buffer afterwards changes nothing. *)
  let line = Bytes.of_string "set k 0 0 1 id=r-7\r\n" in
  Journal.record j (Bytes.unsafe_to_string line) 15 3 "STORED";
  Bytes.blit_string "zzz" 0 line 15 3;
  check bool "key copied out of the line" true (jfind j "r-7" = Some "STORED")

(* The journal against its reference (test/journal_ref.ml), the
   [Hashtbl] and [Queue] it replaced. Capacities from 1 to 24 and random
   streams of finds, presence checks and records over a small pool of
   rids — so ids repeat, are recorded twice and fall out of the window —
   some of them 300 bytes long. The journal reads every key where it
   lies, at a random offset inside a longer string that is overwritten
   after each call, as a request line is: every reply, hit count,
   eviction count and size agrees after every step. *)
let journal_differential_prop =
  QCheck.Test.make ~name:"journal matches the Hashtbl and Queue journal"
    ~count:300
    QCheck.(pair (int_range 1 24) (int_range 0 1_000_000))
    (fun (capacity, seed) ->
      let rng = Rng.create seed in
      let pool =
        Array.init
          (1 + Rng.int rng (3 * capacity))
          (fun i ->
            if Rng.int rng 8 = 0 then String.make 300 (Char.chr (97 + (i mod 26)))
            else Printf.sprintf "y%d-%d" (Rng.int rng 4) i)
      in
      let j = Journal.create ~capacity () and r = Journal_ref.create ~capacity in
      let line = Bytes.make 400 '.' in
      let ok = ref true in
      for step = 1 to 400 do
        let key = pool.(Rng.int rng (Array.length pool)) in
        let off = Rng.int rng (400 - String.length key + 1) in
        Bytes.blit_string key 0 line off (String.length key);
        let s = Bytes.unsafe_to_string line and len = String.length key in
        (match Rng.int rng 3 with
        | 0 ->
            let got =
              match Journal.find j s off len with
              | reply -> Some reply
              | exception Not_found -> None
            in
            if got <> Journal_ref.find r key then ok := false
        | 1 -> if Journal.mem j s off len <> Journal_ref.mem r key then ok := false
        | _ ->
            let reply = Printf.sprintf "reply %d" step in
            Journal.record j s off len reply;
            Journal_ref.record r key reply);
        Bytes.fill line 0 400 '#';
        if
          Journal.hits j <> Journal_ref.hits r
          || Journal.evictions j <> Journal_ref.evictions r
          || Journal.size j <> Journal_ref.size r
        then ok := false
      done;
      !ok)

(* A warm, full journal's keyed write: a replay lookup that misses and
   the record that evicts the oldest entry, then a lookup that hits,
   keys read from a line as the server reads them. Nothing is
   allocated: the table keeps the keys in slots it owns. A keyed write
   cost 4.7 words/op on kv-write-faults with the [Hashtbl] and [Queue]
   journal and the rid copied out of the line. *)
let test_journal_allocation () =
  let keys = String.concat "" (List.init 128 (Printf.sprintf "cli-%04d")) in
  let j = Journal.create ~capacity:64 () in
  let i = ref 0 in
  let words =
    Alloc_probe.words_per_call ~n:10_000 (fun () ->
        let k = !i mod 128 * 8 in
        (match Journal.find j keys k 8 with
        | _ -> ()
        | exception Not_found -> Journal.record j keys k 8 "STORED\r\n");
        ignore (Journal.find j keys k 8);
        incr i)
  in
  check bool
    (Printf.sprintf "a warm journal's find + record allocates %.1f words (budget 0)"
       words)
    true (words <= 0.0);
  check int "full" 64 (Journal.size j);
  check bool "evicting" true (Journal.evictions j > 10_000)

(* {1 The acceptance scenario: a retried mutation surviving a rewind} *)

(* Start an SDRaD kvcache server, commit an incr whose response is dropped
   by a counting fault hook, force a rewind (lying set discards the event
   domain), then retry the same request id: the journaled response must
   come back and the counter must not move twice. *)
let test_journal_replay_after_rewind () =
  let w = Scenario.world ~monitor:Api.create () in
  let net = w.net in
  let cfg =
    {
      KServer.default_config with
      variant = KServer.Sdrad;
      workers = 1;
      vulnerable = true;
    }
  in
  let r =
    Scenario.kvcache w cfg
      (Script
         (fun s ->
           let c = Netsim.connect net ~port:11211 in
           Netsim.send c (Proto.fmt_set ~key:"ctr" ~flags:0 ~value:"5");
           check bool "seed value stored" true
             (Proto.parse_reply (Option.get (Netsim.recv c)) = Proto.Stored);
           check int "plain set is not journaled" 0 (Journal.size (KServer.journal s));
           (* Drop exactly the server's response to the incr: send #1 after
              arming is the client's request, send #2 the reply. *)
           let sends = ref 0 in
           Netsim.set_fault_hook net
             (Some
                (fun ~len:_ ->
                  incr sends;
                  if !sends = 2 then Netsim.Drop else Netsim.Deliver));
           Netsim.send c (Proto.fmt_incr ~rid:"cl-1" "ctr" 1);
           (match Timed_recv.recv_deadline c ~deadline:(Sched.now () +. 200_000.0) with
           | None -> ()
           | Some m -> Alcotest.failf "response should have been dropped: %S" m);
           Netsim.set_fault_hook net None;
           check int "commit was journaled" 1 (Journal.size (KServer.journal s));
           (* Force a rewind on the same worker: the event domain is
              discarded and the offending connection closed. *)
           Netsim.send c
             (Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                ~value:(String.make 300 'X'));
           check bool "attack connection closed" true (Netsim.recv c = None);
           Netsim.close c;
           check int "one rewind happened" 1 (KServer.rewinds s);
           (* Retry the lost mutation with the same idempotency key. *)
           let c2 = Netsim.connect net ~port:11211 in
           Netsim.send c2 (Proto.fmt_incr ~rid:"cl-1" "ctr" 1);
           (match Proto.parse_reply (Option.get (Netsim.recv c2)) with
           | Proto.Number n -> check int "journaled result replayed" 6 n
           | r ->
               Alcotest.failf "unexpected reply %s"
                 (match r with Proto.Failed e -> e | _ -> "non-number"));
           check int "replay hit counted" 1 (KServer.replay_hits s);
           (* The counter moved exactly once: reads see 6, not 7. *)
           Netsim.send c2 (Proto.fmt_get "ctr");
           (match Proto.parse_reply (Option.get (Netsim.recv c2)) with
           | Proto.Value v -> check string "applied exactly once" "6" v
           | _ -> Alcotest.fail "counter unreadable");
           (* Reads are never journaled. *)
           check int "journal still holds one entry" 1
             (Journal.size (KServer.journal s));
           (* A mutation without an id is not journaled (legacy client). *)
           Netsim.send c2 (Proto.fmt_incr "ctr" 1);
           (match Proto.parse_reply (Option.get (Netsim.recv c2)) with
           | Proto.Number n -> check int "anonymous incr applies" 7 n
           | _ -> Alcotest.fail "anonymous incr failed");
           check int "anonymous mutation not journaled" 1
             (Journal.size (KServer.journal s));
           Netsim.close c2))
  in
  all_completed w.sched;
  check bool "server never crashed" false (KServer.crashed r.server)

let test_journal_eviction_in_server () =
  let w = Scenario.world ~monitor:Api.create () in
  let net = w.net in
  let cfg =
    {
      KServer.default_config with
      variant = KServer.Sdrad;
      workers = 1;
      journal_cap = 2;
    }
  in
  ignore
    (Scenario.kvcache w cfg
       (Script
          (fun s ->
            let c = Netsim.connect net ~port:11211 in
            for i = 1 to 3 do
              Netsim.send c
                (Proto.fmt_set_rid
                   ~rid:(Printf.sprintf "r%d" i)
                   ~key:(Printf.sprintf "k%d" i)
                   ~flags:0 ~value:"v");
              ignore (Netsim.recv c)
            done;
            let j = KServer.journal s in
            check int "journal wrapped at capacity" 2 (Journal.size j);
            check int "one eviction" 1 (Journal.evictions j);
            check bool "oldest id fell out of the window" false (jmem j "r1");
            check bool "newest ids retained" true (jmem j "r2" && jmem j "r3");
            Netsim.close c)));
  all_completed w.sched

let mk_fs space =
  let fs = Fs.create space in
  Fs.add fs ~path:"/index.html" ~size:256;
  fs

(* {1 Admission edges} *)

(* Trace ids of every flight event of [kind], domain by domain, oldest
   first. *)
let flight_traces sd kind =
  List.concat_map
    (fun udi ->
      List.filter_map
        (fun (e : Checkpoint.Flight.event) ->
          if e.e_kind = kind then Some e.e_trace else None)
        (Api.flight_events sd ~udi))
    (Api.flight_domains sd)

let burst n =
  List.init n (fun i -> Telemetry.Context.root (Printf.sprintf "burst-%d" i))

(* A pipelined burst of [n] requests on one connection: the worker serves
   request [i] (from 1) with [n - i] requests queued behind it. A request
   is shed when that backlog exceeds the limit, so with limit [l] > 0 the
   first [n - l - 1] are shed and the last [l + 1] served; a limit of 0
   never sheds. Each shed request leaves exactly one [Shed] flight event
   under its own trace id. *)
let check_shed_boundary ~limit ~n ~shed traces sd s_shed_count =
  let expect = List.init n (fun i -> limit > 0 && n - (i + 1) > limit) in
  check (Alcotest.list bool)
    (Printf.sprintf "limit %d: shed exactly past the limit" limit)
    expect shed;
  check int "shed counter" (List.length (List.filter Fun.id expect))
    s_shed_count;
  (* With shedding on, the burst is short enough for the flight ring to
     keep every event, so a missing Shed event cannot hide behind an
     eviction. *)
  if limit > 0 then
    check int "flight rings kept every event" 0 (Api.flight_dropped sd);
  check (Alcotest.list Alcotest.int) "one Shed event per shed request"
    (List.filteri (fun i _ -> List.nth expect i) traces)
    (flight_traces sd Checkpoint.Flight.Shed)

let test_kvcache_shed_boundary () =
  List.iter
    (fun limit ->
      let w = Scenario.world ~monitor:Api.create () in
      let cfg =
        {
          KServer.default_config with
          variant = KServer.Sdrad;
          workers = 1;
          shed_queue_limit = limit;
        }
      in
      let n = 6 in
      let traces = List.map Telemetry.Context.trace (burst n) in
      let { Scenario.server = s; result = shed; _ } =
        Scenario.kvcache w cfg
          (Script
             (fun _ ->
               let c = Netsim.connect w.net ~port:11211 in
               List.iter
                 (fun tr -> Netsim.send c (Proto.fmt_get ~trace:tr "k"))
                 traces;
               let shed =
                 List.map
                   (fun _ -> Netsim.recv c = Some Proto.server_error_busy)
                   traces
               in
               Netsim.close c;
               shed))
      in
      all_completed w.sched;
      check_shed_boundary ~limit ~n ~shed traces (Option.get w.sd)
        (KServer.shed_count s))
    [ 0; 2 ]

let traced_get tr =
  Workload.Http_load.request_with_headers ~path:"/index.html"
    [ ("traceparent", Telemetry.Context.to_traceparent tr) ]

let test_httpd_shed_boundary () =
  List.iter
    (fun limit ->
      let w = Scenario.world ~monitor:Api.create () in
      let cfg =
        {
          HServer.default_config with
          variant = HServer.Sdrad;
          workers = 1;
          shed_queue_limit = limit;
        }
      in
      let n = 6 in
      let ctxs = burst n in
      let { Scenario.server = s; result = shed; _ } =
        Scenario.httpd w
          ~files:(fun () -> mk_fs w.space)
          cfg
          (Script
             (fun _ ->
               let c = Netsim.connect w.net ~port:8080 in
               List.iter (fun tr -> Netsim.send c (traced_get tr)) ctxs;
               let shed =
                 List.map
                   (fun _ ->
                     let r = Option.get (Netsim.recv c) in
                     String.sub r 9 3 = "503")
                   ctxs
               in
               Netsim.close c;
               shed))
      in
      all_completed w.sched;
      check_shed_boundary ~limit ~n ~shed
        (List.map Telemetry.Context.trace ctxs)
        (Option.get w.sd) (HServer.shed_count s))
    [ 0; 2 ]

(* A retried POST whose first attempt committed is answered from the
   journal without running again, and the hit is one [Replay] flight
   event under the retry's trace id. *)
let test_httpd_replay_under_retry_trace () =
  let w = Scenario.world ~monitor:Api.create () in
  let cfg =
    { HServer.default_config with variant = HServer.Sdrad; workers = 1 }
  in
  (* Distinct trace ids, so the event's id tells the attempts apart. *)
  let first = Telemetry.Context.root "count-op" in
  let retry = Telemetry.Context.root "count-op-retry" in
  let post c tr =
    Netsim.send c
      (Printf.sprintf
         "POST /count HTTP/1.1\r\nHost: x\r\nX-Request-Id: op-1\r\n\
          traceparent: %s\r\nContent-Length: 0\r\n\r\n"
         (Telemetry.Context.to_traceparent tr));
    Option.get (Netsim.recv c)
  in
  ignore
    (Scenario.httpd w
       ~files:(fun () -> mk_fs w.space)
       cfg
       (Script
          (fun s ->
            let c = Netsim.connect w.net ~port:8080 in
            let r1 = post c first in
            let r2 = post c retry in
            check string "retry answered with the first reply" r1 r2;
            check int "POST ran once" 1 (HServer.post_count s);
            check int "one replay hit" 1 (HServer.replay_hits s);
            Netsim.close c)));
  all_completed w.sched;
  check (Alcotest.list Alcotest.int) "one Replay event, under the retry's trace"
    [ Telemetry.Context.trace retry ]
    (flight_traces (Option.get w.sd) Checkpoint.Flight.Replay)

(* {1 Overload shedding} *)

let test_kvcache_sheds_under_burst () =
  let w = Scenario.world ~monitor:Api.create () in
  let net = w.net in
  let cfg =
    {
      KServer.default_config with
      variant = KServer.Sdrad;
      workers = 1;
      shed_queue_limit = 2;
    }
  in
  let r =
    Scenario.kvcache w cfg
      (Script
         (fun s ->
           let c = Netsim.connect net ~port:11211 in
           let n = 20 in
           (* Pipeline a burst: the worker's backlog exceeds the limit and
              most of the burst is turned away before parsing. *)
           for i = 1 to n do
             Netsim.send c
               (Proto.fmt_set ~key:(Printf.sprintf "b%d" i) ~flags:0 ~value:"v")
           done;
           let busy = ref 0 and stored = ref 0 in
           for _ = 1 to n do
             match Netsim.recv c with
             | Some r when r = Proto.server_error_busy -> incr busy
             | Some r when Proto.parse_reply r = Proto.Stored -> incr stored
             | Some r -> Alcotest.failf "unexpected reply %S" r
             | None -> Alcotest.fail "connection dropped under burst"
           done;
           check int "every request got exactly one reply" n (!busy + !stored);
           check bool "burst tripped the shed path" true (!busy > 0);
           check bool "head of the burst was served" true (!stored > 0);
           check int "shed counter matches busy replies" !busy (KServer.shed_count s);
           (* After the burst drains, normal service resumes. *)
           Netsim.send c (Proto.fmt_set ~key:"after" ~flags:0 ~value:"ok");
           check bool "service resumed after burst" true
             (Proto.parse_reply (Option.get (Netsim.recv c)) = Proto.Stored);
           Netsim.close c))
  in
  all_completed w.sched;
  check bool "server survived the burst" false (KServer.crashed r.server)

let test_httpd_sheds_and_replays () =
  let w = Scenario.world ~monitor:Api.create () in
  let net = w.net in
  let cfg =
    {
      HServer.default_config with
      variant = HServer.Sdrad;
      workers = 1;
      shed_queue_limit = 2;
    }
  in
  let post ?rid c =
    let id_hdr =
      match rid with
      | Some r -> Printf.sprintf "X-Request-Id: %s\r\n" r
      | None -> ""
    in
    Netsim.send c
      (Printf.sprintf
         "POST /count HTTP/1.1\r\nHost: x\r\n%sContent-Length: 0\r\n\r\n" id_hdr);
    Option.get (Netsim.recv c)
  in
  let body reply =
    (* Everything after the header/body separator. *)
    let rec find i =
      if i + 4 > String.length reply then String.length reply
      else if String.sub reply i 4 = "\r\n\r\n" then i + 4
      else find (i + 1)
    in
    let off = find 0 in
    String.sub reply off (String.length reply - off)
  in
  ignore
    (Scenario.httpd w
       ~files:(fun () -> mk_fs w.space)
       cfg
       (Script
          (fun s ->
            (* Replay journal: same X-Request-Id twice = one application. *)
            let c = Netsim.connect net ~port:8080 in
            let r1 = post ~rid:"req-1" c in
            let r2 = post ~rid:"req-1" c in
            check bool "both replies are 200" true
              (Workload.Http_load.is_200 r1 && Workload.Http_load.is_200 r2);
            check string "retry answered from the journal" (body r1) (body r2);
            check int "POST applied exactly once" 1 (HServer.post_count s);
            check int "one replay hit" 1 (HServer.replay_hits s);
            (* Without an id, each POST applies. *)
            ignore (post c);
            ignore (post c);
            check int "anonymous POSTs apply each time" 3 (HServer.post_count s);
            (* Shedding: a pipelined burst gets 503s past the backlog limit. *)
            let n = 16 in
            for _ = 1 to n do
              Netsim.send c (Workload.Http_load.request ~path:"/index.html")
            done;
            let ok = ref 0 and shed = ref 0 in
            for _ = 1 to n do
              match Netsim.recv c with
              | Some r when Workload.Http_load.is_200 r -> incr ok
              | Some r when String.length r >= 12 && String.sub r 9 3 = "503" ->
                  incr shed
              | Some r -> Alcotest.failf "unexpected reply %S" r
              | None -> Alcotest.fail "connection dropped under burst"
            done;
            check int "one reply per request" n (!ok + !shed);
            check bool "burst tripped the shed path" true (!shed > 0);
            check bool "head of the burst was served" true (!ok > 0);
            check int "shed counter matches 503s" !shed (HServer.shed_count s);
            Netsim.close c)));
  all_completed w.sched

(* {1 Truncated frames are protocol errors, not crashes} *)

let test_truncated_frames_rejected () =
  let w = Scenario.world ~monitor:Api.create () in
  let net = w.net in
  let cfg =
    { KServer.default_config with variant = KServer.Sdrad; workers = 1 }
  in
  ignore
    (Scenario.kvcache w cfg
       (Script
          (fun s ->
            let text = Proto.fmt_set ~key:"k" ~flags:0 ~value:"hello" in
            let bin = Kvcache.Binproto.req_set ~key:"k" ~flags:0 ~value:"hello" in
            let probe frame =
              (* Reconnect per probe: an error reply may close the conn. *)
              let c = Netsim.connect net ~port:11211 in
              Netsim.send c frame;
              (match Timed_recv.recv_deadline c ~deadline:(Sched.now () +. 1.0e6) with
              | Some _ | None -> ());
              Netsim.close c;
              check bool "server survived truncated frame" false (KServer.crashed s)
            in
            for len = 1 to String.length text - 1 do
              probe (String.sub text 0 len)
            done;
            for len = 1 to String.length bin - 1 do
              probe (String.sub bin 0 len)
            done;
            (* And the server still works afterwards. *)
            let c = Netsim.connect net ~port:11211 in
            Netsim.send c (Proto.fmt_set ~key:"k" ~flags:0 ~value:"hello");
            check bool "valid traffic still served" true
              (Proto.parse_reply (Option.get (Netsim.recv c)) = Proto.Stored);
            Netsim.close c)));
  all_completed w.sched

let test_httpd_truncated_request_400 () =
  let w = Scenario.world ~monitor:Api.create () in
  let net = w.net in
  let cfg =
    { HServer.default_config with variant = HServer.Sdrad; workers = 1 }
  in
  ignore
    (Scenario.httpd w
       ~files:(fun () -> mk_fs w.space)
       cfg
       (Script
          (fun s ->
            let full = Workload.Http_load.request ~path:"/index.html" in
            for len = 1 to String.length full - 1 do
              let c = Netsim.connect net ~port:8080 in
              Netsim.send c (String.sub full 0 len);
              (match Timed_recv.recv_deadline c ~deadline:(Sched.now () +. 1.0e6) with
              | Some r ->
                  check bool "truncated request answered with an error status"
                    false
                    (Workload.Http_load.is_200 r)
              | None -> ());
              Netsim.close c
            done;
            let c = Netsim.connect net ~port:8080 in
            Netsim.send c full;
            check bool "valid request still served" true
              (Workload.Http_load.is_200 (Option.get (Netsim.recv c)));
            Netsim.close c;
            check int "no worker restarts from truncation" 0
              (HServer.worker_restarts s))));
  all_completed w.sched

(* {1 Retry-aware load generators} *)

let test_ycsb_retries_through_faults () =
  let w = Scenario.world ~size_mib:128 ~monitor:Api.create () in
  let cfg =
    { KServer.default_config with variant = KServer.Sdrad; workers = 2 }
  in
  let wl =
    {
      Workload.Ycsb.default_config with
      records = 60;
      operations = 200;
      clients = 4;
      value_size = 64;
      read_fraction = 0.5;
      retry =
        Some
          {
            Retry.default_policy with
            attempt_timeout = 150_000.0;
            overall_timeout = 4.0e6;
          };
    }
  in
  (* Drop ~4% of messages. *)
  let module Fi = Resilience.Fault_inject in
  Fi.arm_netsim
    (Fi.create ~seed:99 [ Fi.rule ~prob:0.04 ~site:"net" Fi.Net_drop ])
    w.net ~site:"net";
  let { Scenario.server = s; result = r; _ } =
    Scenario.kvcache w cfg (Ycsb wl)
  in
  check bool "server survived" false (KServer.crashed s);
  check bool "faults actually forced retries" true
    (r.Workload.Ycsb.retries > 0);
  (* Closed-loop clients with retries absorb a 4% drop rate without
     surfacing failures to the application. *)
  check int "no operation failed outright" 0 r.Workload.Ycsb.failures

let () =
  Alcotest.run "recovery"
    [
      ( "deadline",
        [
          Alcotest.test_case "recv_deadline" `Quick test_recv_deadline;
        ] );
      ( "retry",
        [
          Alcotest.test_case "success after backoff" `Quick
            test_retry_success_after_backoff;
          Alcotest.test_case "budget exhaustion" `Quick
            test_retry_budget_exhaustion;
          Alcotest.test_case "attempts and deadline" `Quick
            test_retry_attempts_and_deadline;
          Alcotest.test_case "no attempt past the deadline" `Quick
            test_retry_no_attempt_past_deadline;
          Alcotest.test_case "rids" `Quick test_retry_rids;
          Alcotest.test_case "host allocation" `Quick test_retry_allocation;
        ] );
      ( "journal",
        [
          Alcotest.test_case "unit semantics" `Quick test_journal_semantics;
          QCheck_alcotest.to_alcotest journal_differential_prop;
          Alcotest.test_case "host allocation" `Quick test_journal_allocation;
          Alcotest.test_case "replay after rewind" `Quick
            test_journal_replay_after_rewind;
          Alcotest.test_case "eviction in server" `Quick
            test_journal_eviction_in_server;
        ] );
      ( "admission",
        [
          Alcotest.test_case "kvcache shed boundary" `Quick
            test_kvcache_shed_boundary;
          Alcotest.test_case "httpd shed boundary" `Quick
            test_httpd_shed_boundary;
          Alcotest.test_case "httpd replay under the retry's trace" `Quick
            test_httpd_replay_under_retry_trace;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "kvcache burst" `Quick
            test_kvcache_sheds_under_burst;
          Alcotest.test_case "httpd shed and replay" `Quick
            test_httpd_sheds_and_replays;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "kvcache frames" `Quick
            test_truncated_frames_rejected;
          Alcotest.test_case "httpd request" `Quick
            test_httpd_truncated_request_400;
        ] );
      ( "load",
        [
          Alcotest.test_case "ycsb retries through faults" `Quick
            test_ycsb_retries_through_faults;
        ] );
    ]
