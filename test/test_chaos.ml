(* Whole-system chaos tests: long mixed runs where benign clients (text
   and binary protocol) interleave with attackers firing the CVE
   payloads. The availability invariants of the paper must hold at every
   scale and interleaving: the SDRaD server never goes down, exactly the
   attacked events rewind, benign traffic never fails, and shared state
   passes its integrity walk. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Server = Kvcache.Server
module Proto = Kvcache.Proto
module Bin = Kvcache.Binproto

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

type outcome = {
  rewinds : int;
  crashed : bool;
  db_errors : int;
  benign_failures : int;
  benign_ops : int;
  attacks : int;
  final_count : int;
}

(* One full simulation: [benign] clients doing random gets/sets/deletes in
   a random protocol, [attackers] firing lying SETs at random moments. *)
let run_kv_chaos ~seed ~benign ~attackers ~ops_per_client =
  let w = Scenario.world ~size_mib:192 ~monitor:Api.create () in
  let sched = w.sched and net = w.net in
  let cfg =
    { Server.default_config with variant = Server.Sdrad; vulnerable = true;
      workers = 3 }
  in
  let benign_failures = ref 0 and benign_ops = ref 0 and attacks = ref 0 in
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
                   let c = Netsim.connect net ~port:11211 in
                   for _ = 1 to ops_per_client do
                     Sched.sleep (float_of_int (Rng.int rng 5_000));
                     let key = Printf.sprintf "k%d" (Rng.int rng 40) in
                     let binary = Rng.bool rng in
                     let req =
                       match Rng.int rng 3 with
                       | 0 ->
                           if binary then Bin.req_get key else Proto.fmt_get key
                       | 1 ->
                           let value = Bytes.to_string (Rng.bytes rng (1 + Rng.int rng 700)) in
                           if binary then Bin.req_set ~key ~flags:0 ~value
                           else Proto.fmt_set ~key ~flags:0 ~value
                       | _ ->
                           if binary then Bin.req_delete key else Proto.fmt_delete key
                     in
                     Netsim.send c req;
                     incr benign_ops;
                     match Netsim.recv c with
                     | None -> incr benign_failures
                     | Some r -> (
                         let reply =
                           if binary then Bin.parse_reply r else Proto.parse_reply r
                         in
                         match reply with
                         | Proto.Failed _ -> incr benign_failures
                         | _ -> ())
                   done;
                   Netsim.close c)
               :: !tids
           done;
           for i = 0 to attackers - 1 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "evil%d" i)
                 (fun () ->
                   let rng = Rng.create (seed + 7_777 + i) in
                   for _ = 1 to 3 do
                     Sched.sleep (float_of_int (1_000 + Rng.int rng 200_000));
                     let evil = Netsim.connect net ~port:11211 in
                     let payload = String.make (400 + Rng.int rng 400) 'X' in
                     let attack =
                       if Rng.bool rng then
                         Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                           ~value:payload
                       else
                         Bin.req_set_lying ~key:"pwn" ~flags:0 ~body_len:0xFFFFFFFF
                           ~value:payload
                     in
                     Netsim.send evil attack;
                     incr attacks;
                     (* The server must close the connection, not answer. *)
                     (match Netsim.recv evil with
                     | None -> ()
                     | Some _ -> incr benign_failures);
                     Netsim.close evil
                   done)
               :: !tids
           done;
           List.iter Sched.join !tids))
  in
  {
    rewinds = Server.rewinds s;
    crashed = Server.crashed s;
    db_errors = List.length (Server.db_check s);
    benign_failures = !benign_failures;
    benign_ops = !benign_ops;
    attacks = !attacks;
    final_count = Kvcache.Store.count (Server.store s);
  }

let test_kv_chaos_invariants () =
  let o = run_kv_chaos ~seed:11 ~benign:6 ~attackers:3 ~ops_per_client:60 in
  check bool "server alive" false o.crashed;
  check int "every attack rewound, nothing else" o.attacks o.rewinds;
  check int "benign traffic unharmed" 0 o.benign_failures;
  check int "database integrity" 0 o.db_errors;
  check int "all benign ops issued" (6 * 60) o.benign_ops;
  check bool "attacks actually ran" true (o.attacks = 9)

let test_kv_chaos_deterministic () =
  let a = run_kv_chaos ~seed:23 ~benign:4 ~attackers:2 ~ops_per_client:40 in
  let b = run_kv_chaos ~seed:23 ~benign:4 ~attackers:2 ~ops_per_client:40 in
  check bool "identical outcomes" true (a = b)

let kv_chaos_prop =
  QCheck.Test.make ~name:"chaos invariants hold across seeds" ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let o = run_kv_chaos ~seed ~benign:4 ~attackers:2 ~ops_per_client:30 in
      (not o.crashed) && o.rewinds = o.attacks && o.benign_failures = 0
      && o.db_errors = 0)

(* The web server under the same treatment, with the rewind-limit policy
   armed: attacks cause rewinds and occasional proactive restarts, but
   every benign request eventually succeeds (clients reconnect). *)
let test_web_chaos_with_rewind_limit () =
  let w = Scenario.world ~size_mib:192 ~monitor:Api.create () in
  let sched = w.sched and net = w.net in
  let fs = Httpd.Fs.create w.space in
  Httpd.Fs.add fs ~path:"/index.html" ~size:2048;
  let cfg =
    { Httpd.Server.default_config with variant = Httpd.Server.Sdrad;
      vulnerable = true; workers = 2; rewind_limit = Some 3 }
  in
  let ok = ref 0 and attacks = ref 0 in
  let { Scenario.server = s; _ } =
    Scenario.httpd w ~files:(Fun.const fs) cfg
      (Script
         (fun _ ->
           let tids = ref [] in
           for i = 0 to 3 do
             tids :=
               Sched.spawn sched ~name:(Printf.sprintf "good%d" i) (fun () ->
                   let rng = Rng.create (31 + i) in
                   for _ = 1 to 40 do
                     Sched.sleep (float_of_int (Rng.int rng 20_000));
                     (* Reconnect per request: survives worker re-execs. *)
                     let c = Netsim.connect net ~port:8080 in
                     Netsim.send c (Workload.Http_load.request ~path:"/index.html");
                     (match Netsim.recv c with
                     | Some r when Workload.Http_load.is_200 r -> incr ok
                     | Some _ | None -> ());
                     Netsim.close c
                   done)
               :: !tids
           done;
           tids :=
             Sched.spawn sched ~name:"evil" (fun () ->
                 let rng = Rng.create 999 in
                 for _ = 1 to 8 do
                   Sched.sleep (float_of_int (50_000 + Rng.int rng 400_000));
                   let evil = Netsim.connect net ~port:8080 in
                   Netsim.send evil (Workload.Http_load.request ~path:"/a/../../etc");
                   incr attacks;
                   ignore (Netsim.recv evil);
                   Netsim.close evil
                 done)
             :: !tids;
           List.iter Sched.join !tids))
  in
  check int "all attacks rewound" !attacks (Httpd.Server.rewinds s);
  check bool "rewind limit produced restarts" true
    (Httpd.Server.proactive_restarts s >= 2);
  (* A benign request can race a proactive restart (its connection dies
     with the worker); the vast majority must succeed. *)
  check bool "benign traffic overwhelmingly served" true (!ok >= 150)

let () =
  Alcotest.run "chaos"
    [
      ( "kvcache",
        [
          Alcotest.test_case "invariants" `Slow test_kv_chaos_invariants;
          Alcotest.test_case "deterministic" `Slow test_kv_chaos_deterministic;
          QCheck_alcotest.to_alcotest kv_chaos_prop;
        ] );
      ( "httpd",
        [ Alcotest.test_case "rewind-limit chaos" `Slow test_web_chaos_with_rewind_limit ] );
    ]
