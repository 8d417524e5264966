(* The guarantees a rewind must keep, stated once: it discards only the
   failing domain, everyone else keeps being served, and no partial
   rollback is ever observable. The chaos runners and the suites that
   exercise the same scenarios share the checks below, the seeded frame
   the runners run them in, the retrying exactly-once client and the
   supervised-DoS and injected-corruption scenarios.

   A check reports through an {!expect}: a runner's [expect ~seed]
   prints and counts a violation, a suite's passes Alcotest's [check]. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Supervisor = Resilience.Supervisor
module Fault_inject = Resilience.Fault_inject
module Retry = Resilience.Retry
module KServer = Kvcache.Server
module Proto = Kvcache.Proto

type expect = string -> bool -> unit

(* {1 The runners' frame} *)

let seeds = [ 11; 23; 37; 41; 53 ]
let failures = ref 0

let expect ~seed name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL [seed %d] %s\n%!" seed name
  end

(* Each leg over every seed, leg by leg; exits 1 on any violation,
   else prints [held]. *)
let run ~what ~held legs =
  List.iter (fun leg -> List.iter (fun seed -> leg ~seed) seeds) legs;
  if !failures > 0 then begin
    Printf.printf "%d %s invariant(s) violated\n%!" !failures what;
    exit 1
  end;
  print_endline held

(* A QCheck property's verdict: whether every check [f] makes holds,
   raising with the names of those that fail. *)
let holds f =
  let v = ref [] in
  f (fun name ok -> if not ok then v := name :: !v);
  if !v <> [] then failwith (String.concat "; " (List.rev !v));
  true

(* {1 Checks} *)

(* One rewind of a server's domain is counted by the monitor
   ([sdrad_rewinds_total]), the server ([*_rewinds_total]), the audit
   log and, when one is attached, the supervisor
   ([supervisor_rewinds_seen_total]). *)
let rewind_counts_agree (expect : expect) leg (w : Scenario.world) ~server =
  let sd = Option.get w.sd in
  let counter name =
    Telemetry.Metrics.(counter_value (counter (Api.metrics sd) name))
  in
  let counts =
    [ counter "sdrad_rewinds_total"; server ]
    @ (if w.sup = None then [] else [ counter "supervisor_rewinds_seen_total" ])
    @ [ Api.audit_appended sd ]
  in
  expect
    (Printf.sprintf "%s: the %d rewind counts agree (%s)" leg
       (List.length counts)
       (String.concat ", " (List.map string_of_int counts)))
    (List.for_all (( = ) server) counts)

let no_pending_intent (expect : expect) leg sd =
  expect (leg ^ ": no intent left pending") (not (Api.audit_pending sd))

let store_intact (expect : expect) leg s =
  expect (leg ^ ": store integrity") (KServer.db_check s = [])

(* A wild write or a smashed canary always faults inside the domain, so
   each one fired is one rewind. *)
let domain_faults fi =
  List.length
    (List.filter
       (fun e ->
         match e.Fault_inject.e_kind with
         | Fault_inject.Wild_write | Stack_smash -> true
         | _ -> false)
       (Fault_inject.events fi))

let faults_rewound (expect : expect) leg ~faults ~rewinds =
  expect
    (Printf.sprintf "%s: every fault rewound (%d faults, %d rewinds)" leg faults
       rewinds)
    (faults = rewinds)

(* [got] is what [key] reads back as; [want], the increments acked. *)
let exactly_once (expect : expect) leg ~key ~want got =
  match got with
  | None -> expect (Printf.sprintf "%s: %s readable" leg key) false
  | Some v ->
      expect
        (Printf.sprintf "%s: %s applied exactly once per ack (got %s, want %d)"
           leg key v want)
        (v = string_of_int want)

(* A monitor at rest: every count of rewinds agrees, no intent pending. *)
let quiescent expect leg (w : Scenario.world) ~rewinds =
  rewind_counts_agree expect leg w ~server:rewinds;
  no_pending_intent expect leg (Option.get w.sd)

(* A kvcache leg's end: the server up, its store intact, quiescent. *)
let kv_holds (expect : expect) leg w s =
  expect (leg ^ ": server never crashed") (not (KServer.crashed s));
  store_intact expect leg s;
  quiescent expect leg w ~rewinds:(KServer.rewinds s)

(* {1 The retrying exactly-once client} *)

(* The soak legs' supervision: their injected corruption is random
   noise, not one abusive client, so the budget is high enough that no
   domain is quarantined outright; backoff verdicts still surface as
   busy replies the clients retry through. *)
let lenient_policy =
  {
    Supervisor.default_policy with
    budget_max = 100;
    backoff_base = 2_000.0;
    backoff_max = 20_000.0;
  }

let retry_policy =
  {
    Retry.default_policy with
    attempt_timeout = 120_000.0;
    overall_timeout = 4.0e6;
    backoff_base = 5_000.0;
    backoff_cap = 160_000.0;
  }

type client =
  { eng : Retry.t; net : Netsim.t; port : int; mutable conn : Netsim.conn }

let client net ~port ~rng ~name =
  let eng = Retry.create retry_policy ~rng ~name in
  { eng; net; port; conn = Netsim.connect net ~port }

(* The request id is part of [req], pinned outside the retry engine, so
   even a whole failed [execute] (attempts exhausted, budget dry) is
   relaunched under the same id without risking a second application.
   A late reply would desynchronize the stream, so a timed-out attempt
   abandons its connection. *)
let until_acked c req ~acked =
  let live () =
    if Netsim.peer_closed c.conn || not (Netsim.is_open c.conn) then begin
      Netsim.close c.conn;
      c.conn <- Netsim.connect c.net ~port:c.port
    end;
    c.conn
  in
  let rec loop () =
    match
      Retry.execute c.eng (fun eng ->
          let conn = live () in
          Netsim.send conn req;
          match
            Timed_recv.recv_deadline conn
              ~deadline:(Float.Array.get (Retry.deadline_slot eng) 0)
          with
          | Some r -> if acked r then Ok () else Error (`Retry "not acked")
          | None ->
              Netsim.close conn;
              Error (`Retry "timeout"))
    with
    | Ok () -> ()
    | Error _ ->
        (* Budget dry or attempts exhausted: cool off, then insist. *)
        Sched.sleep 100_000.0;
        loop ()
  in
  loop ()

(* Close the client's connection; its retries. *)
let finish c =
  Netsim.close c.conn;
  Retry.retries c.eng

(* A kvcache reply that is not [SERVER_ERROR busy] and passes [ok]. *)
let kv_acked ok r = r <> Proto.server_error_busy && ok (Proto.parse_reply r)

(* Spawn [clients] counter clients. Client [i] owns the counter
   [ctr<i>]: it sets it to 0, then adds 1 [incrs] times, each under its
   own request id [<name><i>-op<n>], retried until acked. [retries] sums
   their retries. *)
let spawn_counters (w : Scenario.world) ~seed ~name ~clients ~incrs ~retries =
  List.init clients (fun i ->
      let me = Printf.sprintf "%s%d" name i in
      Sched.spawn w.sched ~name:me (fun () ->
          let rng = Rng.create (seed + (100 * i)) in
          let c =
            client w.net ~port:11211 ~rng:(Rng.create (seed + (200 * i) + 1))
              ~name:me
          in
          let key = Printf.sprintf "ctr%d" i in
          until_acked c
            (Proto.fmt_set ~key ~flags:0 ~value:"0")
            ~acked:(kv_acked (( = ) Proto.Stored));
          for n = 1 to incrs do
            Sched.sleep (float_of_int (Rng.int rng 12_000));
            until_acked c
              (Proto.fmt_incr ~rid:(Printf.sprintf "%s-op%d" me n) key 1)
              ~acked:(kv_acked (function Proto.Number _ -> true | _ -> false))
          done;
          retries := !retries + finish c))

(* Read [key] back over a fresh connection. The injection plan may
   still be armed, so a get may be rewound (connection closed) or
   answered busy: reconnect and insist, but 50 times at most, so a lost
   key fails its check instead of hanging the run. *)
let read_back net ~port key =
  let rec go tries =
    if tries = 0 then None
    else begin
      let c = Netsim.connect net ~port in
      Netsim.send c (Proto.fmt_get key);
      let r = Timed_recv.recv_deadline c ~deadline:(Sched.now () +. 500_000.0) in
      Netsim.close c;
      match Option.map Proto.parse_reply r with
      | Some (Proto.Value v) -> Some v
      | _ ->
          Sched.sleep 50_000.0;
          go (tries - 1)
    end
  in
  go 50

(* Read every counter back over a link with no network faults. *)
let counters_exact expect leg net ~clients ~incrs =
  Netsim.set_fault_hook net None;
  for i = 0 to clients - 1 do
    let key = Printf.sprintf "ctr%d" i in
    exactly_once expect leg ~key ~want:incrs (read_back net ~port:11211 key)
  done

(* {1 The supervised DoS scenario}

   A looping attacker from one source address reconnects after every
   rewind and fires the CVE payload again; benign clients run normal
   traffic from their own addresses. With per-client domains a
   supervisor caps the attacker's rewinds at its budget, turns the rest
   away busy and readmits it through a half-open probe after the
   cooldown; without one, every attack costs a rewind. *)

let dos_budget = 3 and dos_benign = 3 and dos_ops = 25

type dos = {
  dos_world : Scenario.world;
  dos_server : KServer.t;
  busy : int;
  benign_failures : int;
  benign_ok : int;
  recovered : bool;
}

let run_dos ~seed ~supervised ~attacks =
  let cfg =
    {
      KServer.default_config with
      variant = KServer.Sdrad;
      vulnerable = true;
      workers = 2;
      per_client_domains = true;
    }
  in
  let policy =
    {
      Supervisor.default_policy with
      budget_max = dos_budget;
      budget_window = 1.0e9;
      backoff_base = 5_000.0;
      backoff_max = 50_000.0;
      cooldown = 2.0e6;
    }
  in
  let w =
    Scenario.world ~size_mib:192 ~monitor:(fun space -> Api.create space)
      ?supervisor:(if supervised then Some (Supervisor.attach ~policy) else None)
      ()
  in
  let sched = w.sched and net = w.net in
  let attacker_src = 777 in
  let benign_failures = ref 0 and benign_ok = ref 0 in
  let busy = ref 0 and recovered = ref false in
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           let tids = ref [] in
           for i = 0 to dos_benign - 1 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "good%d" i)
                 (fun () ->
                   let rng = Rng.create (seed + (100 * i)) in
                   let c = Netsim.connect net ~src:(1 + i) ~port:11211 in
                   for _ = 1 to dos_ops do
                     Sched.sleep (float_of_int (Rng.int rng 8_000));
                     let key = Printf.sprintf "k%d" (Rng.int rng 20) in
                     let req =
                       if Rng.bool rng then Proto.fmt_get key
                       else
                         Proto.fmt_set ~key ~flags:0
                           ~value:(Bytes.to_string (Rng.bytes rng 64))
                     in
                     Netsim.send c req;
                     match Netsim.recv c with
                     | None -> incr benign_failures
                     | Some r -> (
                         match Proto.parse_reply r with
                         | Proto.Failed _ -> incr benign_failures
                         | _ -> incr benign_ok)
                   done;
                   Netsim.close c)
               :: !tids
           done;
           tids :=
             Sched.spawn sched ~name:"evil" (fun () ->
                 for _ = 1 to attacks do
                   Sched.sleep 20_000.0;
                   (* Reconnect from the same address: with per-client
                      domains the rewind budget follows the attacker. *)
                   let c = Netsim.connect net ~src:attacker_src ~port:11211 in
                   Netsim.send c
                     (Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                        ~value:(String.make 300 'X'));
                   (match Netsim.recv c with
                   | None -> () (* rewound; the server closed the connection *)
                   | Some r -> if r = Proto.server_error_busy then incr busy);
                   Netsim.close c
                 done;
                 (* After the cooldown the attacker behaves: the half-open
                    probe must readmit and heal the domain. *)
                 if supervised then begin
                   Sched.sleep 2.5e6;
                   let c = Netsim.connect net ~src:attacker_src ~port:11211 in
                   Netsim.send c (Proto.fmt_get "pwn");
                   (match Netsim.recv c with
                   | Some r -> (
                       match Proto.parse_reply r with
                       | Proto.Failed _ -> ()
                       | _ -> recovered := true)
                   | None -> ());
                   Netsim.close c
                 end)
             :: !tids;
           List.iter Sched.join !tids))
  in
  {
    dos_world = w;
    dos_server = s;
    busy = !busy;
    benign_failures = !benign_failures;
    benign_ok = !benign_ok;
    recovered = !recovered;
  }

let dos_holds (expect : expect) ~attacks ~unsupervised:un ~supervised:sup =
  kv_holds expect "dos: unsupervised" un.dos_world un.dos_server;
  kv_holds expect "dos: supervised" sup.dos_world sup.dos_server;
  expect "dos: unsupervised rewinds = attacks"
    (KServer.rewinds un.dos_server = attacks);
  expect "dos: supervised rewinds capped at the budget"
    (KServer.rewinds sup.dos_server = dos_budget);
  expect "dos: excess attacks turned away busy" (sup.busy = attacks - dos_budget);
  expect "dos: zero benign failures under attack" (sup.benign_failures = 0);
  expect "dos: benign traffic served"
    (sup.benign_ok = un.benign_ok && sup.benign_ok = dos_benign * dos_ops);
  expect "dos: recovery via half-open probe" sup.recovered

(* {1 The injected-corruption scenario}

   Benign clients only, reconnecting per request, while the engine
   corrupts event-domain memory from inside at "kv.domain". *)

type injected = {
  inj_world : Scenario.world;
  inj_server : KServer.t;
  inj_faults : Fault_inject.t;
  incidents : string;  (* the audit log, one line per record *)
}

let run_injected ~seed =
  let w = Scenario.world ~size_mib:128 ~monitor:Api.create () in
  let sched = w.sched and net = w.net in
  let fi =
    Fault_inject.create ~seed
      [
        Fault_inject.rule ~prob:0.15 ~site:"kv.domain" Fault_inject.Wild_write;
        Fault_inject.rule ~prob:0.05 ~site:"kv.domain" Fault_inject.Stack_smash;
      ]
  in
  let cfg = { KServer.default_config with variant = KServer.Sdrad; workers = 2 } in
  let { Scenario.server = s; _ } =
    Scenario.kvcache ~faults:fi w cfg
      (Script
         (fun _ ->
           let tids = ref [] in
           for i = 0 to 3 do
             tids :=
               Sched.spawn sched
                 ~name:(Printf.sprintf "cl%d" i)
                 (fun () ->
                   let rng = Rng.create (seed + i) in
                   for _ = 1 to 25 do
                     Sched.sleep (float_of_int (Rng.int rng 10_000));
                     let c = Netsim.connect net ~port:11211 in
                     let key = Printf.sprintf "k%d" (Rng.int rng 10) in
                     Netsim.send c
                       (Proto.fmt_set ~key ~flags:0
                          ~value:(Bytes.to_string (Rng.bytes rng 48)));
                     ignore (Netsim.recv c);
                     Netsim.close c
                   done)
               :: !tids
           done;
           List.iter Sched.join !tids))
  in
  let incidents =
    Api.audit_records (Option.get w.sd)
    |> List.map (fun (r : Checkpoint.Rewind_log.record) ->
           Printf.sprintf "domain %d tid %d %s %s 0x%x %s" r.r_target r.r_tid
             (Checkpoint.Rewind_log.kind_to_string r.r_kind)
             r.r_si r.r_fault_addr r.r_msg)
    |> String.concat "\n"
  in
  { inj_world = w; inj_server = s; inj_faults = fi; incidents }

let injected_holds (expect : expect) i =
  kv_holds expect "inject" i.inj_world i.inj_server;
  expect "inject: faults were injected" (Fault_inject.fires i.inj_faults > 0);
  faults_rewound expect "inject"
    ~faults:(domain_faults i.inj_faults)
    ~rewinds:(KServer.rewinds i.inj_server)

(* Two runs of one seed: the same rewinds, byte for byte the same logs. *)
let injected_replays (expect : expect) a b =
  expect "inject: replayable rewinds"
    (KServer.rewinds a.inj_server = KServer.rewinds b.inj_server);
  expect "inject: byte-identical injection logs"
    (Fault_inject.log_to_string a.inj_faults
    = Fault_inject.log_to_string b.inj_faults);
  expect "inject: byte-identical incident logs" (a.incidents = b.incidents)
