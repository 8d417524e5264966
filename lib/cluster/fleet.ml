(* Sharded multi-monitor cluster: N independent kvcache monitor
   instances behind a consistent-hash router, with rewind-aware
   failover.

   Concurrency notes (cooperative scheduler): the failover state machine
   relies on two atomicity facts. First, a router worker's
   freeze-check → ring-lookup → inflight++ sequence contains no
   scheduling point, so the drain loop's [s_inflight = 0] observation
   cannot race with a request that has passed admission but not yet
   registered. Second, [do_failover] freezes the whole router while it
   drains and re-seeds, so no new write can land on a key range while
   its stale oplog entries are still being replayed — the classic
   re-seed/overwrite hazard is excluded by construction rather than by
   per-key versioning. *)

module Sched = Simkern.Sched
module Space = Vmem.Space
module Api = Sdrad.Api
module Supervisor = Resilience.Supervisor
module Fi = Resilience.Fault_inject
module Proto = Kvcache.Proto
module Metrics = Telemetry.Metrics
module Flight = Checkpoint.Flight

type config = {
  shards : int;
  vnodes : int;
  base_port : int;
  router_port : int;
  hb_port : int;
  router_workers : int;
  hb_interval : float;
  hb_timeout : float;
  forward_timeout : float;
  shed_wait : float;
  drain_poll : float;
  oplog_cap : int;
  space_mib : int;
  kv : Kvcache.Server.config;
  supervisor_policy : Supervisor.policy;
}

(* forward_timeout must sit well under the client retry policy's
   attempt_timeout (400k cycles) so a router busy reply, not a client
   timeout, is what triggers the retry. *)
let default_config =
  {
    shards = 4;
    vnodes = 64;
    base_port = 12000;
    router_port = 11211;
    hb_port = 12999;
    router_workers = 4;
    hb_interval = 50_000.0;
    hb_timeout = 250_000.0;
    forward_timeout = 200_000.0;
    shed_wait = 350_000.0;
    drain_poll = 5_000.0;
    oplog_cap = 65536;
    space_mib = 64;
    kv = { Kvcache.Server.default_config with variant = Kvcache.Server.Sdrad };
    supervisor_policy = Supervisor.default_policy;
  }

let router_flight_udi = 9

type route_state = Serving | Draining | Failed_over

(* One acked keyed write, retained verbatim for re-seeding: replaying
   [o_req] (original [id=] and [trace=] tokens included) against the new
   owner lets its replay journal dedup client retries of the same rid. *)
type op_entry = { o_key : string; o_trace : int64; o_req : string }

type shard = {
  s_idx : int;
  s_port : int;
  s_sd : Api.t;
  s_sup : Supervisor.t;
  s_server : Kvcache.Server.t;
  mutable s_state : route_state;
  mutable s_health : string;  (* router-derived view, see shard_health *)
  mutable s_hb_last : float;
  mutable s_hb_breaker : Supervisor.breaker;
  mutable s_partitioned_until : float;  (* shard-side link state *)
  mutable s_crashed : bool;
  mutable s_inflight : int;
  s_oplog : op_entry Queue.t;
  s_routed : Metrics.counter;
}

type t = {
  cfg : config;
  net : Netsim.t;
  faults : Fi.t option;
  m : Metrics.t;
  shards : shard array;
  ring : Hash_ring.t;
  listener : Netsim.listener;
  hb_listener : Netsim.listener;
  worker_sets : Netsim.Waitset.ws array;
  hb_set : Netsim.Waitset.ws;
  mutable freeze : bool;  (* router-global: failover in progress *)
  mutable running : bool;
  c_requests : Metrics.counter;
  c_routed : Metrics.counter;
  c_failovers : Metrics.counter;
  c_reseeded : Metrics.counter;
  c_timeouts : Metrics.counter;
  c_shed : Metrics.counter;
  c_heartbeats : Metrics.counter;
  c_evicted : Metrics.counter;
}

(* {2 Request grammar (router's view)}

   The router parses just enough of the kvcache text protocol to route:
   the verb and first key of the request line. Trailing [id=]/[trace=]
   tokens are the same grammar {!Kvcache.Proto} uses. The line is split
   once per request, on arrival; everything the router decides reads the
   result. *)

let words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let keyed_verbs = [ "get"; "set"; "add"; "replace"; "delete"; "incr"; "decr" ]
let mutation_verbs = [ "set"; "add"; "replace"; "delete"; "incr"; "decr" ]

type request = {
  verb : string;  (* first word; "" for an empty line *)
  key : string option;
      (* first key of a keyed verb; [None] for stats/version/unknown, which
         any serving shard will do *)
  rid : string option;  (* last [id=] token of a mutation *)
  trace : int64;  (* [trace=] context; 0 = none *)
}

let parse_request msg =
  let line, has_cr =
    match String.index_opt msg '\r' with
    | Some i -> (String.sub msg 0 i, true)
    | None -> (
        match String.index_opt msg '\n' with
        | Some i -> (String.sub msg 0 i, false)
        | None -> (msg, false))
  in
  let ws = words line in
  let verb = match ws with v :: _ -> v | [] -> "" in
  let rid =
    if not (List.mem verb mutation_verbs) then None
    else
      List.fold_left
        (fun acc w ->
          if String.length w > 3 && String.sub w 0 3 = "id=" then
            Some (String.sub w 3 (String.length w - 3))
          else acc)
        None ws
  in
  {
    verb;
    key =
      (match ws with
      | v :: k :: _ when List.mem v keyed_verbs -> Some k
      | _ -> None);
    rid;
    (* As {!Proto.trace_of_string}: only a CR-terminated line carries one. *)
    trace = (if has_cr then Proto.trace_of_words ws else 0L);
  }

(* A reply the client will treat as a definitive outcome (so the write
   must survive failover). Busy/error replies are retried or surfaced;
   they carry no durability promise. *)
let acked reply =
  match Proto.parse_reply reply with Proto.Failed _ -> false | _ -> true

(* {2 Shard-side helpers} *)

let link_up s = (not s.s_crashed) && Sched.now () >= s.s_partitioned_until

let crash_shard s =
  if not s.s_crashed then begin
    s.s_crashed <- true;
    Kvcache.Server.stop s.s_server
  end

(* {2 Oplog} *)

let oplog_push t s e =
  if Queue.length s.s_oplog >= t.cfg.oplog_cap then begin
    ignore (Queue.pop s.s_oplog);
    Metrics.inc t.c_evicted
  end;
  Queue.push e s.s_oplog

(* {2 Failover} *)

(* Replay the drained shard's acked writes to their new owners (the
   ring has already forgotten the shard, so [route] yields the clockwise
   successor). Runs under [t.freeze], so the replies we replay cannot be
   overwritten by concurrent client traffic.

   The replay must not drop an acked write just because the chosen
   replica is itself in trouble at that instant: a partitioned replica's
   outage is finite (the model knows when the link heals), so the loop
   waits it out; a {e crashed} replica will never answer, so its own
   failover cascades right here — one ring hop deeper, its oplog (which
   already holds everything replayed into it so far) moving on to the
   next successor — and the entry retries against the shrunken ring. *)
let rec reseed t sick =
  let conns = Hashtbl.create 4 in
  let conn_to tgt =
    match Hashtbl.find_opt conns tgt.s_idx with
    | Some c when Netsim.is_open c && not (Netsim.peer_closed c) -> c
    | _ ->
        let c = Netsim.connect t.net ~port:tgt.s_port in
        Hashtbl.replace conns tgt.s_idx c;
        c
  in
  let rec replay e tries =
    if tries > 0 && Hash_ring.size t.ring > 0 then begin
      let tgt = t.shards.(Hash_ring.route t.ring e.o_key) in
      if (not tgt.s_crashed) && not (link_up tgt) then begin
        (* Known-finite link outage: wait for the heal, then retry. *)
        Sched.sleep
          (Float.max t.cfg.drain_poll
             (tgt.s_partitioned_until -. Sched.now ()));
        replay e tries
      end
      else if tgt.s_crashed then begin
        (* Dead replica discovered mid-re-seed: cascade its failover
           before this entry is lost with it. *)
        if tgt.s_state = Serving then failover_locked t tgt;
        replay e (tries - 1)
      end
      else begin
        let c = conn_to tgt in
        Netsim.send c e.o_req;
        match
          Netsim.recv_deadline c
            ~deadline:(Sched.now () +. t.cfg.forward_timeout)
        with
        | Some r when acked r ->
            Metrics.inc t.c_reseeded;
            oplog_push t tgt e;
            Api.with_trace tgt.s_sd e.o_trace (fun () ->
                Api.flight_event tgt.s_sd ~udi:router_flight_udi
                  ~arg:sick.s_idx Flight.Failover)
        | Some _ -> ()
        | None ->
            Metrics.inc t.c_timeouts;
            Netsim.close c;
            Hashtbl.remove conns tgt.s_idx;
            replay e (tries - 1)
      end
    end
  in
  Queue.iter (fun e -> replay e 3) sick.s_oplog;
  Hashtbl.iter (fun _ c -> Netsim.close c) conns;
  Queue.clear sick.s_oplog

(* The failover state machine proper; the caller holds [t.freeze]. *)
and failover_locked t s =
  s.s_state <- Draining;
  Metrics.inc t.c_failovers;
  (* Drain: admitted requests finish (reply or forward deadline). *)
  while s.s_inflight > 0 do
    Sched.sleep t.cfg.drain_poll
  done;
  Hash_ring.remove t.ring s.s_idx;
  reseed t s;
  s.s_state <- Failed_over

let do_failover t s =
  if t.running && s.s_state = Serving then begin
    t.freeze <- true;
    failover_locked t s;
    t.freeze <- false
  end

(* {2 Router data path} *)

let handle_request t backends c msg req =
  Metrics.inc t.c_requests;
  (* Admission: park while a failover is in progress or the owning shard
     is mid-drain; give up only when the ring is empty. *)
  let rec pick () =
    if not t.running then None
    else if t.freeze then begin
      Sched.sleep t.cfg.drain_poll;
      pick ()
    end
    else if Hash_ring.size t.ring = 0 then None
    else
      let idx =
        match req.key with
        | Some k -> Hash_ring.route t.ring k
        | None -> List.hd (Hash_ring.members t.ring)
      in
      let s = t.shards.(idx) in
      if s.s_state <> Serving then begin
        Sched.sleep t.cfg.drain_poll;
        pick ()
      end
      else Some s
  in
  match pick () with
  | None -> Netsim.send c Proto.server_error_busy
  | Some s ->
      let trace = req.trace in
      (* The hop lands in the shard's flight recorder under the
         client's trace id: sdrad_cli incident sees router → shard. *)
      Api.with_trace s.s_sd trace (fun () ->
          Api.flight_event s.s_sd ~udi:router_flight_udi ~arg:s.s_idx
            Flight.Route);
      Metrics.inc t.c_routed;
      Metrics.inc s.s_routed;
      s.s_inflight <- s.s_inflight + 1;
      let reply =
        if not (link_up s) then begin
          (* Partitioned/crashed link: the forward vanishes; model the
             client-visible outcome — a full deadline wait. *)
          Sched.sleep t.cfg.forward_timeout;
          None
        end
        else begin
          let bc =
            match Hashtbl.find_opt backends s.s_idx with
            | Some bc when Netsim.is_open bc && not (Netsim.peer_closed bc)
              ->
                bc
            | other ->
                (match other with
                | Some stale ->
                    Netsim.close stale;
                    Hashtbl.remove backends s.s_idx
                | None -> ());
                let bc = Netsim.connect t.net ~port:s.s_port in
                Hashtbl.replace backends s.s_idx bc;
                bc
          in
          Netsim.send bc msg;
          match
            Netsim.recv_deadline bc
              ~deadline:(Sched.now () +. t.cfg.forward_timeout)
          with
          | Some r -> Some r
          | None ->
              (* Reply may still arrive later; abandon the connection so
                 it cannot be mis-paired with the next forward. *)
              Netsim.close bc;
              Hashtbl.remove backends s.s_idx;
              None
        end
      in
      s.s_inflight <- s.s_inflight - 1;
      (match reply with
      | Some r ->
          (match (req.rid, req.key) with
          | Some _, Some key when acked r ->
              oplog_push t s { o_key = key; o_trace = trace; o_req = msg }
          | _ -> ());
          Netsim.send c r
      | None ->
          Metrics.inc t.c_timeouts;
          Netsim.send c Proto.server_error_busy)

let worker t widx () =
  let ws = t.worker_sets.(widx) in
  let backends : (int, Netsim.conn) Hashtbl.t = Hashtbl.create 8 in
  let rec loop () =
    match Netsim.Waitset.wait ws with
    | None -> ()
    | Some c ->
        (match Netsim.recv_with_arrival c with
        | Some (msg, arrival) ->
            let req = parse_request msg in
            if req.verb = "quit" then begin
              Netsim.Waitset.remove ws c;
              Netsim.close c
            end
            else if
              Sched.now () -. arrival > t.cfg.shed_wait
              || Netsim.peer_closed c
            then begin
              (* Staleness shed: a request that aged past [shed_wait] in
                 the router queue (or whose client already hung up)
                 belongs to an attempt whose deadline a forward can no
                 longer meet — forwarding it is dead work that starves
                 fresh arrivals and collapses goodput under overload.
                 Answer busy at wire speed instead; the retry rides in
                 on a fresh attempt the shard can still meet. *)
              Metrics.inc t.c_shed;
              Netsim.send c Proto.server_error_busy
            end
            else handle_request t backends c msg req
        | None ->
            if Netsim.peer_closed c then begin
              Netsim.Waitset.remove ws c;
              Netsim.close c
            end);
        loop ()
  in
  loop ();
  Hashtbl.iter (fun _ c -> Netsim.close c) backends

(* One of a pool of acceptor fibers (one per router worker): a single
   acceptor charging one syscall per accept caps connection setup at
   ~0.3 conns/kcycle, and a fleet-scale client herd connecting at run
   start would queue behind it long enough for its first requests to age
   past the shed deadline before any worker ever saw the connection.
   [next] is shared so assignment stays round-robin across the pool. *)
let dispatcher t next () =
  let rec loop () =
    match Netsim.accept t.listener with
    | None -> ()
    | Some c ->
        Netsim.Waitset.add t.worker_sets.(!next mod t.cfg.router_workers) c;
        incr next;
        loop ()
  in
  loop ()

(* {2 Heartbeats} *)

(* Shard-side reporter: every hb_interval, consult the chaos sites, then
   (if the link is up) beat with the worst supervisor breaker state.
   Both fault kinds act here because the heartbeat loop is the shard's
   liveness surface — a crash also stops the kvcache server, a
   partition also blacks out the data path via [link_up]. *)
let reporter t s conn () =
  let rec loop () =
    if t.running && not s.s_crashed then begin
      Sched.sleep t.cfg.hb_interval;
      (match t.faults with
      | Some fi -> (
          (match Fi.decide fi ~site:"cluster.shard" with
          | Some Fi.Shard_crash -> crash_shard s
          | _ -> ());
          if not s.s_crashed then
            match Fi.decide fi ~site:"cluster.heartbeat" with
            | Some (Fi.Net_partition d) ->
                s.s_partitioned_until <- Sched.now () +. d
            | _ -> ())
      | None -> ());
      if t.running && link_up s then
        Netsim.send conn
          (Printf.sprintf "hb %d %s" s.s_idx
             (Supervisor.breaker_to_string (Supervisor.worst_breaker s.s_sup)));
      loop ()
    end
  in
  loop ();
  Netsim.close conn

let hb_accept t () =
  let rec loop () =
    match Netsim.accept t.hb_listener with
    | None -> ()
    | Some c ->
        Netsim.Waitset.add t.hb_set c;
        loop ()
  in
  loop ()

let hb_reader t () =
  let rec loop () =
    match Netsim.Waitset.wait t.hb_set with
    | None -> ()
    | Some c ->
        (match Netsim.try_recv c with
        | Some msg -> (
            match words msg with
            | [ "hb"; idx; st ] -> (
                match int_of_string_opt idx with
                | Some i when i >= 0 && i < Array.length t.shards ->
                    let s = t.shards.(i) in
                    s.s_hb_last <- Sched.now ();
                    s.s_hb_breaker <- Supervisor.breaker_of_string st;
                    Metrics.inc t.c_heartbeats
                | _ -> ())
            | _ -> ())
        | None ->
            if Netsim.peer_closed c then begin
              Netsim.Waitset.remove t.hb_set c;
              Netsim.close c
            end);
        loop ()
  in
  loop ()

(* Router-side health monitor: refresh every shard's derived health from
   the heartbeat record and run failover on quarantine or silence. *)
let monitor t () =
  let rec loop () =
    if t.running then begin
      Sched.sleep t.cfg.hb_interval;
      let now = Sched.now () in
      Array.iter
        (fun s ->
          s.s_health <-
            (if now -. s.s_hb_last > t.cfg.hb_timeout then "down"
             else Supervisor.breaker_to_string s.s_hb_breaker))
        t.shards;
      Array.iter
        (fun s ->
          if
            s.s_state = Serving
            && (s.s_health = "down" || s.s_hb_breaker = Supervisor.Quarantined)
          then do_failover t s)
        t.shards;
      loop ()
    end
  in
  loop ()

(* {2 Bring-up} *)

let health_states = [ "closed"; "backoff"; "half-open"; "quarantined"; "down" ]

let make_shard t_cfg sched ?faults net m i =
  let space = Space.create ~size_mib:t_cfg.space_mib () in
  let registry = Metrics.create () in
  let sd = Api.create ~metrics:registry ~virtual_keys:true space in
  let sup = Supervisor.attach ~policy:t_cfg.supervisor_policy sd in
  let kv_cfg = { t_cfg.kv with Kvcache.Server.port = t_cfg.base_port + i } in
  let sdrad =
    if kv_cfg.Kvcache.Server.variant = Kvcache.Server.Sdrad then Some sd
    else None
  in
  let server =
    Kvcache.Server.start sched space ?sdrad ~supervisor:sup ?faults net kv_cfg
  in
  {
    s_idx = i;
    s_port = t_cfg.base_port + i;
    s_sd = sd;
    s_sup = sup;
    s_server = server;
    s_state = Serving;
    s_health = "closed";
    s_hb_last = Sched.now ();
    s_hb_breaker = Supervisor.Closed;
    s_partitioned_until = 0.0;
    s_crashed = false;
    s_inflight = 0;
    s_oplog = Queue.create ();
    s_routed =
      Metrics.counter m
        ~help:"Requests forwarded to each shard"
        ~labels:[ ("shard", string_of_int i) ]
        "cluster_routed_total";
  }

let start sched ?faults ?metrics net (cfg : config) =
  if cfg.shards <= 0 then
    invalid_arg "Fleet.start: shards must be positive";
  if cfg.router_workers <= 0 then
    invalid_arg "Fleet.start: router_workers must be positive";
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let shards =
    Array.init cfg.shards (fun i -> make_shard cfg sched ?faults net m i)
  in
  let ring = Hash_ring.create ~vnodes:cfg.vnodes () in
  Array.iter (fun s -> Hash_ring.add ring s.s_idx) shards;
  let t =
    {
      cfg;
      net;
      faults;
      m;
      shards;
      ring;
      listener = Netsim.listen net ~port:cfg.router_port;
      hb_listener = Netsim.listen net ~port:cfg.hb_port;
      worker_sets =
        Array.init cfg.router_workers (fun _ -> Netsim.Waitset.create ());
      hb_set = Netsim.Waitset.create ();
      freeze = false;
      running = true;
      c_requests =
        Metrics.counter m ~help:"Requests accepted by the router tier"
          "cluster_requests_total";
      c_routed =
        Metrics.counter m ~help:"Requests forwarded to shards"
          "cluster_forwards_total";
      c_failovers =
        Metrics.counter m ~help:"Failover state machines run to completion"
          "cluster_failovers_total";
      c_reseeded =
        Metrics.counter m
          ~help:"Acked writes replayed into replicas during failover"
          "cluster_reseeded_writes_total";
      c_timeouts =
        Metrics.counter m
          ~help:"Forwards abandoned at the per-forward reply deadline"
          "cluster_forward_timeouts_total";
      c_shed =
        Metrics.counter m
          ~help:
            "Requests answered busy without forwarding because they aged \
             past the forward deadline in the router queue"
          "cluster_router_shed_total";
      c_heartbeats =
        Metrics.counter m ~help:"Shard heartbeats received by the router"
          "cluster_heartbeats_total";
      c_evicted =
        Metrics.counter m
          ~help:"Re-seed oplog entries evicted at capacity (durability gap)"
          "cluster_oplog_evicted_total";
    }
  in
  Array.iter
    (fun s ->
      List.iter
        (fun st ->
          Metrics.gauge_fn m
            ~help:"1 when the router derives this health state for the shard"
            ~labels:[ ("udi", string_of_int s.s_idx); ("state", st) ]
            "cluster_shard_health"
            (fun () -> if s.s_health = st then 1.0 else 0.0))
        health_states)
    t.shards;
  (* Fibers spawned below inherit this fiber's clock, which has just paid
     for the whole bring-up. Re-base every shard's heartbeat record on it:
     the records were stamped mid-bring-up, and the monitor's first tick
     must not read bring-up time as heartbeat silence. *)
  let t0 = Sched.now () in
  Array.iter (fun s -> s.s_hb_last <- t0) t.shards;
  let next = ref 0 in
  for d = 0 to cfg.router_workers - 1 do
    ignore
      (Sched.spawn sched
         ~name:(Printf.sprintf "cluster.dispatcher%d" d)
         (dispatcher t next))
  done;
  Array.iteri
    (fun i _ ->
      ignore
        (Sched.spawn sched
           ~name:(Printf.sprintf "cluster.worker-%d" i)
           (worker t i)))
    t.worker_sets;
  ignore (Sched.spawn sched ~name:"cluster.hb-accept" (hb_accept t));
  ignore (Sched.spawn sched ~name:"cluster.hb-reader" (hb_reader t));
  ignore (Sched.spawn sched ~name:"cluster.monitor" (monitor t));
  Array.iter
    (fun s ->
      let conn = Netsim.connect t.net ~port:cfg.hb_port in
      ignore
        (Sched.spawn sched
           ~name:(Printf.sprintf "cluster.hb-%d" s.s_idx)
           (reporter t s conn)))
    t.shards;
  t

let stop t =
  if t.running then begin
    t.running <- false;
    Netsim.close_listener t.listener;
    Netsim.close_listener t.hb_listener;
    Array.iter Netsim.Waitset.close t.worker_sets;
    Netsim.Waitset.close t.hb_set;
    Array.iter
      (fun s -> if not s.s_crashed then Kvcache.Server.stop s.s_server)
      t.shards
  end

let drain_shard t i = do_failover t t.shards.(i)

(* {2 Introspection} *)

let shard_count t = Array.length t.shards
let shard_server t i = t.shards.(i).s_server
let shard_sd t i = t.shards.(i).s_sd

let shard_state t i =
  match t.shards.(i).s_state with
  | Serving -> "serving"
  | Draining -> "draining"
  | Failed_over -> "failed-over"

let shard_health t i = t.shards.(i).s_health
let ring t = t.ring
let metrics t = t.m

let aggregate_metrics t =
  let dst = Metrics.create () in
  Metrics.merge_into ~dst t.m;
  Array.iter (fun s -> Metrics.merge_into ~dst (Api.metrics s.s_sd)) t.shards;
  dst

let failovers t = Metrics.counter_value t.c_failovers
let reseeded t = Metrics.counter_value t.c_reseeded
let routed t = Metrics.counter_value t.c_routed
let forward_timeouts t = Metrics.counter_value t.c_timeouts
let router_shed t = Metrics.counter_value t.c_shed
