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
  router_port : int;
  router_workers : int;
  space_mib : int;
  kv : Kvcache.Server.config;
}

let default_config =
  {
    shards = 4;
    router_port = 11211;
    router_workers = 4;
    space_mib = 64;
    kv = { Kvcache.Server.default_config with variant = Kvcache.Server.Sdrad };
  }

(* Ring points per shard. *)
let vnodes = 64

(* Shard [i] listens on [base_port + i]; the router's heartbeat
   listener is on [hb_port]. *)
let base_port = 12000
let hb_port = 12999

(* Heartbeat period, and the silence after which a shard is down
   (cycles). *)
let hb_interval = 50_000.0
let hb_timeout = 250_000.0

(* Per-forward reply deadline; on expiry the router answers
   [SERVER_ERROR busy] and abandons the backend connection. It sits well
   under the clients' per-attempt timeout (400k cycles), so a router
   busy reply, not a client timeout, is what triggers the retry. *)
let forward_timeout = 200_000.0

(* Deadline-aware admission: a request that already waited this long in
   the router queue (or whose client hung up) is answered [SERVER_ERROR
   busy] at wire speed instead of being forwarded, since under overload
   that dead work would starve fresh arrivals and collapse goodput;
   counted in [cluster_router_shed_total]. 350k cycles sits under the
   400k per-attempt timeout of R5's and perfsuite's retrying clients;
   but a request forwarded at an age of 350k may still take
   [forward_timeout] more, 550k in all, past its client's deadline. *)
let shed_wait = 350_000.0

(* Poll period of the drain and park loops (cycles). *)
let drain_poll = 5_000.0

(* Acked keyed writes the router retains per shard for re-seeding;
   evictions are counted in [cluster_oplog_evicted_total], never
   silent. *)
let oplog_cap = 65536

let router_flight_udi = 9

type route_state = Serving | Draining | Failed_over

(* One acked keyed write, retained verbatim for re-seeding: replaying
   [o_req] (original [id=] and [trace=] tokens included) against the new
   owner lets its replay journal dedup client retries of the same rid. *)
type op_entry = { o_key : string; o_trace : int; o_req : string }

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
  s_beats : string array;  (* the heartbeat line of each breaker state *)
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

(* A breaker's heartbeat line in a shard's [s_beats]. *)
let beat_index = function
  | Supervisor.Closed -> 0
  | Backoff -> 1
  | Quarantined -> 2
  | Half_open -> 3

(* {2 The router's view of a request}

   The router reads a request with {!Kvcache.Proto.scan_wire}, in place
   in the buffer it was received into: the verb and first key of its
   line, and its [id=] and [trace=] tokens by the server's own rules.
   The line is scanned once per request, on arrival; everything the
   router decides reads the result. *)

(* A keyed verb with a key: routed by its key; anything else goes to any
   serving shard. *)
let keyed (r : Proto.req) =
  r.key_len > 0
  &&
  match r.verb with
  | Get | Set | Add | Replace | Delete | Incr | Decr -> true
  | _ -> false

(* A reply the client will treat as a definitive outcome (so the write
   must survive failover). Busy/error replies are retried or surfaced;
   they carry no durability promise. *)
let acked_buf b = Proto.reply_ok (Netsim.Buf.view b) (Netsim.Buf.length b)

(* {2 Shard-side helpers} *)

(* The clock is read from the caller's cell: [Sched.now] would box it,
   once per routed request. *)
let link_up s =
  (not s.s_crashed) && (Sched.clock_cell ()).clock >= s.s_partitioned_until

let crash_shard s =
  if not s.s_crashed then begin
    s.s_crashed <- true;
    Kvcache.Server.stop s.s_server
  end

(* {2 Oplog} *)

let oplog_push t s e =
  if Queue.length s.s_oplog >= oplog_cap then begin
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
  let reply = Netsim.Buf.create () and deadline = Float.Array.make 1 0.0 in
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
          (Float.max drain_poll
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
        Float.Array.set deadline 0 (Sched.now () +. forward_timeout);
        if not (Netsim.recv_buf_deadline c reply deadline 0) then begin
          Metrics.inc t.c_timeouts;
          Netsim.close c;
          Hashtbl.remove conns tgt.s_idx;
          replay e (tries - 1)
        end
        else if acked_buf reply then begin
          Metrics.inc t.c_reseeded;
          oplog_push t tgt e;
          Api.flight_event tgt.s_sd ~udi:router_flight_udi ~trace:e.o_trace
            ~arg:sick.s_idx Flight.Failover
        end
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
    Sched.sleep drain_poll
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

(* Admission: the index of the shard that serves [r], parking while a
   failover is in progress or the owning shard is mid-drain; -1 only
   when the router stops or the ring is empty. *)
let rec pick t (r : Proto.req) =
  if not t.running then -1
  else if t.freeze then begin
    Sched.sleep drain_poll;
    pick t r
  end
  else if Hash_ring.size t.ring = 0 then -1
  else
    let idx =
      if keyed r then Hash_ring.route_sub t.ring r.src r.key r.key_len
      else List.hd (Hash_ring.members t.ring)
    in
    if t.shards.(idx).s_state <> Serving then begin
      Sched.sleep drain_poll;
      pick t r
    end
    else idx

(* The worker's open connection to shard [s], reconnecting a closed
   one. *)
let backend t backends s =
  match backends.(s.s_idx) with
  | Some bc when Netsim.is_open bc && not (Netsim.peer_closed bc) -> bc
  | stale ->
      Option.iter Netsim.close stale;
      let bc = Netsim.connect t.net ~port:s.s_port in
      backends.(s.s_idx) <- Some bc;
      bc

(* Forward the request in [msg], scanned into [r], to its shard and relay
   the reply, which is received into [reply]; the forward's deadline is
   staged in slot 0 of [deadline], where the timed receive reads it. *)
let handle_request t backends c msg reply r clock deadline =
  Metrics.inc t.c_requests;
  match pick t r with
  | -1 -> Netsim.send c Proto.server_error_busy
  | idx ->
      let s = t.shards.(idx) in
      let trace = r.Proto.trace in
      (* The hop lands in the shard's flight recorder under the
         client's trace id: sdrad_cli incident sees router → shard. *)
      Api.record_flight s.s_sd ~udi:router_flight_udi ~trace ~arg:s.s_idx
        Flight.Route;
      Metrics.inc t.c_routed;
      Metrics.inc s.s_routed;
      s.s_inflight <- s.s_inflight + 1;
      let replied =
        if not (link_up s) then begin
          (* Partitioned/crashed link: the forward vanishes; model the
             client-visible outcome — a full deadline wait. *)
          Sched.sleep forward_timeout;
          false
        end
        else begin
          let bc = backend t backends s in
          Netsim.send_buf bc msg;
          Float.Array.set deadline 0 (clock.Sched.clock +. forward_timeout);
          if Netsim.recv_buf_deadline bc reply deadline 0 then true
          else begin
            (* Reply may still arrive later; abandon the connection so
               it cannot be mis-paired with the next forward. *)
            Netsim.close bc;
            backends.(s.s_idx) <- None;
            false
          end
        end
      in
      s.s_inflight <- s.s_inflight - 1;
      if replied then begin
        if r.rid_len > 0 && keyed r && acked_buf reply then
          (* The oplog keeps its own copy of the request. *)
          oplog_push t s
            {
              o_key = Proto.key_string r;
              o_trace = trace;
              o_req = Netsim.Buf.contents msg;
            };
        Netsim.send_buf c reply
      end
      else begin
        Metrics.inc t.c_timeouts;
        Netsim.send c Proto.server_error_busy
      end

(* Each router worker receives requests into one buffer, scans them into
   one request record and receives shard replies into another buffer;
   its backend connections are indexed by shard, and its forwards'
   deadlines go in one slot of its own. *)
let worker t widx () =
  let ws = t.worker_sets.(widx) in
  let backends = Array.make (Array.length t.shards) None in
  let msg = Netsim.Buf.create () and reply = Netsim.Buf.create () in
  let r = Proto.create () in
  (* The clock is read from the thread's cell: [Sched.now] would box
     it. *)
  let clock = Sched.clock_cell () in
  let deadline = Float.Array.make 1 0.0 in
  let rec loop () =
    let c = Netsim.Waitset.wait ws in
    if c != Netsim.no_conn then begin
      (if Netsim.recv_buf c msg then begin
         Proto.scan_wire r (Netsim.Buf.view msg) (Netsim.Buf.length msg);
         if r.verb = Quit then begin
           Netsim.Waitset.remove ws c;
           Netsim.close c
         end
         else if Netsim.Buf.older_than msg shed_wait || Netsim.peer_closed c
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
         else handle_request t backends c msg reply r clock deadline
       end
       else if Netsim.peer_closed c then begin
         Netsim.Waitset.remove ws c;
         Netsim.close c
       end);
      loop ()
    end
  in
  loop ();
  Array.iter (Option.iter Netsim.close) backends

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
   partition also blacks out the data path via [link_up]. A beat is one
   of the shard's four lines, made at bring-up and sent by reference. *)
let reporter t s conn () =
  let rec loop () =
    if t.running && not s.s_crashed then begin
      Sched.sleep hb_interval;
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
          s.s_beats.(beat_index (Supervisor.worst_breaker s.s_sup));
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

(* [s.[a, a + String.length lit)] is [lit] and ends [s]. *)
let rec ends_with_at s a lit i =
  i = String.length lit
  || String.unsafe_get s (a + i) = String.unsafe_get lit i
     && ends_with_at s a lit (i + 1)

let is_word s n a lit = n - a = String.length lit && ends_with_at s a lit 0

(* The state word of a beat from [a] to [n], read in place as
   [Supervisor.breaker_of_string] reads it. *)
let breaker_at msg n a =
  let is b = is_word msg n a (Supervisor.breaker_to_string b) in
  if is Backoff then Supervisor.Backoff
  else if is Quarantined then Supervisor.Quarantined
  else if is Half_open then Supervisor.Half_open
  else Supervisor.Closed

(* The shard index written in [msg.[i, stop)] after [v], or -1 when it
   is not plain digits. *)
let rec beat_shard msg i stop v =
  if i = stop then v
  else
    match String.unsafe_get msg i with
    | '0' .. '9' as c ->
        beat_shard msg (i + 1) stop ((10 * v) + Char.code c - 48)
    | _ -> -1

let hb_reader t () =
  let beat = Netsim.Buf.create () in
  let rec loop () =
    let c = Netsim.Waitset.wait t.hb_set in
    if c != Netsim.no_conn then begin
      (* [c] is ready, so the receive does not block. *)
      if Netsim.recv_buf c beat then begin
        (* Heartbeats are this module's own single-spaced lines,
           [hb <shard> <state>], scanned in place. *)
        let msg = Netsim.Buf.view beat and n = Netsim.Buf.length beat in
        let sp =
          if n > 3 && ends_with_at msg 0 "hb " 0 then
            Serve.index_from msg 3 n ' '
          else -1
        in
        (* At most six digits: an index that cannot overflow. *)
        let i = if sp > 3 && sp <= 9 then beat_shard msg 3 sp 0 else -1 in
        if
          i >= 0
          && i < Array.length t.shards
          && Serve.index_from msg (sp + 1) n ' ' < 0
        then begin
          let s = t.shards.(i) in
          s.s_hb_last <- Sched.now ();
          s.s_hb_breaker <- breaker_at msg n (sp + 1);
          Metrics.inc t.c_heartbeats
        end
      end
      else if Netsim.peer_closed c then begin
        Netsim.Waitset.remove t.hb_set c;
        Netsim.close c
      end;
      loop ()
    end
  in
  loop ()

(* Router-side health monitor: refresh every shard's derived health from
   the heartbeat record and run failover on quarantine or silence. *)
let monitor t () =
  let rec loop () =
    if t.running then begin
      Sched.sleep hb_interval;
      let now = Sched.now () in
      Array.iter
        (fun s ->
          s.s_health <-
            (if now -. s.s_hb_last > hb_timeout then "down"
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

(* A shard's heartbeat lines, in [beat_index] order. *)
let beat_states = Supervisor.[| Closed; Backoff; Quarantined; Half_open |]

let make_shard t_cfg sched ?faults net m i =
  let space = Space.create ~size_mib:t_cfg.space_mib () in
  let registry = Metrics.create () in
  let sd = Api.create ~metrics:registry space in
  let sup = Supervisor.attach sd in
  let kv_cfg = { t_cfg.kv with Kvcache.Server.port = base_port + i } in
  let sdrad =
    if kv_cfg.Kvcache.Server.variant = Kvcache.Server.Sdrad then Some sd
    else None
  in
  let server =
    Kvcache.Server.start sched space ?sdrad ~supervisor:sup ?faults net kv_cfg
  in
  {
    s_idx = i;
    s_port = base_port + i;
    s_sd = sd;
    s_sup = sup;
    s_server = server;
    s_state = Serving;
    s_health = "closed";
    s_hb_last = Sched.now ();
    s_hb_breaker = Supervisor.Closed;
    s_beats =
      Array.map
        (fun b ->
          Printf.sprintf "hb %d %s" i (Supervisor.breaker_to_string b))
        beat_states;
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
  let ring = Hash_ring.create ~vnodes () in
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
      hb_listener = Netsim.listen net ~port:hb_port;
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
      let conn = Netsim.connect t.net ~port:hb_port in
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
