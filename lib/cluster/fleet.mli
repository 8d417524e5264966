(** Sharded multi-monitor kvcache cluster with rewind-aware failover
    (ROADMAP item 1: fleet-scale resilience).

    [start] brings up [shards] complete monitor instances — each with
    its {e own} {!Vmem.Space}, {!Sdrad.Api} monitor, supervisor and
    telemetry registry, i.e. N isolated processes on one simulated host
    fleet — plus a consistent-hash router in front of them, all over one
    {!Netsim}. Clients speak the ordinary kvcache text protocol to the
    router port; the router extracts the key, routes it on a
    {!Hash_ring}, and forwards the raw bytes to the owning shard —
    trailing [trace=] tokens included, so one causal trace id links
    client → router → shard and the router's {!Checkpoint.Flight.Route}
    events land in the shard's flight recorder under that id.

    {2 Health and failover}

    Shards export health derived from their supervisor's breaker states
    ([Closed]/[Backoff]/[Quarantined]) via heartbeats to the router.
    When a shard quarantines — or stops heartbeating because it crashed
    or the link partitioned — the router runs the failover state machine
    ([Serving → Draining → Failed_over]):

    + {b drain}: new traffic pauses, in-flight requests run to their
      reply (or forward deadline);
    + {b fail over}: the shard leaves the ring, so its key ranges fall
      to their clockwise successors;
    + {b re-seed}: every acknowledged keyed write the router logged for
      the shard is replayed — original idempotency key ([id=]) and
      trace token intact — to the key's new owner. The replica's replay
      journal (PR 4) records those rids, so a client retry of an
      already-acked write is answered from the journal instead of
      applying twice: no acked write is lost, none is doubly applied.

    Chaos kinds {!Resilience.Fault_inject.Shard_crash} and
    {!Net_partition} are consulted at the labelled sites
    ["cluster.shard"] and ["cluster.heartbeat"] in each shard's
    heartbeat loop, driving exactly this path under [@chaos].

    Writes without an [id=] idempotency key are journaled by neither
    the shards nor the router's re-seed log: they keep kvcache's plain
    best-effort semantics across a failover. *)

type config = {
  shards : int;
  vnodes : int;  (** ring points per shard *)
  base_port : int;  (** shard [i] listens on [base_port + i] *)
  router_port : int;  (** client-facing port (kvcache text protocol) *)
  hb_port : int;  (** router's heartbeat listener *)
  router_workers : int;
  hb_interval : float;  (** heartbeat period, cycles *)
  hb_timeout : float;
      (** declare a shard down after this long without a beat *)
  forward_timeout : float;
      (** per-forward reply deadline; on expiry the router answers
          [SERVER_ERROR busy] and abandons the backend connection *)
  shed_wait : float;
      (** deadline-aware admission control: a request that already waited
          this long in the router queue (or whose client hung up) is
          answered [SERVER_ERROR busy] at wire speed instead of being
          forwarded — under overload that dead work would starve fresh
          arrivals and collapse goodput. Set it just under the clients'
          per-attempt deadline; counted in [cluster_router_shed_total] *)
  drain_poll : float;  (** poll period of the drain/park loops *)
  oplog_cap : int;
      (** acked keyed writes the router retains per shard for re-seeding;
          evictions are counted in [cluster_oplog_evicted_total], never
          silent *)
  space_mib : int;  (** simulated memory per shard *)
  kv : Kvcache.Server.config;
      (** per-shard server template; [port] is overridden per shard *)
  supervisor_policy : Resilience.Supervisor.policy;
}

val default_config : config
(** 4 shards on ports 12000+, router on 11211 (where single-server
    clients already point), Sdrad-variant shards. *)

type t

val router_flight_udi : int
(** The udi under which the router records {!Checkpoint.Flight.Route} /
    [Failover] events in a shard's flight recorder (distinct from the
    kvcache server's own domains). *)

val start :
  Simkern.Sched.t ->
  ?faults:Resilience.Fault_inject.t ->
  ?metrics:Telemetry.Metrics.t ->
  Netsim.t ->
  config ->
  t
(** Bring up shards, router workers, heartbeat listener and the health
    monitor. Call from inside the simulation (like
    {!Kvcache.Server.start}). [faults] arms the ["cluster.shard"] and
    ["cluster.heartbeat"] chaos sites; [metrics] is the router's
    (cluster-level) registry — fresh and private when omitted.
    @raise Invalid_argument when [shards] is non-positive. *)

val stop : t -> unit
(** Stop the router tier and every still-running shard; threads drain
    and exit. *)

val drain_shard : t -> int -> unit
(** Force the failover state machine on one shard from inside the
    simulation — the same drain → ring-removal → journal re-seed path a
    quarantine heartbeat triggers, without waiting for the health
    monitor to notice. No-op unless the shard is [Serving]. *)

(** {1 Introspection} *)

val shard_count : t -> int
val shard_server : t -> int -> Kvcache.Server.t
val shard_sd : t -> int -> Sdrad.Api.t

val shard_state : t -> int -> string
(** Failover state machine position: ["serving"], ["draining"] or
    ["failed-over"]. *)

val shard_health : t -> int -> string
(** Last health the router derived for the shard: a breaker state
    (["closed"], ["backoff"], ["half-open"], ["quarantined"]) or
    ["down"] (missed heartbeats / crash). Also exported as the
    [cluster_shard_health{udi,state}] gauge family. *)

val ring : t -> Hash_ring.t
(** The live routing ring (failed-over shards have been removed). *)

val metrics : t -> Telemetry.Metrics.t
(** The router's cluster-level registry: [cluster_requests_total],
    [cluster_forwards_total], [cluster_routed_total{shard}],
    [cluster_failovers_total],
    [cluster_reseeded_writes_total], [cluster_forward_timeouts_total],
    [cluster_heartbeats_total], [cluster_oplog_evicted_total] and the
    [cluster_shard_health{udi,state}] family. *)

val aggregate_metrics : t -> Telemetry.Metrics.t
(** One fleet-wide view: a fresh registry holding the sum
    ({!Telemetry.Metrics.merge_into}) of the router registry and every
    shard registry — the [sdrad_cli metrics --aggregate] surface. *)

val failovers : t -> int
val reseeded : t -> int
(** Acked writes replayed into replicas across all failovers so far. *)

val routed : t -> int
(** Requests forwarded to shards (including re-routed ones). *)

val forward_timeouts : t -> int

val router_shed : t -> int
(** Requests answered busy without forwarding because they aged past the
    forward deadline in the router queue (or their client hung up):
    deadline-aware admission control, so an overloaded router spends its
    time on attempts whose clients are still listening instead of dead
    work. See [cluster_router_shed_total]. *)
