(** The Memcached-like server of §V-A: a dispatcher thread accepts
    connections and assigns them round-robin to worker threads, each
    running an event loop over a readiness waitset. Three build variants
    mirror the paper's Figure 4:

    - {!Baseline}: the plain server. A malicious request that corrupts
      memory crashes the whole process (every connection, the entire
      cache).
    - {!Tlsf_alloc}: identical, but connection-lifetime allocations go
      through the TLSF allocator instead of the glibc cost model —
      isolating the allocator-swap component of SDRaD's overhead.
    - {!Sdrad}: each client event is handled in a nested domain (Figure 3)
      with a deep-copied connection buffer; the database and hash table
      live in a dedicated data domain that nested domains may only read;
      updates are deferred to the normal domain exit and applied
      atomically under the shared lock. An abnormal exit discards the
      event's domain and closes only the offending connection.

    The CVE-2011-4971 analogue is armed with [vulnerable = true]: a [set]
    whose length field is negative drives an unchecked copy loop that
    overruns the item allocation. *)

type variant = Serve.variant = Baseline | Tlsf_alloc | Sdrad

type config = {
  variant : variant;
  workers : int;
  port : int;
  vulnerable : bool;
  db_udi : int;  (** data domain holding slabs + hash table *)
  proc_cycles : float;
      (** fixed per-request processing cost standing in for the event
          loop, state machine and libevent work our lean reimplementation
          does not perform; calibrated so baseline per-op cost matches
          Memcached's (~10 µs/op) *)
  image_bytes : int;
      (** resident process image (text, libraries, static data) touched at
          startup, so RSS comparisons have a realistic denominator *)
  max_db_bytes : int;
      (** Memcached's [-m]: cap on slab memory; the store evicts
          least-recently-used items when it is reached *)
  per_client_domains : bool;
      (** {!Sdrad} variant only: key the event domain by the connection's
          source address (udis from 100 up) instead of sharing udi 1, so a
          client's supervision history (rewind budget, quarantine)
          survives reconnects. Off by default. *)
  journal_cap : int;
      (** capacity of the replay journal (idempotency keys) backing
          at-most-once retries; lives in root-domain memory, so it
          survives nested-domain discards *)
  shed_queue_limit : int;
      (** shed (answer busy) when a worker's waitset backlog exceeds this
          many queued messages; 0 disables shedding *)
  race_detector : bool;
      (** {!Sdrad} variant only: attach an {!Analysis.Race} detector at
          start. Detection is host-side — it never perturbs the
          simulated run — and its findings/metrics are reachable via
          {!race_detector} and the shared registry. Off by default. *)
  gate_batch_limit : int;
      (** {!Sdrad} variant only: coalesce up to this many consecutive
          ready requests into one {!Core.Api.open_gate} batched-gate
          section per worker wakeup, eliding the per-request monitor
          call-gate WRPKRU writes (supervision, flight events and fault
          isolation are unchanged). 0 disables batching (the default). *)
}

val default_config : config

type t

val start :
  Simkern.Sched.t ->
  Vmem.Space.t ->
  ?sdrad:Sdrad.Api.t ->
  ?supervisor:Resilience.Supervisor.t ->
  ?faults:Resilience.Fault_inject.t ->
  Netsim.t ->
  config ->
  t
(** Spawn the dispatcher and worker threads. [sdrad] is required for the
    {!Sdrad} variant. [supervisor] (attached to the same [sdrad]) gates
    every event domain: quarantined udis are answered with
    [SERVER_ERROR busy] (status 0x85 on the binary protocol) instead of
    being served. [faults] arms the deterministic injection sites —
    ["kv.alloc"] (buffer-allocator failure) and ["kv.domain"]
    (memory corruption inside the event domain). *)

val stop : t -> unit
(** Close the listener and worker waitsets; threads drain and exit. *)

val join : t -> unit
(** Wait until all server threads have finished (call after {!stop}, from
    inside the simulation). *)

(** {1 Introspection} *)

val store : t -> Store.t
val crashed : t -> bool
val requests_served : t -> int
val rewinds : t -> int
val rewind_latencies : t -> float list
(** Cycles from SDRaD catching the fault to the offending connection
    being closed — the paper's abnormal-exit latency (§V-A). *)

val dropped_connections : t -> int
(** Connections lost to a rewind or closed by the process's crash. *)

val live_connections : t -> int
(** Connections the workers' waitsets watch: accepted and not yet
    closed by the server. A connection leaves when its worker closes it,
    whether the client hung up or the server dropped it, so a server
    whose clients have all gone holds none. *)

val busy_rejections : t -> int
(** Requests answered with [SERVER_ERROR busy] because the supervisor had
    the target domain quarantined. *)

val shed_count : t -> int
(** Requests answered busy by overload admission control — before any
    parsing or domain switch was spent on them. *)

val replay_hits : t -> int
(** Retried mutations answered from the replay journal instead of being
    applied a second time. *)

val journal : t -> Resilience.Journal.t
(** The server's replay journal (root-domain state). *)

val worker_busy_cycles : t -> float
(** Total CPU (non-waiting) cycles consumed by this server's threads —
    the resource cost a replicated deployment multiplies. *)

val worker_utilization : t -> float list
(** Busy fraction of each worker thread over the simulation span — shows
    whether the server was the bottleneck (the paper could not saturate 8
    threads). Meaningful once the simulation has finished. *)

val db_bytes : t -> int
val db_check : t -> string list
val evictions : t -> int

val race_detector : t -> Analysis.Race.t option
(** The race detector attached at start when [config.race_detector] was
    set ([None] otherwise). *)
