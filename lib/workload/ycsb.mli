(** YCSB-style closed-loop load generator for the key-value cache (§V-A).

    Two phases, as in the paper's Figure 4 experiment: a {e load} phase
    that populates the store with [records] key-value pairs, then a
    {e run} phase issuing [operations] requests with a Zipfian key
    distribution and a configurable read/update mix (the paper uses 1 KiB
    values, 95/5 read/update, and measures both phases).

    Clients are closed-loop by default: each waits for the reply before
    issuing the next request, so with enough server threads the client
    fleet becomes the bottleneck — reproducing the paper's observation
    that SDRaD's overhead shrinks as worker threads are added. Setting
    [arrival_interval] switches the run phase to open-loop arrivals (see
    the field) for cluster-scale experiments with 10⁴+ clients. *)

type distribution =
  | Zipfian
  | Uniform
  | Latest  (** skewed towards the most recently inserted records *)

type config = {
  records : int;
  value_size : int;
  read_fraction : float;
  operations : int;
  clients : int;
  distribution : distribution;
  insert_new : bool;
      (** writes insert fresh records (workload D) instead of updating
          existing ones *)
  zipf_theta : float;
  port : int;
  seed : int;
  client_cycles : float;
      (** per-operation client-side work (YCSB bookkeeping, formatting) *)
  retry : Resilience.Retry.policy option;
      (** when set, run-phase clients issue requests through a
          {!Resilience.Retry} engine: per-attempt deadlines over virtual
          time, decorrelated-jitter backoff, and a retry budget. Writes
          carry an idempotency key ([id=...]) so a retried update that
          already committed is answered from the server's replay journal
          instead of applying twice. *)
  arrival_interval : float;
      (** [> 0.0] switches the run phase from closed-loop to {e open-loop}
          (partly-open) arrivals: operations fire on a fleet-wide
          pre-scheduled grid with this inter-arrival gap in cycles —
          offered load is [1/arrival_interval] ops per cycle regardless of
          how fast the server answers — and each operation's latency is
          measured from its {e scheduled} arrival, so queueing delay
          during a stall (e.g. a failover drain) lands in the tail instead
          of being absorbed by the client's think time (no coordinated
          omission). With tens of thousands of [clients], each client is
          one logical session of the open-loop fleet. [0.0] (default):
          the paper's closed-loop behaviour. *)
}

val default_config : config
(** 2000 records of 1 KiB, 10000 operations, 95/5 mix, 16 clients,
    Zipfian theta 0.99 — the paper's Figure 4 setup (workload B). *)

val workload_a : config
(** YCSB core workload A: 50/50 read/update, Zipfian. *)

val workload_b : config
(** YCSB core workload B: 95/5 read/update, Zipfian (the paper's). *)

val workload_c : config
(** YCSB core workload C: 100% read, Zipfian. *)

val workload_d : config
(** YCSB core workload D: 95/5 read/insert, reads skewed to the latest
    records. *)

val key_of : int -> string
(** Record [i]'s key, [user%08d]. *)

val value_for : base:string -> value_size:int -> int -> string
(** Record [i]'s [value_size]-byte value: the stamp [<%08d>] of [i], then
    the head of [base] (truncated stamp when [value_size] is smaller). *)

type results = {
  load_ops : int;
  load_cycles : float;
  run_ops : int;
  run_cycles : float;
  failures : int;  (** requests with no or error replies (dropped conns) *)
  retries : int;
      (** run-phase retry attempts across all clients (0 without a retry
          policy) *)
  run_latencies : float list;
      (** client-observed round-trip time of every run-phase operation, in
          cycles — for the p50/p95/p99 tail reporting YCSB does *)
}

val launch :
  Simkern.Sched.t ->
  Netsim.t ->
  config ->
  on_done:(unit -> unit) ->
  unit ->
  unit -> results
(** [launch sched net cfg ~on_done ()] spawns the orchestrator (which
    spawns, per phase, one thread [ycsb<i>] for each client with records
    to load or operations to run) and returns a thunk to call {e after}
    [Sched.run] completes. [on_done] runs inside the simulation once all
    clients finish — use it to stop the server so the simulation can
    drain. *)
