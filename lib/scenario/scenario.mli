(** Seeded simulated worlds: one builder for every kvcache, httpd and
    fleet scenario the CLI, the bench and the tests run.

    A scenario takes two calls. {!world} builds the simulated machine in
    a fixed order; the caller then does any special set-up on the record
    (netsim fault hooks, a rewind fault plan, tracers). One call per
    server kind ({!kvcache}, {!httpd}, {!fleet}) then starts the server
    inside the harness thread of {!Simkern.Sched.main}, runs a
    {!driver}, stops the server unless it crashed, and returns the
    server, the driver's result and the world.

    Construction order is part of each scenario's contract: simulated
    addresses, charges, RSS and tids follow what is created first and on
    which thread. So the builder fixes only what every caller shares,
    and callers keep the rest of their order — files an httpd serves are
    a function the harness thread evaluates just before
    {!Httpd.Server.start}, and a caller that builds them earlier passes
    [Fun.const fs]. Nothing is read eagerly: callers read registries,
    audit records and flight events from the monitor after the run. *)

type world = {
  sched : Simkern.Sched.t;
  space : Vmem.Space.t;
  net : Netsim.t;
  sd : Sdrad.Api.t option;  (** the monitor, when one was asked for *)
  sup : Resilience.Supervisor.t option;
}

val world :
  ?size_mib:int ->
  ?monitor:(Vmem.Space.t -> Sdrad.Api.t) ->
  ?supervisor:(Sdrad.Api.t -> Resilience.Supervisor.t) ->
  unit ->
  world
(** [Space.create ?size_mib ()], then [monitor space] (e.g.
    [Api.create ~virtual_keys:true]), then [supervisor sd] (e.g.
    [Supervisor.attach ~policy]), then [Netsim.create (Space.cost
    space)]. @raise Invalid_argument for a supervisor without a
    monitor. *)

val monitor_for : Serve.variant -> (Vmem.Space.t -> Sdrad.Api.t) option
(** [Api.create] for a server's SDRaD variant; the other variants run
    without a monitor. *)

(** What runs against the server once it is up. *)
type ('s, 'r) driver =
  | Ycsb : Workload.Ycsb.config -> ('s, Workload.Ycsb.results) driver
      (** YCSB clients; the server stops when the last one finishes. *)
  | Http_load :
      Workload.Http_load.config
      -> ('s, Workload.Http_load.results) driver
      (** ApacheBench-style connections, stopped the same way. *)
  | Script : ('s -> 'r) -> ('s, 'r) driver
      (** The caller's own client, run in the harness thread; the server
          stops when it returns. *)

type ('w, 's, 'r) run = { world : 'w; server : 's; result : 'r }

val kvcache :
  ?faults:Resilience.Fault_inject.t ->
  world ->
  Kvcache.Server.config ->
  (Kvcache.Server.t, 'r) driver ->
  (world, Kvcache.Server.t, 'r) run

val httpd :
  ?faults:Resilience.Fault_inject.t ->
  world ->
  files:(unit -> Httpd.Fs.t) ->
  Httpd.Server.config ->
  (Httpd.Server.t, 'r) driver ->
  (world, Httpd.Server.t, 'r) run

type fleet_world = { fleet_sched : Simkern.Sched.t; fleet_net : Netsim.t }
(** A fleet's shards build their own spaces and monitors. *)

val fleet_world : unit -> fleet_world
(** A fresh scheduler and [Netsim.create Cost.default]. *)

val fleet :
  ?faults:Resilience.Fault_inject.t ->
  fleet_world ->
  Cluster.Fleet.config ->
  (Cluster.Fleet.t, 'r) driver ->
  (fleet_world, Cluster.Fleet.t, 'r) run
