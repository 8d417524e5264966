(** The serving core shared by {!Kvcache.Server} and {!Httpd.Server}.

    Both servers retrofit the paper's request pattern (§V-A, §V-B): admit
    a request, copy it into a nested domain, run it there, and on a fault
    rewind and close only that connection. The core owns the variant
    allocators, each worker's read buffer, start-up, admission (shed,
    trace, the supervised domain run and what its result asks of the
    connection), rewind bookkeeping, the journal bracket, and the worker
    process: the acceptor, the event loops, death and the master that
    restarts (§V's rewind-versus-restart comparison). Each server keeps
    its protocol, application state, replies and metric names, which it
    registers with literal names the [metric-naming] lint can check. A
    connection holds no buffer: a worker handles one request at a time,
    so it reads each into its own. *)

type variant = Baseline | Tlsf_alloc | Sdrad

val conn_buf_size : int
(** Bytes of each worker's read buffer. *)

type counters = {
  served : Telemetry.Metrics.counter;  (** requests past the shed test *)
  rewinds : Telemetry.Metrics.counter;
  busy : Telemetry.Metrics.counter;  (** answered busy while quarantined *)
  shed : Telemetry.Metrics.counter;
  dropped : Telemetry.Metrics.counter;  (** lost to a rewind or a death *)
  rewind_cycles : Telemetry.Metrics.histogram;
}

(** What a worker's death takes down. *)
type process =
  | One_process
      (** memcached's threads, spawned after [<threads>-dispatch]: a death
          closes the listener and every connection, for good. *)
  | Per_worker of {
      restart_cost : float;
      max_restarts : int;
      rewind_limit : int option;  (** §VI: rewinds before a re-exec *)
    }
      (** nginx's processes, spawned before [<threads>-master] and
          [<threads>-accept]: a death closes the worker's connections,
          and the master respawns it after [restart_cost]. *)

type worker
(** [<threads>-worker<idx>], with its connections, its read buffer and
    its rewinds since it started. *)

val idx : worker -> int

type t

val boot :
  name:string -> variant -> ?sdrad:Sdrad.Api.t -> Vmem.Space.t ->
  image_bytes:int -> unit
(** A server's first start-up step: reject {!Sdrad} without [sdrad], then
    map and touch the process image so RSS has a realistic
    denominator. *)

val create :
  Vmem.Space.t ->
  variant ->
  ?sdrad:Sdrad.Api.t ->
  ?supervisor:Resilience.Supervisor.t ->
  ?faults:Resilience.Fault_inject.t ->
  Netsim.t ->
  port:int ->
  workers:int ->
  process ->
  name:string ->
  alloc_site:string ->
  malloc_region:(int -> int) ->
  journal_cap:int ->
  proc_cycles:float ->
  shed_queue_limit:int ->
  gate_batch_limit:int ->
  race_detector:bool ->
  counters:(Telemetry.Metrics.t -> counters) ->
  unit ->
  t
(** The rest of start-up, after the server's data domains exist: the
    buffer allocator (glibc model for {!Baseline}, else a TLSF heap
    [name ^ "-bufs"] growing through [malloc_region], armed at
    [alloc_site]), the registry (the monitor's, else a fresh one), the
    journal [name], the [counters], the race detector and the journal
    probe; the listener on [port] and [workers] unspawned workers. *)

(** {1 Read buffers} *)

val alloc : t -> int -> int
val free : t -> int -> unit

val buffer : worker -> int
(** The worker's read buffer, [conn_buf_size] bytes from the server's
    allocator, taken on the spawning thread before [serve] makes the
    worker's handler (which may keep it) and freed when it dies. *)

val copy_in : t -> worker -> Netsim.Buf.t -> int
(** Copy a received request into the worker's read buffer, truncated to
    [conn_buf_size - 2] bytes, with {!Vmem.Space.store_from}: charged as
    storing the request string was. Returns the bytes copied. *)

val close : worker -> Netsim.conn -> unit
(** Leave the worker's waitset and close. *)

val drop : t -> worker -> Netsim.conn -> unit
(** {!close} a connection lost to a fault, counted in [dropped]. *)

(** {1 Wire text}

    Both servers and their clients scan protocol text where it lies and
    write numbers straight into the buffer that goes on the wire, with
    no [Printf] and no intermediate string. Positions are ints, so a
    scan allocates nothing. *)

val index_from : string -> int -> int -> char -> int
(** [index_from s i stop c]: the first position of [c] in [i, stop), or
    -1. A message in a {!Netsim.Buf.t} is scanned up to its length. *)

val skip_blanks : string -> int -> int -> int
(** [skip_blanks s i stop]: the first position in [i, stop) that is not
    a blank — one of the bytes [String.trim] drops — or [stop]. *)

val trim_blanks : string -> int -> int -> int
(** [trim_blanks s start stop]: [stop] less the blanks that end
    [s.[start, stop)]. *)

val dec_width : int -> int
(** Bytes of [n] rendered by [%d]. *)

val put_dec : bytes -> stop:int -> int -> unit
(** [put_dec b ~stop n] writes [n] as [%d] into [b], ending just before
    [stop]: it fills [stop - dec_width n, stop). *)

(** {1 Admission} *)

val shed : t -> Netsim.conn -> trace:int -> udi:int -> string -> unit
(** Count a shed request, record one [Shed] flight event for [udi] under
    [trace], and send the busy reply. *)

val run :
  t ->
  worker ->
  Sdrad.Api.t ->
  Netsim.conn ->
  trace:int ->
  udi:Sdrad.Types.udi ->
  busy:string ->
  on_rewind:(Sdrad.Types.fault -> ([> `Busy | `Rewound ] as 'a)) ->
  (unit -> 'a) ->
  'a
(** Admit a request: install its trace until it is handled, record
    [Admit], and run its domain (default options, 64 KiB heap),
    supervised when there is a supervisor. [`Busy] (a quarantined udi)
    is answered [busy]; [`Rewound], from [on_rewind], {!drop}s the
    connection. It allocates nothing when [on_rewind] and [body] are
    built once per worker. *)

val rewound : t -> worker -> Sdrad.Types.fault -> unit
(** Count a rewind, also as the worker's, and record its latency in
    cycles since the fault: call it where the server's latency ends. *)

val replay_or :
  t -> string -> int -> int -> ('a -> 'b -> string) -> 'a -> 'b -> string
(** [replay_or t s off len compute a b]: the at-most-once bracket around
    a mutation keyed by the request id [s.[off, off + len)]. A journaled
    id is answered from the journal with one [Replay] flight event;
    otherwise [compute a b]'s reply is journaled under a copy of the id.
    An empty id is none. A top-level [compute] costs no closure. *)

(** {1 The worker process} *)

val start :
  t ->
  Simkern.Sched.t ->
  threads:string ->
  shed:(worker -> Netsim.conn -> Netsim.Buf.t -> unit) ->
  serve:(worker -> Netsim.conn -> Netsim.Buf.t -> unit) ->
  unit
(** Spawn the {!process}'s threads. [serve w] makes a worker's request
    handler on the spawning thread before each (re)spawn of [w]. A
    worker receives each request into one {!Netsim.Buf.t} the handlers
    must not keep, charges a syscall, then [shed]s it when the backlog
    exceeds [shed_queue_limit] (if not 0), or else charges
    [proc_cycles], counts and serves it. Under {!Sdrad} with a gate
    batch limit, ready requests share one gate. An exception out of a
    handler is the process's death. The acceptor refuses a connection
    no live worker can take. *)

val stop : t -> unit
(** Close the listener and the waitsets and stop the master: the
    threads drain and exit. *)

(** {1 Introspection} *)

val metrics : t -> Telemetry.Metrics.t
val journal : t -> Resilience.Journal.t
val race_detector : t -> Analysis.Race.t option
val requests_served : t -> int
val rewinds : t -> int
val rewind_latencies : t -> float list
val busy_rejections : t -> int
val shed_count : t -> int
val replay_hits : t -> int
val dropped_connections : t -> int

val live_connections : t -> int
val worker_restarts : t -> int
val proactive_restarts : t -> int
val restart_latencies : t -> float list

val alive : t -> bool
(** Whether a worker is alive: not dead, nor awaiting its respawn. Once
    [One_process]'s process has crashed, none is. *)

val threads : t -> Simkern.Sched.tid list
(** The acceptor's thread, then each worker's current one. *)
