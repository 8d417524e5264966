(** The serving core shared by {!Kvcache.Server} and {!Httpd.Server}.

    Both servers retrofit the paper's request pattern (§V-A, §V-B): admit
    a request, copy it into a nested domain, run it there, and on a fault
    rewind and close only that connection. The core owns the variant
    allocators, the per-connection buffer table, start-up, admission
    (shed, trace and [Admit], the supervised domain run, busy), rewind
    bookkeeping, the journal replay bracket and the worker event loop.
    Each server keeps its protocol, application state, threads and metric
    names: it registers its own series, with literal names the
    [metric-naming] lint can check, and hands them to {!create}. *)

type variant = Baseline | Tlsf_alloc | Sdrad

val conn_buf_size : int
(** Bytes of each connection's buffer. *)

val domain_opts : Sdrad.Types.options
(** Options of every request domain: the defaults with a 64 KiB heap. *)

type counters = {
  served : Telemetry.Metrics.counter;  (** requests past the shed test *)
  rewinds : Telemetry.Metrics.counter;
  busy : Telemetry.Metrics.counter;  (** answered busy while quarantined *)
  shed : Telemetry.Metrics.counter;
  rewind_cycles : Telemetry.Metrics.histogram;
}

type buf = { addr : int; mutable len : int }
(** A connection's buffer and the length of the last request copied in. *)

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
    probe. *)

(** {1 Connection buffers} *)

val alloc : t -> int -> int
val free : t -> int -> unit

val accept : t -> Netsim.conn -> unit
(** Allocate the connection's buffer. *)

val copy_in : t -> Netsim.conn -> string -> buf
(** Copy a request into its connection's buffer, truncated to
    [conn_buf_size - 2] bytes. *)

val forget : t -> Netsim.conn -> unit
(** Free the connection's buffer; no-op when already forgotten. *)

val drop : t -> Netsim.Waitset.ws -> Netsim.conn -> unit
(** Leave the waitset, close and {!forget}. *)

(** {1 Admission} *)

val shed : t -> Netsim.conn -> trace:int64 -> udi:int -> string -> unit
(** Count a shed request, record one [Shed] flight event for [udi] under
    [trace], and send the busy reply. *)

val run :
  t ->
  Sdrad.Api.t ->
  trace:int64 ->
  udi:Sdrad.Types.udi ->
  on_rewind:(Sdrad.Types.fault -> ([> `Busy ] as 'a)) ->
  (unit -> 'a) ->
  'a
(** Admit a request: install its trace on this thread, record [Admit],
    and run its domain with {!domain_opts}, through the supervisor when
    there is one (a quarantined udi yields [`Busy]). The trace stays
    installed until {!clear_trace}. *)

val clear_trace : t -> unit

val busy : t -> Netsim.conn -> string -> unit
(** Count a busy rejection and send its reply. *)

val rewound : t -> Sdrad.Types.fault -> unit
(** Count a rewind and record its latency, in cycles since the fault. *)

val replay_or : t -> string option -> (unit -> string) -> string
(** At-most-once bracket around a mutation keyed by a request id: a
    journaled id is answered from the journal with one [Replay] flight
    event; otherwise [compute] runs and its reply is journaled. *)

(** {1 The worker event loop} *)

val worker :
  t ->
  ?after:(unit -> unit) ->
  Netsim.Waitset.ws ->
  drop:(Netsim.conn -> unit) ->
  shed:(Netsim.conn -> string -> unit) ->
  handle:(Netsim.conn -> string -> unit) ->
  unit
(** Serve the waitset until it closes. Each request charges a syscall,
    then is [shed] when the waitset backlog exceeds [shed_queue_limit]
    (never when it is 0), or else is charged [proc_cycles], counted and
    [handle]d; a peer close calls [drop]. Under {!Sdrad} with a gate
    batch limit, ready requests share one batched gate. [after] runs
    after every wake-up. *)

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
