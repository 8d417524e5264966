(** Observability over virtual time: a typed metrics registry with
    Prometheus-style text exposition, and a span tracer whose timestamps
    come from the {!Simkern.Sched} virtual clock.

    Both halves are deliberately allocation-light and deterministic: two
    runs of the same simulation produce byte-identical expositions and
    trace dumps, so telemetry output is a valid golden-test surface.

    {2 Metric naming scheme}

    Series follow the Prometheus convention
    [<subsystem>_<what>[_<unit>][_total]]: [sdrad_rewinds_total],
    [vmem_pkru_writes_total], [kvcache_rewind_cycles_bucket{le="256"}].
    Subsystem prefixes in this repo: [sdrad_] (reference monitor),
    [vmem_] (simulated MPK hardware), [tlsf_] (allocators),
    [supervisor_], [kvcache_], [httpd_], [client_] (retry/workload
    clients), [sanitizer_] (heap-poison sanitizer), [trace_] (the span
    tracer itself), [cluster_] (the sharded multi-monitor tier),
    [race_] (the dynamic race/atomicity analyzer).
    Counters end in [_total]; histogram base names carry
    at most a unit suffix — exposition appends [_bucket]/[_sum]/[_count].
    The [metric-naming] repo-lint rule enforces this scheme at
    registration call sites. *)

(** Typed counters, gauges and log-bucketed histograms.

    Instruments are registered in a {!Metrics.t} registry under a name
    plus an optional label set; registration is get-or-create, so two
    subsystems asking for the same series share one instrument.
    Registering the same name with a different instrument kind raises
    [Invalid_argument]. *)
module Metrics : sig
  type t
  (** A registry: one scrape surface. *)

  type counter
  type gauge
  type histogram

  val create : unit -> t

  (** {1 Counters — monotonically increasing integers} *)

  val counter :
    t -> ?help:string -> ?labels:(string * string) list -> string -> counter

  val inc : counter -> unit
  val add : counter -> int -> unit
  (** [add c n] with negative [n] raises [Invalid_argument]: counters only
      go up. *)

  val counter_value : counter -> int

  val counter_fn :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    (unit -> int) ->
    unit
  (** Counter whose value is read from a callback at exposition time —
      for sources that already keep their own monotonic count (e.g.
      {!Vmem.Space.fault_count}). *)

  (** {1 Gauges — floats that can go either way} *)

  val gauge :
    t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

  val set : gauge -> float -> unit
  val gauge_value : gauge -> float

  val gauge_fn :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    (unit -> float) ->
    unit
  (** Gauge sampled from a callback at exposition time. *)

  (** {1 Histograms — log-bucketed samples} *)

  val histogram :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    ?buckets:float array ->
    string ->
    histogram
  (** [buckets] are ascending upper bounds; an implicit [+Inf] bucket is
      always appended. *)

  val observe : histogram -> float -> unit

  val observe_exemplar : histogram -> float -> exemplar:string -> unit
  (** Like {!observe}, but also attach [exemplar] (e.g. a trace id) to
      the bucket the value lands in, replacing that bucket's previous
      exemplar. Exposition renders it OpenMetrics-style
      ([# {trace="<id>"} <value>]) after the bucket line. An empty
      [exemplar] attaches nothing. *)

  val hist_count : histogram -> int
  val hist_sum : histogram -> float

  val hist_buckets : histogram -> (float * int) list
  (** Raw (non-cumulative) per-bucket counts paired with their finite
      upper bounds, in ascending order. Samples above the last bound are
      not listed: the implicit [+Inf] population is [hist_count] minus
      the sum of these counts. The input to {!Stats.quantile_of_buckets}. *)

  val hist_exemplars : histogram -> (float * float * string) list
  (** [(upper bound, observed value, exemplar id)] for every bucket that
      holds an exemplar, ascending; the implicit [+Inf] bucket reports
      [infinity] as its bound. *)

  (** {1 Exposition} *)

  val series_count : t -> int
  (** Number of distinct (name, labels) series registered. A histogram
      counts as one series. *)

  val sample : t -> ?labels:(string * string) list -> string -> float option
  (** Current value of one counter or gauge series (callback-backed ones
      are invoked); [None] for unknown names, unregistered label sets, and
      histograms. The point-read primitive for operator surfaces. *)

  val merge_into : dst:t -> t -> unit
  (** Fold every series of the source registry into [dst], summing with
      whatever the same (name, labels) series already holds there:
      counters add their current value (callback-backed series are
      sampled and materialize as plain instruments in [dst]), gauges
      sum, histograms merge bucket-by-bucket ([dst]'s exemplar wins).
      Merging each shard's registry of a cluster into one fresh registry
      yields a single fleet-wide scrape surface; {!expose} of the result
      is deterministic. Histograms whose bucket bounds disagree with the
      series already in [dst] are skipped.
      @raise Invalid_argument when a family name is registered with a
      different instrument kind in [dst]. *)

  val expose : t -> string
  (** Prometheus text exposition format, version 0.0.4: [# HELP] /
      [# TYPE] headers followed by one line per sample. Families are
      sorted by name and series by label set, so the output is
      deterministic. *)
end

(** Deterministic causal trace context.

    A context is a 64-bit trace id (derived by hashing a stable
    operation name, e.g. ["cli-3"], with FNV-1a — never from randomness
    or wall clock, so identical runs mint identical ids) plus a small
    span ordinal (the retry attempt number). It is carried on every
    request: httpd as a [traceparent]-style header, kvcache text as a
    trailing [trace=<16 hex>] token, binproto in the reserved header
    bytes 16–23 — and links a client op to every server-side
    consequence: retries, journal replays, domain switches, flight-
    recorder events and rewind audit records. *)
module Context : sig
  type t

  val root : string -> t
  (** Mint a context for one logical operation. The trace id is the
      FNV-1a hash of the argument, masked to 62 bits so it round-trips
      losslessly through the simulation's OCaml-int-valued store64
      words (hash 0 remapped to 1 — the zero id is the binary
      protocol's "no context" encoding). *)

  val child : t -> int -> t
  (** Same trace id, span ordinal [n] — one per retry attempt. *)

  val trace : t -> int64
  val span : t -> int

  val of_trace : ?span:int -> int64 -> t option
  (** Rebuild a context from a wire-decoded 64-bit id; [None] for the
      zero "no context" id. *)

  val trace_hex : t -> string
  (** 16 lowercase hex chars — the canonical rendering everywhere
      (wire tokens, span args, flight-recorder dumps, exemplars). *)

  val of_trace_hex : string -> t option
  (** The inverse of {!trace_hex}: 16 lowercase hex chars, the id masked
      to 62 bits; [None] for anything else or the zero id. *)

  val trace_id_at : string -> int -> int
  (** [trace_id_at s off] decodes the 16 chars of [s] from [off] as
      {!of_trace_hex} does, without allocating: the 62-bit id, or 0 when
      they are not 16 lowercase hex chars (or [s] ends first) or the id
      is 0 — "no context". *)

  val to_traceparent : t -> string
  (** [00-<trace 16 hex>-<span 8 hex>-01], the httpd header value. *)

  val of_traceparent : string -> t option
end

(** Nested spans over virtual time, recorded into a bounded ring.

    When disabled (the default) {!Trace.with_span} costs one branch and
    runs the body directly — instrumentation can stay in hot paths. The
    branch is all it saves, though: a caller's arguments are evaluated
    before the call. On a per-request or per-switch path, do not build
    [~args] eagerly (a list, a [string_of_int], a [Printf.sprintf]) —
    pass [?args] only under {!Trace.enabled}, or branch on it and call
    the body directly when tracing is off, which also saves the body's
    closure.
    When enabled, each span captures the virtual-clock interval of its
    body, its thread, and its nesting depth. The ring keeps the most
    recent [capacity] spans; older ones are dropped (counted). *)
module Trace : sig
  type t

  type span = {
    s_name : string;
    s_tid : int;  (** simulated thread, -1 outside a thread *)
    s_start : float;  (** virtual cycles *)
    s_dur : float;  (** virtual cycles *)
    s_depth : int;  (** nesting depth within the thread, 0 = top level *)
    s_args : (string * string) list;
  }

  val create : ?capacity:int -> unit -> t
  (** Ring capacity defaults to 4096 spans. *)

  val set_enabled : t -> bool -> unit
  val enabled : t -> bool

  val with_span :
    t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** Run the body inside a span. The span is recorded when the body
      returns {e or raises} — a rewind unwinding through a span still
      leaves its trace, with [("aborted", "true")] appended to its args
      (rendered as the JSON boolean [{"aborted":true}] in Chrome
      exports) so it is distinguishable from a clean return. No-op
      (identity) while disabled. *)

  val instant : t -> ?args:(string * string) list -> string -> unit
  (** Record a zero-duration marker event (e.g. a breaker transition). *)

  val spans : t -> span list
  (** Retained spans, in completion order (oldest first). *)

  val recorded : t -> int
  (** Total spans ever recorded, including dropped ones. *)

  val aborted_spans : t -> int
  (** Spans that ended by an exception unwinding (the
      [trace_aborted_spans_total] source). *)

  val dropped : t -> int
  val clear : t -> unit

  val aggregate : t -> (string * (int * float)) list
  (** Per-label [(count, total cycles)] over the retained spans, sorted
      by label — the input to the switch-cost anatomy report. *)

  val to_chrome_json : ?cycles_per_us:float -> t -> string
  (** Chrome trace-event JSON (one ["X"] complete event per span, one
      ["i"] instant event per marker), loadable in [chrome://tracing] or
      Perfetto. [cycles_per_us] converts the virtual clock to the
      microsecond timestamps the format expects (default 1.0: timestamps
      stay in cycles). *)
end
