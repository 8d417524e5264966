(** Domain supervisor: per-udi rewind budgets, exponential backoff and
    quarantine on top of {!Sdrad.Api}.

    Rewind-and-discard recovers from a fault in microseconds, which is
    precisely what makes it a denial-of-service amplifier: an attacker who
    can fault a domain at will can make the server spend its time
    re-initializing instead of serving. The supervisor consumes the
    monitor's incident stream and drives a per-domain circuit breaker —
    [Closed → Backoff → Quarantined → Half_open] — so that repeated
    rewinds of one domain are first slowed down (exponential backoff,
    charged through virtual time) and then fenced off entirely
    (quarantine with a distinguishable rejection), while a half-open
    probe after the cooldown lets a recovered domain return to service. *)

type breaker = Closed | Backoff | Quarantined | Half_open

val breaker_to_string : breaker -> string
(** ["closed"], ["backoff"], ["quarantined"] or ["half-open"]: the name
    in metric labels, trace arguments and fleet heartbeats. *)

val breaker_of_string : string -> breaker
(** Inverse of {!breaker_to_string}; any other string reads as
    [Closed]. *)

type policy = {
  budget_max : int;
      (** rewinds within [budget_window] that trip the breaker *)
  budget_window : float;  (** sliding window, virtual cycles *)
  backoff_base : float;  (** first re-init delay, cycles *)
  backoff_factor : float;  (** delay multiplier per consecutive fault *)
  backoff_max : float;  (** delay ceiling *)
  cooldown : float;  (** quarantine duration before a half-open probe *)
}

val default_policy : policy

type t

val attach : ?policy:policy -> Sdrad.Api.t -> t
(** Install the supervisor on a monitor instance as one more incident
    subscriber ({!Sdrad.Api.on_incident}), so application-level
    subscribers keep firing whether they subscribed before or after. *)

val on_incident : t -> Sdrad.Types.fault -> unit
(** Consume one incident of the monitor's stream: what the subscriber
    {!attach} installs runs. With tracing off it allocates nothing once
    the udi and the edges it takes have been seen. *)

type verdict =
  | Admitted
  | Probe  (** admitted as the single half-open probe after cooldown *)
  | Busy of { until : float }
      (** quarantined; [until] is the earliest probe time *)

val admit : t -> udi:Sdrad.Types.udi -> verdict
(** Gate an attempt to (re-)initialize the domain. In [Backoff] this
    blocks the calling thread until the retry point (the re-init delay of
    the policy); in [Quarantined] it returns [Busy] without touching any
    domain state, so the caller can degrade (serve busy / 503). *)

val succeed : t -> udi:Sdrad.Types.udi -> unit
(** Report a normal completion: resets the strike counter, and closes the
    breaker after a successful half-open probe. *)

val run :
  t ->
  udi:Sdrad.Types.udi ->
  ?opts:Sdrad.Types.options ->
  on_rewind:(Sdrad.Types.fault -> 'a) ->
  on_busy:(until:float -> 'a) ->
  (unit -> 'a) ->
  'a
(** Supervised {!Sdrad.Api.run}: [admit] first (rejecting with [on_busy]
    when quarantined), count a normal completion as a success. The
    success is recorded once {!Sdrad.Api.run} has returned (after any
    deinitialization it does for the body), so a run builds no closure;
    passing [?opts] as an option made once builds no [Some] either. *)

type 'a outcome =
  | Ok of 'a
  | Faulted of Sdrad.Types.fault
  | Rejected of { udi : Sdrad.Types.udi; until : float }

val protect_call :
  t ->
  udi:Sdrad.Types.udi ->
  ?opts:Sdrad.Types.options ->
  arg:string ->
  (int -> int -> 'a) ->
  'a outcome
(** Supervised {!Sdrad.Api.protect_call} with quarantine rejection as a
    distinguishable [Rejected] outcome. *)

(** {1 Introspection} *)

val breaker_state : t -> udi:Sdrad.Types.udi -> breaker
(** [Closed] for udis the supervisor has never seen. *)

val states : t -> (Sdrad.Types.udi * breaker) list
(** All tracked domains, sorted by udi. *)

val worst_breaker : t -> breaker
(** The most severe state over all tracked domains, in the order
    [Closed < Half_open < Backoff < Quarantined]; [Closed] when none is
    tracked. A fleet shard reports it in its heartbeat. *)

val stats : t -> (string * int) list
(** Global counters as an assoc list: supervised domains, rewinds seen,
    quarantines, rejections, backoff waits, probes, probe successes.
    The same values are exported as [supervisor_*] metric series. *)

val domain_counters : t -> udi:Sdrad.Types.udi -> (string * int) list
(** Per-domain counters: rewinds, quarantines, probes, rejections. *)

val transition_count : t -> from:breaker -> target:breaker -> int
(** Edges taken over the breaker graph, read from the
    [supervisor_transitions_total{from,to}] counter family in the
    monitor's metrics registry. 0 for edges never taken. *)
