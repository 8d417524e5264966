(** Deadline-driven client retry policies over virtual time.

    An engine owns a retry {!policy}, an optional token-bucket {!budget}
    shared across its calls, and a deterministic jitter stream
    ([Simkern.Rng] — no wall clock). {!execute} runs one logical request:
    it generates a fresh idempotency key, computes a per-attempt deadline
    (min of [now + attempt_timeout] and the overall call deadline), and
    runs the caller's attempt function until one succeeds. Retryable
    failures back off with decorrelated jitter (uniform in
    [[base, min (cap, 3 * previous)]]) before the next attempt.

    The attempt function reads what it needs of the call from the engine
    — {!rid}, {!trace}, {!context}, {!deadline_slot} — so a caller builds it
    once and a call allocates nothing per attempt. An engine runs one
    call at a time. Creating one without a metrics registry builds no
    closure: its record, its rid buffer and its deadline slot. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first *)
  attempt_timeout : float;  (** per-attempt deadline, cycles *)
  overall_timeout : float;  (** whole-call deadline, cycles *)
  backoff_base : float;  (** minimum backoff sleep, cycles *)
  backoff_cap : float;  (** maximum backoff sleep, cycles *)
}

val default_policy : policy

type budget
(** Token bucket limiting the steady-state retry rate: each logical call
    deposits, each retry withdraws. Share one budget across an
    application's engines to bound aggregate retry amplification. *)

val budget : ?cap:float -> ?deposit:float -> ?withdraw:float -> unit -> budget
(** Defaults [cap = 100., deposit = 1., withdraw = 10.]: at most ~10% of
    traffic may be retries in steady state, with a burst allowance of
    [cap / withdraw] retries. Starts full. *)

val budget_tokens : budget -> float

type error =
  | Attempts_exhausted of string
      (** [max_attempts] attempts all failed; payload is the last
          failure's reason *)
  | Deadline_exceeded  (** the overall call deadline passed *)
  | Budget_exhausted
      (** the retry budget ran dry — distinct so callers can tell
          load-induced fast-failure from a genuinely dead server *)

val error_to_string : error -> string

type t

val create :
  ?metrics:Telemetry.Metrics.t ->
  ?budget:budget ->
  ?name:string ->
  ?id:int ->
  policy ->
  rng:Simkern.Rng.t ->
  t
(** [name] (default ["client"]) prefixes generated request ids, followed
    by [id] in decimal when given: [~name:"y" ~id:7] makes the ids
    ["y7-<n>"] that [~name:"y7"] makes, without building that string.
    @raise Invalid_argument if [id] is negative. With
    [metrics], [client_retries_total] and
    [client_retry_budget_exhausted_total] are registered (get-or-create,
    so engines sharing a registry share the counters). *)

val execute : t -> (t -> (unit, [ `Retry of string ]) result) -> (unit, error) result
(** Run one logical request: call the attempt function with the engine
    until it returns [Ok ()], or [Error (`Retry reason)] has used up the
    attempts, the overall deadline or the budget. A backoff that reaches
    the overall deadline ends the call with [Deadline_exceeded] rather
    than start an attempt with no time left. The attempt's results stay
    with the caller (a reply buffer, a ref).

    When the engine has a [metrics] registry, the whole-call latency is
    observed in [client_op_latency_cycles] with the trace id attached
    as the bucket's exemplar. *)

(** {1 The call in progress}

    Read by the attempt function. *)

val rid : t -> string
(** The call's idempotency key, ["<name>-<n>"] for the engine's [n]th
    call, stable across its retries: thread it into the wire request so
    the server's replay journal can deduplicate. A copy; see
    {!rid_bytes}. *)

val rid_bytes : t -> Bytes.t
(** The buffer whose first {!rid_length} bytes are {!rid}, rewritten by
    the next call. *)

val rid_length : t -> int

val trace : t -> int
(** The call's trace id, minted from its rid as
    [Telemetry.Context.root] would, stable across retries. Thread it into
    the wire request (kvcache [trace=] token, binary CAS field, httpd
    [traceparent] header) so server-side flight-recorder events and
    audit records link back to this call. *)

val context : t -> Telemetry.Context.t
(** {!trace} at the attempt's span ordinal — its 0-based number — as a
    context value. *)

val deadline_slot : t -> Float.Array.t
(** The array whose slot 0 holds the virtual time this attempt must
    finish by, written before each attempt and left alone while it runs:
    pass it to [Netsim.recv_buf_deadline] with index 0, which reads the
    deadline in place, where a [float] result would be boxed. *)

val calls : t -> int
val retries : t -> int
val budget_exhaustions : t -> int
