(** SDRaD — Secure Domain Rewind and Discard.

    This module realizes the paper's Table I API over the simulated MPK
    hardware ({!Vmem.Space}) with per-domain TLSF sub-heaps ({!Tlsf}) and
    per-domain stacks. An application is compartmentalized into nested
    {e execution domains}, each guarded by a protection key; when a
    run-time defense fires inside a nested domain (a protection-key
    violation, a stack-canary failure, or an explicit {!abort}), the
    domain's memory is {e discarded} and execution is {e rewound} to the
    domain's initialization point in the parent — the parent keeps running.

    {2 Mapping to the paper's C API}

    C's [sdrad_init()] "returns twice" (setjmp-style): once on successful
    initialization and again after an abnormal domain exit. OCaml cannot
    longjmp across stack frames, so the rewind point is expressed
    structurally: {!run} performs the initialization and executes [body]
    (the code between init and destroy/deinit); an abnormal exit unwinds
    to the matching {!run} and invokes [on_rewind] with the failing
    domain's index and cause — the same case split the paper performs on
    [sdrad_init()]'s return value. All other calls (malloc, free,
    dprotect, enter, exit, destroy, deinit) are direct equivalents.

    Execution-domain state is per-thread, exactly as in the paper: each
    simulated thread that initializes a domain index gets its own stack,
    sub-heap and protection key for it. Data domains are shared between
    threads. *)

open Types

type t

exception Stack_check_failure
(** Raised by {!with_stack_frame} when the canary was smashed; inside a
    nested domain it is converted into an abnormal exit with cause
    {!Types.Stack_smash}, in the root domain it terminates the thread
    (glibc's [__stack_chk_fail] behaviour). *)

exception Attack_detected of string
(** Raised by {!abort}; converted into {!Types.Explicit}. *)

val create :
  ?seed:int ->
  ?default_heap_size:int ->
  ?stack_reuse:bool ->
  ?sanitizer:bool ->
  ?verify_policy:bool ->
  ?metrics:Telemetry.Metrics.t ->
  ?tracer:Telemetry.Trace.t ->
  Vmem.Space.t ->
  t
(** Link SDRaD into a simulated process: allocates the monitor data domain
    (256 KiB) and the root domain's protection key, sets up the root heap
    (4 MiB), and installs the fault-conversion machinery. [seed] seeds
    the stack canary; [default_heap_size] (default 256 KiB) is a data
    domain's pool when {!init_data} names none, and each region the root
    heap grows by. [stack_reuse] enables the
    §IV-C optimization of recycling stack areas of destroyed domains
    (default [true]; ablation A2 turns it off). Keys are virtualized
    libmpk-style (§IV-B, {!Keys}): when the 15 hardware keys run out, the
    least recently used {e dormant} execution domain is parked — its
    pages made inaccessible with mprotect, the slow fallback the paper
    notes — and its key recycled, for a new execution or data domain;
    the instance is transparently unparked on its next initialization.
    Only when no domain is dormant does a key request fail with
    [Out_of_pkeys].

    [sanitizer] (default [false]) puts every heap this monitor creates —
    monitor, root, per-domain sub-heaps, data domains — into heap-poison
    mode (see {!Tlsf.set_sanitize}): redzones after every allocation,
    [0xFD] poison-on-free, shadow-map poison on discard, with violations
    raised as [POISON] faults the rewind machinery recovers from.
    [verify_policy] (default [false]) asserts cheap policy invariants
    (protection-key disjointness, no reserved-key reuse) at every domain
    initialization; the full static verifier is {!Analysis.Policy}.

    [metrics] and [tracer] supply a shared {!Telemetry} registry and span
    tracer; fresh (private) ones are created when omitted. The tracer
    starts disabled. Each domain's flight-recorder ring
    ({!flight_events}) holds its last 32 events; an audit record freezes
    the last 8 of each domain it discards. *)

val space : t -> Vmem.Space.t

(** {1 Domain life cycle} *)

val run :
  t ->
  udi:udi ->
  ?opts:options ->
  on_rewind:(fault -> 'a) ->
  (unit -> 'a) ->
  'a
(** [run t ~udi ~opts ~on_rewind body] initializes execution domain [udi]
    as a child of the calling thread's current domain and establishes the
    rewind point, then executes [body]. [body] typically allocates
    argument space with {!malloc}, {!enter}s the domain, calls the
    sandboxed functionality, {!exit_domain}s, and finally {!destroy}s or
    {!deinit}s the domain (Listing 1 of the paper).

    On an abnormal exit of [udi] (or of a descendant configured with
    [rewind = Grandparent] whose parent is [udi]), the corrupted domain's
    memory is discarded, the protection-key policy of the parent is
    restored, and [on_rewind] runs in the parent domain.

    If [body] returns with the domain still initialized, the domain is
    automatically deinitialized (the saved context would dangle
    otherwise); if [body] raises a non-rewind exception the domain is
    destroyed and the exception propagates. *)

val rewound : t -> bool
(** Whether the last {!run} to return on the calling thread returned
    [on_rewind]'s value rather than [body]'s — how a wrapper that is
    handed the result tells a rewind from a normal return without
    building a closure around either. *)

val init_data : t -> udi:udi -> ?heap_size:int -> unit -> unit
(** Create a data domain: shareable pages that hold data but never execute
    code. Its memory is managed with {!malloc}/{!free} and its visibility
    to execution domains is configured with {!dprotect}. [heap_size]
    (default: [create]'s [default_heap_size]) is the domain's pool: its
    heap starts with one region of that size and grows by regions of
    that size, or of the one block that needs more, as an execution
    domain's heap grows by its [heap_size]. *)

val enter : t -> udi -> unit
(** Switch execution into a nested domain previously initialized by this
    thread under the current domain: switches to the domain's stack and
    updates the PKRU policy (at most two WRPKRU writes — the monitor call
    gate and the target policy; redundant installs are elided, and under
    a {!with_gate} section the call-gate write disappears entirely). *)

val exit_domain : t -> unit
(** Leave the current nested domain, returning to its parent. *)

val destroy : t -> udi -> heap:[ `Discard | `Merge ] -> unit
(** Delete a (non-entered) child domain. [`Merge] coalesces the child's
    sub-heap into the current domain's heap — live allocations survive and
    become owned by the current domain ([NO_HEAP_MERGE] in the paper is
    [`Discard]). A child heap that fails its integrity walk is discarded
    instead: an incident, audited and reported to {!on_incident}
    subscribers. The stack area is recycled when stack reuse is enabled.
    Also deletes data domains (with [`Discard]). *)

val deinit : t -> udi -> unit
(** Discard only the domain's saved return context, leaving its memory
    intact; the domain must be re-initialized (another {!run}) before it
    can be entered again. Supports the persistent-domain pattern across
    event-handler invocations (Figure 3). *)

(** {1 Memory management} *)

val malloc : t -> udi:udi -> int -> int
(** Allocate in the given domain's sub-heap. Permitted for the current
    domain itself, an accessible child, or a data domain the current
    domain has write access to. The sub-heap is created on first use and
    grows on demand. @raise Tlsf.Out_of_memory when the heap has no block
    for the request and the space no room for a region that would. *)

val free : t -> udi:udi -> int -> unit
val usable_size : t -> udi:udi -> int -> int

(** {1 Batched gates}

    ERIM-style gate thinning for server loops. Opening a gate installs
    the raised monitor view and keeps it installed between API calls
    while the thread is in its home root context, so consecutive
    requests dispatched to nested domains share one privilege
    raise/drop instead of paying two WRPKRU writes per monitor section.
    Compartment {!enter}/{!exit_domain} still installs the compartment's
    own policy — isolation, fault behaviour, flight-recorder events and
    supervisor admission are identical to the unbatched path; only the
    number of WRPKRU writes (and their cycle charges) changes. Gates
    nest. *)

val with_gate : t -> (unit -> 'a) -> 'a
(** [with_gate t f] runs [f] in a batched-gate section on the calling
    thread, and closes it, restoring the thread's compartment policy,
    however [f] returns. *)

val gate_open : t -> bool
(** Whether the calling thread has a batched gate open. *)

val gate_buffer : t -> ?slot:int -> udi:udi -> int -> int
(** [gate_buffer t ~udi n] returns an argument-marshalling buffer of at
    least [n] bytes in [udi]'s heap, cached per (calling thread, caller
    domain, callee domain, [slot]) and reused across calls — the
    persistent-domain pattern applied to gate arguments. Do not {!free}
    it: the cache owns it until the callee is discarded or destroyed
    (rewinds invalidate it automatically). A request larger than the
    cached capacity reallocates. [slot] (default 0) distinguishes
    multiple concurrent buffers for the same pair. *)

val dprotect : t -> udi:udi -> tddi:udi -> Vmem.Prot.t -> unit
(** Set execution domain [udi]'s access rights on data domain [tddi]
    (none, read-only, or read-write). Takes effect at the next domain
    transition of affected threads, and immediately for the calling
    thread if it is currently executing in [udi]. *)

(** {1 Stack frames and canaries} *)

val alloca : t -> int -> int
(** Bump-allocate on the current domain's stack (16-byte aligned).
    Exhausting the stack area touches the guard page below it, raising the
    SEGV that the rewind machinery converts into an abnormal domain
    exit. *)

val with_stack_frame : t -> int -> (int -> 'a) -> 'a
(** [with_stack_frame t n f] simulates a [-fstack-protector] frame: it
    allocates an [n]-byte stack buffer, plants a canary word directly
    above it, runs [f buf], then verifies the canary — a smashed canary
    raises the stack-check failure that SDRaD converts into an abnormal
    domain exit (the paper's replaced [__stack_chk_fail]). The stack
    pointer is restored on exit. *)

val abort : t -> string -> 'a
(** Report an attack detected by an application-level defense; triggers an
    abnormal exit of the current domain. *)

(** {1 Introspection} *)

val current : t -> udi
(** Domain the calling thread is executing in ([root_udi] at top level). *)

val is_initialized : t -> udi -> bool
val rewind_count : t -> int

(** {1 Rewind audit log}

    Every multi-domain rewind is a two-phase transaction against a
    durable log in monitor-root memory: an {e intent record} (domain
    subtree, trigger fault, target udi, heap/stack extents) written
    before any discard, a progress counter advanced after each domain,
    and a commit that turns the intent into an append-only incident
    record. A fault arriving mid-rewind resumes the in-flight discard
    from the intent instead of leaving a half-discarded tree. See
    INTERNALS §12 and {!Checkpoint.Rewind_log}. The log is the monitor's
    only incident store: one record per rewind, and one per [`Merge]
    {!destroy} refused because the child's sub-heap is corrupt. *)

val audit_records : t -> Checkpoint.Rewind_log.record list
(** The last 256 incident records, oldest first — the history §VI
    suggests reporting to a SIEM. Safe from inside or outside simulated
    threads; inside one, monitor privileges are raised around the
    protected-memory reads, which costs simulated cycles. *)

val audit_appended : t -> int
(** Incidents ever committed to the audit log; reading it costs no
    simulated cycles. A rewind whose record could not be stored is not
    counted. *)

val audit_dropped : t -> int
(** Audit records evicted from the bounded ring. *)

val audit_retained : t -> int
(** Audit records currently held. *)

val audit_bytes : t -> int
(** Monitor-heap bytes currently held by audit records — the one
    monitor allocation that intentionally outlives its domains, so
    leak checks can subtract it from {!monitor_bytes}. *)

val audit_pending : t -> bool
(** An intent record is in flight — only observable from a rewind-path
    probe; by the time control returns to application code the
    transaction has committed. *)

(** {1 Causal trace context and flight recorder}

    A per-thread {!Telemetry.Context} trace id links a client operation
    to every monitor-level consequence it triggers. While a trace id is
    installed, every flight-recorder event and switch recorded for the
    thread carries it; the per-domain flight recorder itself is a
    bounded ring of structured events in monitor-protected memory, so
    it {e survives the discard} of the domain it describes — the last
    few events of each victim are frozen into the rewind audit record
    at intent time (see [r_events] of {!Checkpoint.Rewind_log}). *)

val set_trace : t -> int -> unit
(** Install (non-zero) or clear (0) the calling thread's trace id —
    servers call this as soon as they decode a request's context. Ids
    are the 62-bit ints of {!Telemetry.Context.trace}. *)

val with_trace : t -> int -> (unit -> 'a) -> 'a
(** Bracket: install the id, run the body, restore the previous id even
    on exceptions. *)

val flight_event :
  t -> ?udi:udi -> ?trace:int -> ?arg:int -> Checkpoint.Flight.kind -> unit
(** Record an application-level event (admit, shed, replay, lock
    acquisition…) in the flight recorder, tagged with the calling
    thread, current virtual time and trace id. [udi] defaults to the
    domain the thread is executing in, [trace] to the thread's installed
    trace id: a caller recording an event for another request's trace
    (a shed, a router hop) passes it here instead of installing it with
    {!with_trace}. Events the monitor records itself (switches, faults,
    poisoned allocations) need no call — they are emitted inside the
    existing monitor gates. *)

val record_flight :
  t -> udi:udi -> trace:int -> arg:int -> Checkpoint.Flight.kind -> unit
(** {!flight_event} with every field given: what a per-request path
    calls, since each optional argument passed costs the caller an
    allocated [Some]. *)

val flight_events : t -> udi:udi -> Checkpoint.Flight.event list
(** Retained flight-recorder events of one domain, oldest first. Safe
    from inside or outside simulated threads. *)

val flight_domains : t -> udi list
(** Domains that currently own a flight ring, oldest-allocated first. *)

val flight_recorded : t -> int
(** Events ever recorded across all domains. *)

val flight_dropped : t -> int
(** Events lost to ring wrap-around or ring eviction. *)

val flight_bytes : t -> int
(** Monitor-heap bytes currently held by flight rings. Rings
    intentionally outlive the domains they describe (that is their
    purpose), so — like {!audit_bytes} — leak checks subtract this from
    {!monitor_bytes}. *)

val set_rewind_fault_hook : t -> (unit -> bool) option -> unit
(** Install (or clear) the chaos probe consulted before every discard
    step of a rewind. Returning [true] simulates a second fault arriving
    mid-rewind: the step is abandoned and re-driven from the durable
    intent record, and [sdrad_rewind_interrupts_total] /
    [sdrad_incidents_resumed_total] account the recovery. Wired to
    {!Resilience.Fault_inject} via [arm_rewind]. *)

val set_race_observer : t -> (race_event -> unit) option -> unit
(** Install (or clear) the monitor-level happens-before feed consumed by
    the race detector ({!Analysis.Race.attach} owns the slot). The
    observer receives {!Types.race_event}s — domain gates, rewinds,
    data-domain lifecycle, monitor-mediated allocations and {!Dlock}
    transitions. Emission is plain data from state the monitor already
    holds: no simulated memory is touched and no virtual time is
    charged, so an installed observer cannot perturb the run. *)

val race_emit : t -> race_event -> unit
(** Feed one event to the installed race observer (no-op without one).
    For rewind-aware lock implementations ({!Dlock}) that participate in
    the happens-before model; not for application code. *)

val add_journal_probe : t -> (unit -> int) -> unit
(** Register a cumulative replay-hit counter (e.g. a server's
    {!Resilience.Journal} hits); the sum across probes is sampled at
    incident-commit time and stored in the audit record's
    [r_replays]. *)

val metrics : t -> Telemetry.Metrics.t
(** The metrics registry every SDRaD counter, gauge and histogram of this
    instance is registered in; expose with {!Telemetry.Metrics.expose}. *)

val tracer : t -> Telemetry.Trace.t
(** The span tracer instrumenting switches and rewinds; enable with
    {!Telemetry.Trace.set_enabled} (disabled by default — spans then cost
    one branch). *)

val on_incident : t -> (fault -> unit) -> unit
(** Subscribe [f] to incidents: it runs after every rewind and refused
    merge, back in the parent with its privileges restored — for
    alerting, rate-limiting rewinds or firewalling repeat offenders, as
    a supervisor does. Subscribers run newest first; none is ever
    removed or replaced. *)

(** [on_abnormal_cleanup t f] registers [f] to run if the {e current}
    (entered) domain exits abnormally — the building block for
    rewind-aware resources such as {!Dlock}. Returns a cancel function to
    call when the protected section completes normally. The callback runs
    during the abnormal exit, in the failing thread, after the domain's
    memory is discarded. @raise Error [Root_operation] when called from
    the root domain. *)
val on_abnormal_cleanup : t -> (unit -> unit) -> unit -> unit
val domain_pkey : t -> udi -> int option
val monitor_bytes : t -> int
(** Bytes of monitor control data currently allocated (contexts + domain
    records). *)

val monitor_pkey : t -> int
val root_pkey : t -> int

val has_incident_handler : t -> bool
(** Whether any incident subscriber is installed (a supervisor counts) —
    the policy verifier's evidence that rewinds are observed somewhere. *)

val sanitizer_enabled : t -> bool
(** Whether this monitor was created with [~sanitizer:true]. *)

(** {1 Policy snapshot}

    The monitor's declared state as pure data — the input the static
    policy verifier ({!Analysis.Policy}) checks against. Reading it
    touches no simulated memory and charges no virtual time. *)

type domain_info = {
  di_udi : udi;
  di_kind : [ `Exec | `Data ];
  di_tid : int;  (** owning thread; [-1] for data domains *)
  di_parent : udi;  (** [Types.root_udi] for top-level and data domains *)
  di_pkey : int;  (** [-1] when parked by key virtualization *)
  di_state : [ `Dormant | `Ready | `Entered ];
  di_stack : (int * int) option;  (** (base, len); [None] for data *)
  di_regions : (int * int) list;  (** sub-heap regions, (base, len) *)
  di_accessible : bool;
  di_parent_readable : bool;
  di_has_cleanup : bool;  (** an {!on_abnormal_cleanup} hook is pending *)
  di_perms : (udi * Vmem.Prot.t) list;
      (** data domains: viewer execution domain -> granted rights *)
}

val domains_info : t -> domain_info list
(** Every live execution-domain instance and data domain, sorted by
    (udi, tid). *)

(** {1 Convenience wrappers} *)

val with_domain : t -> udi -> (unit -> 'a) -> 'a
(** [with_domain t udi f] brackets [f] between {!enter} and
    {!exit_domain}; on a normal return or a non-fault exception the domain
    is exited. Memory faults propagate with the domain still entered, as
    the rewind machinery requires. *)

val protect_call :
  t ->
  udi:udi ->
  ?opts:options ->
  arg:string ->
  (int -> int -> 'a) ->
  ('a, fault) result
(** Listing 1 of the paper as a combinator: initialize a fresh domain,
    copy [arg] into its sub-heap, enter, run [f addr len], exit, destroy
    the domain, and return the result — or [Error fault] if the domain
    exited abnormally. *)
