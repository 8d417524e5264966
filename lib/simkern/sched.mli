(** Deterministic cooperative thread scheduler over virtual time.

    The simulator models POSIX threads as cooperative fibers (OCaml 5
    effects) with per-thread virtual clocks measured in CPU cycles. The
    scheduler is a conservative discrete-event loop: it always resumes the
    runnable thread with the smallest clock, so cross-thread interactions
    (mutexes, message queues) observe a causally consistent order and every
    run is reproducible.

    A thread advances its own clock with {!charge}; it never pre-empts.
    Blocking primitives ({!block}, {!block_until_from}, {!Mutex},
    {!join}) hand control back to the scheduler; when woken at virtual
    time [at], the thread's clock becomes [max clock at], which is how
    waiting time manifests. *)

type t
type tid = int

type outcome =
  | Completed
  | Failed of exn
      (** The thread died with an uncaught exception — for a simulated
          process this is the analogue of crashing on an unhandled
          signal. *)

exception Deadlock of string
(** Raised by {!run} when every remaining thread is blocked; carries
    their names, comma-separated, in tid order. *)

exception Killed
(** Delivered into a thread terminated with {!kill}. *)

val create : unit -> t

val spawn : t -> ?name:string -> (unit -> unit) -> tid
(** Create a thread, named ["t<tid>"] unless [name] is given. When called
    from inside a running thread the child's clock starts at the parent's
    current time; otherwise at 0. A scheduler keeps every thread it
    spawned, finished ones included, in tid order: {!outcomes} and
    {!horizon} walk them, and lookups by tid are binary searches. *)

val run : t -> unit
(** Execute until no thread is runnable. @raise Deadlock if threads remain
    blocked with nothing to wake them. *)

val main : ?sched:t -> (t -> 'a) -> 'a
(** [main body] runs a whole simulation around one thread: it spawns
    [body] on [sched] (a fresh scheduler when omitted) as thread
    ["main"], runs the scheduler until nothing is runnable and returns
    the body's value. On a scheduler nothing was spawned on, the body
    gets the tid a first {!spawn} gets. Re-raises the body's exception,
    also when threads it leaves behind stay blocked. When the run ends
    with threads blocked after a body that returned or blocked, and some
    thread died of an exception other than {!Killed}, raises the first
    such thread's exception, by tid: a failed server leaves its clients
    blocked, and the deadlock would name only them.
    @raise Deadlock as {!run} does otherwise. *)

val outcome : t -> tid -> outcome option
(** [None] while the thread has not finished. *)

val outcomes : t -> (tid * string * outcome) list
(** All finished threads, in tid order. *)

val horizon : t -> float
(** Largest clock reached by any thread or armed timer (see
    {!block_until_from}) — the makespan of the simulation, used for
    throughput computations. *)

(** The functions below may only be called from inside a running thread. *)

val self : unit -> tid

val now : unit -> float
(** Current thread's clock, in cycles. *)

val charge : float -> unit
(** Advance the current thread's clock by the given number of cycles. *)

type cell = { mutable clock : float; mutable waited : float }
(** A thread's virtual clock, stored unboxed: a float-only record is laid
    out flat. [waited] belongs to the scheduler; other modules only read
    [clock] or add cycles to it. *)

val clock_cell : unit -> cell
(** The current thread's clock cell. Libraries are compiled separately
    ([-opaque]), so every float passed across a module boundary — the
    argument of {!charge}, the result of {!now} — is boxed on the minor
    heap. A per-access path instead adds into the cell itself,
    [let k = clock_cell () in k.clock <- k.clock +. c], which allocates
    nothing; it is the same float addition {!charge} performs. *)

type running = private { mutable tid : tid; mutable cell : cell }
(** The running thread's tid and clock cell. *)

val running : running
(** The one record {!self}, {!clock_cell}, {!now}, {!in_thread} and
    {!charge} read. Inside a thread it names that thread. Between
    resumptions and outside {!run} its [tid] is [-1] and its [cell]
    belongs to no thread. A thread that runs a nested {!run} (or
    {!main}) sees its own tid and cell again once the nested run returns
    or raises. Reading a field is a load where a call to {!self} or
    {!clock_cell} is a call, as libraries are compiled with [-opaque]:
    the checked access path in [Vmem.Space] reads it on every simulated
    load and store. Only [Sched] writes it. *)

val yield : unit -> unit
(** Reschedule; another thread with a smaller clock may run first. *)

val sleep : float -> unit
(** [charge] then [yield]. *)

val wait_until : float -> unit
(** Advance the current thread's clock to [at] (no-op if already past),
    accounting the jump as waiting rather than work — e.g. a blocking read
    whose data arrives at a known time. *)

val thread_clock : t -> tid -> float option
val thread_waited : t -> tid -> float option

val busy_fraction : t -> tid -> float option
(** Fraction of the simulation span the thread spent computing rather
    than waiting — CPU utilization for saturation analysis. *)

type handle [@@immediate]
(** Names one suspension of one thread: the thread and its suspension
    serial, packed in an int, so storing one allocates nothing. The
    thread takes a fresh serial, from one process-wide counter, when the
    suspension ends — woken, timed out or killed — so a handle wakes at
    most once, and never a later, unrelated suspension, of the same
    thread or of a thread of another scheduler. *)

val no_handle : handle
(** Names no suspension; {!wake} of it is [false]. *)

val handle : unit -> handle
(** The handle of the current thread's next {!block} or
    {!block_until_from}.
    A caller publishes it where a waker will find it (a wait queue, a
    connection), then blocks: fibers are cooperative, so nothing runs
    between the two steps. *)

val block : unit -> unit
(** Park the current thread until {!wake} of its {!handle} (or a
    {!kill}). *)

val block_until_from : Float.Array.t -> int -> unit
(** [block_until_from times i] parks like {!block} and also arms a timer
    that wakes the same handle at the deadline [Float.Array.get times i],
    read when the timer is armed. Whichever wake comes first resumes the
    thread; the other finds the handle stale and is a no-op, so a timer
    is never cancelled. A deadline at or before the current clock fires
    at the current clock. The deadline is read where it lies, as
    {!wake_from} reads its time, because a [float] argument would be
    boxed: a caller keeps it in a slot of its own (a retry engine's
    attempt deadline, a router worker's forward deadline) and arming the
    timer allocates nothing.

    A timer is an entry in the ready heap holding the handle and the
    deadline, not a thread: it has no thread record, stack, {!outcomes}
    row or [Spawned] trace event. It runs exactly as a thread spawned at
    the call that did [wait_until deadline] and then the wake would:
    - its id comes from the thread-id counter, so a timer firing at the
      same clock as a thread runs before it if it was armed before the
      thread was spawned, after it otherwise;
    - it fires at [max deadline (now ())];
    - it raises {!horizon} to [deadline] when the scheduler reaches the
      caller's clock at arming (in id order, where that thread would
      have taken its first step), and keeps it there even when the
      thread was woken first, as that thread's clock would have. *)

val wake_from : handle -> Float.Array.t -> int -> bool
(** [wake_from h times i] makes the suspension [h] names runnable at
    virtual time [at = Float.Array.get times i]: its thread's clock
    becomes [max clock at], the jump counted as waiting. [false], and
    nothing happens, when the handle is stale — that suspension already
    ended — or is {!no_handle}. Call it from inside a running thread.
    The time is read from the array, where a message ring keeps its
    delivery times, because a [float] argument would be boxed. *)

val wake : handle -> bool
(** {!wake_from} at the caller's clock. *)

val join : tid -> unit
(** Block until the given thread finishes. Does not re-raise its
    failure — inspect {!outcome}. *)

val kill : t -> tid -> unit
(** Terminate a thread: {!Killed} is raised inside it at its next
    resumption point, so handlers and finalizers unwind as for any fatal
    exception (the victim's outcome is [Failed Killed] unless it catches).
    A blocked victim is made runnable immediately, at the killer's clock
    when it is behind it. A ready victim whose clock is ahead of the
    killer's (a {!sleep}er, a thread woken at a later time) unwinds at
    the killer's clock, or at the clock where it last suspended when
    that is later, so no thread's clock goes back past a time it
    observed: a kill takes effect when it happens, and a sleeper holding
    a lock releases it then, not at the end of its sleep. Killing a finished or unknown thread is a no-op.
    Fault-injection uses this to model the scheduler-level loss of a
    thread. *)

val current : unit -> t
(** The scheduler driving the calling thread. *)

val in_thread : unit -> bool
(** Whether the caller is executing inside a simulated thread. *)

(** {1 Synchronization trace hook}

    The happens-before skeleton of a run, reported to an external
    observer: spawn and join edges, and {!Mutex} lock transfers. The race
    detector ({!Analysis.Race}) installs the hook.

    Emission is purely host-side — no virtual time is charged and no
    scheduling decision changes — so installing a hook cannot perturb a
    deterministic run. Lock events carry a process-wide lock id
    ({!Mutex.id}). *)

type trace_event =
  | Spawned of { parent : tid; child : tid }
      (** [parent = -1] when spawned from outside the simulation. *)
  | Joined of { waiter : tid; joined : tid }
  | Locked of { lock : int; tid : tid }
      (** Mutex acquisition. *)
  | Unlocked of { lock : int; tid : tid }

val set_trace_hook : (trace_event -> unit) option -> unit
(** Install (or clear, with [None]) the single trace-hook slot. *)

(** Mutual exclusion with virtual-time contention accounting. Unlock hands
    the lock directly to the longest-waiting thread. *)
module Mutex : sig
  type mutex

  val create : unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit
  val with_lock : mutex -> (unit -> 'a) -> 'a

  val id : mutex -> int
  (** Stable process-wide id (trace events). *)

  val contentions : mutex -> int
  (** Number of lock acquisitions that had to wait. *)

  val wait_cycles : mutex -> float
  (** Total virtual time spent waiting on this mutex. *)
end
