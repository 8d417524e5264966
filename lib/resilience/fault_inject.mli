(** Seeded, deterministic fault-injection engine.

    Chaos experiments need faults that are adversarial but replayable: a
    failing run must be reproducible from a seed. A {!t} owns a private
    splitmix64 stream and an ordered plan of {!rule}s, each keyed by a
    stable site label. Substrates consult {!decide} at their injection
    points (or are wired up with the [arm_*] adapters below); each
    eligible rule visit costs exactly one draw, so under the
    deterministic scheduler the entire fault sequence — and the event log
    — is a pure function of [(seed, plan)]. *)

type kind =
  | Alloc_fail  (** Tlsf malloc fails as if the sub-heap were exhausted *)
  | Bit_flip  (** single-event upset in a mapped byte *)
  | Wild_write  (** stray store into an unmapped page (SEGV) *)
  | Stack_smash  (** clobber the canary of a stack frame *)
  | Net_drop  (** message silently lost *)
  | Net_truncate  (** message cut short at a random offset *)
  | Net_delay of float  (** latency spike, extra cycles *)
  | Kill_thread  (** scheduler-level loss of a thread *)
  | Heap_overflow
      (** write one byte past the allocation's usable size — on a
          sanitized heap this lands in the redzone (POISON fault) *)
  | Use_after_free
      (** malloc, free, then read the freed payload — on a sanitized heap
          the freed bytes are poisoned (POISON fault) *)
  | Rewind_interrupt
      (** second fault arriving while a multi-domain rewind is in
          flight; exercises the two-phase intent/commit protocol (the
          monitor resumes the discard from the durable intent record) *)
  | Shard_crash
      (** cluster tier: a whole monitor instance (shard) is lost —
          its listener and worker waitsets close mid-flight, so routed
          requests time out and the router must fail over *)
  | Net_partition of float
      (** cluster tier: the shard is unreachable (heartbeats and
          replies suppressed) for the given number of cycles, then the
          link heals; the router must declare it down on missed
          heartbeats and fail over in the meantime *)

val kind_to_string : kind -> string

type rule = { site : string; kind : kind; prob : float; max_fires : int }

val rule : ?prob:float -> ?max_fires:int -> site:string -> kind -> rule
(** [prob] defaults to 1.0 (fire on every visit), [max_fires] to
    unlimited. *)

type event = { e_seq : int; e_site : string; e_kind : kind; e_at : float }

type t

val create : seed:int -> rule list -> t
val seed : t -> int

val decide : t -> site:string -> kind option
(** Visit an injection point: in plan order, each rule bound to [site]
    with budget remaining draws once; the first draw under its
    probability fires (recording an {!event}) and its kind is returned. *)

(** {1 Firing helpers} *)

val wild_write : Vmem.Space.t -> unit
(** Store through a stray pointer into the never-mapped page 0; raises
    the simulated SEGV ({!Vmem.Space.Fault}). *)

val smash_canary : Sdrad.Api.t -> unit
(** Open a protected stack frame and overwrite its canary; raises
    {!Sdrad.Api.Stack_check_failure} on frame exit. *)

val fire_in_domain :
  t -> site:string -> sd:Sdrad.Api.t -> buf:int -> len:int -> kind option
(** Consult [site] from inside a domain body and, if a memory-corruption
    kind fires, perform it against the domain's state ([buf]/[len] locate
    a representative buffer for bit flips). Network and scheduler kinds
    decided here are recorded but perform nothing — they belong to the
    adapters below. *)

(** {1 Substrate adapters} *)

val arm_tlsf : t -> Tlsf.t -> site:string -> unit
(** Route the allocator's injection hook to this engine: a firing
    [Alloc_fail] rule makes that malloc fail. *)

val arm_netsim : t -> Netsim.t -> site:string -> unit
(** Route the network's per-send hook to this engine: [Net_drop],
    [Net_truncate] and [Net_delay] rules perturb messages in flight. *)

val arm_rewind : t -> Sdrad.Api.t -> site:string -> unit
(** Route the monitor's rewind-path probe to this engine: a firing
    [Rewind_interrupt] rule simulates a fault landing between two
    discard steps of an in-flight rewind. Budget the rule with
    [max_fires]; the monitor stops consulting the hook after a bounded
    number of interrupts per rewind, so an unbounded always-fire rule
    only wastes draws. *)

val maybe_kill : t -> site:string -> sched:Simkern.Sched.t -> tid:int -> bool
(** Consult [site] and, if a [Kill_thread] rule fires, kill the thread. *)

(** {1 Introspection} *)

val events : t -> event list
(** All fired events, in firing order. *)

val fires : t -> int

val log_to_string : t -> string
(** Render the event log one line per event — byte-identical across runs
    with equal [(seed, plan)] and scheduling. *)
