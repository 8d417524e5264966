(** Per-domain flight recorder: a bounded ring of structured events kept
    in {e monitor-protected} simulated memory, so the record of what a
    domain did survives the rewind that discards the domain itself.

    Each event is six 64-bit words stored through checked {!Vmem.Space}
    accesses in the monitor's TLSF heap: virtual timestamp, kind, acting
    thread, the causal trace id of the request being served
    ({!Telemetry.Context}), one kind-specific argument, and the owning
    domain. Rings are
    per-domain (keyed by udi) and FIFO-evicted beyond [max_domains];
    every lost event — wrap, eviction, or allocation failure under
    memory pressure — is counted in {!dropped}, never silent.

    At rewind intent time {!excerpt_into} copies the last few events of
    each victim domain into the monitor's buffer for embedding into the
    durable {!Rewind_log} audit record ({!store}/{!load} are the
    serialization halves). *)

type kind =
  | Admit  (** supervisor admitted a request into the domain *)
  | Switch_in  (** domain entered (PKRU switched to its view) *)
  | Switch_out  (** domain exited normally *)
  | Alloc_poison  (** sanitizer poisoned/unpoisoned an allocation *)
  | Lock_acquire  (** domain-owned lock taken *)
  | Fault  (** the fault that triggered a rewind *)
  | Shed  (** request shed before the domain switch *)
  | Replay  (** journal replay served instead of re-executing *)
  | Route
      (** the cluster router forwarded a request into this shard — the
          cross-shard hop of a causal chain (arg = shard index) *)
  | Failover
      (** the shard absorbed a failover: re-routed traffic or a replay-
          journal re-seed from a drained peer (arg = sick shard index) *)
  | Race
      (** a race-detector finding was published into the ring
          ({!Analysis.Race.publish}; arg = the finding's address or lock
          id). Findings are detected host-side with zero virtual-time
          cost and recorded only when publication is requested, so an
          attached detector never perturbs the run it watches. *)

type event = {
  e_at : float;  (** virtual cycles *)
  e_tid : int;
  e_kind : kind;
  e_udi : int;
  e_trace : int;  (** 0 = no causal context; ids are 62-bit, see
                      {!Telemetry.Context} *)
  e_arg : int;  (** kind-specific: fault address, replay hit count, … *)
}

type t

val create :
  Vmem.Space.t -> heap:Tlsf.t -> ?cap:int -> ?max_domains:int -> unit -> t
(** [cap] events retained per domain (default 32); at most
    [max_domains] rings (default 64) before the oldest is evicted.
    @raise Invalid_argument when either is non-positive. *)

val record :
  t -> udi:int -> tid:int -> at:int -> trace:int -> arg:int -> kind -> unit
(** Append one event to [udi]'s ring, allocating the ring on first use.
    Under allocation failure the event is dropped (and counted). [at] is
    the virtual time in whole cycles and [trace] the 62-bit trace id as
    an int (0 = no causal context): the words the ring stores, passed
    unboxed. *)

val events : t -> udi:int -> event list
(** Retained events for one domain, oldest first; [[]] for domains that
    never recorded. *)

val event_words : int
(** Words per event in {!excerpt_into}'s buffer: 6. *)

val excerpt_into : t -> udi:int -> n:int -> int array -> int -> int
(** [excerpt_into t ~udi ~n words pos] copies the last [n] retained
    events of [udi]'s ring, oldest first, into [words] from [pos] — per
    event the six words {!store} writes, in its order — and returns the
    position after them. [words] must have room for [n * event_words].
    It reads every retained event, as {!events} does, with the same
    checked loads in the same order, and allocates nothing. *)

val domains : t -> int list
(** Udis that currently hold a ring, in ring-creation order. *)

val recorded : t -> int
(** Events ever recorded across all domains. *)

val dropped : t -> int
(** Events lost to ring wrap, domain eviction, or allocation failure. *)

val bytes : t -> int
(** Monitor-heap bytes currently held by rings — like audit records, an
    allocation that intentionally outlives the domains it describes, so
    leak checks can subtract it from the monitor footprint. *)

val kind_to_string : kind -> string
(** Stable lowercase rendering ([admit], [switch-in], …) used by dumps,
    audit reports and goldens. *)

val kind_code : kind -> int
val code_kind : int -> kind

(** {1 Raw (de)serialization} — for embedding event excerpts in other
    durable structures; [stored_size] bytes per event. *)

val stored_size : int
val store : Vmem.Space.t -> int -> event -> unit
val load : Vmem.Space.t -> int -> event
