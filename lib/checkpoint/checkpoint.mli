(** Checkpoint & restore baseline (§II-A, §VII of the paper).

    The classic availability mechanism SDRaD is compared against: dump the
    whole process-memory image, and on failure restore it and resume. The
    virtual-time costs follow CRIU-style behaviour — dumping and restoring
    are proportional to resident memory, which is precisely the drawback
    the paper's compartmentalization-based rewind avoids. Used by
    experiments E2 and A3. *)

module Rewind_log = Rewind_log
(** Durable two-phase rewind transaction log backing the monitor's
    atomic multi-domain rewind — see {!Rewind_log}. *)

module Flight = Flight
(** Per-domain flight recorder in monitor-protected memory — see
    {!Flight}. *)

type snap

val take : Vmem.Space.t -> snap
(** Dump all mapped pages. Charges page-walk plus per-byte copy costs to
    the calling thread. *)

val restore : Vmem.Space.t -> snap -> unit
(** Restore mappings and contents from a snapshot. Charges per-byte copy
    costs plus a page-fault cost per restored page. *)

val bytes : snap -> int
(** Size of the checkpoint payload. *)

val take_cycles : Vmem.Space.t -> snap -> float
(** Virtual cycles a [take] of this image costs (for reporting without
    re-running). *)

val restore_cycles : Vmem.Space.t -> snap -> float

val restart_cycles : Vmem.Space.t -> reload_bytes:int -> float
(** Cost model for the alternative to rewinding: kill and restart the
    process, then re-populate [reload_bytes] of warm state from upstream
    (e.g. re-loading a cache from its database). Uses an exec/initialize
    constant plus a per-byte reload cost dominated by network/database
    round trips. *)
