(** Bounded replay journal for at-most-once request execution.

    Maps idempotency keys (client request ids) to the response sent when
    the mutation first committed. The structure is root-domain ("monitor
    root") state: it is only ever touched by the parent after a nested
    domain has exited normally, so discarding a nested domain's heap can
    neither reclaim nor corrupt it — a retry arriving {e after} a rewind
    is still answered from the journal instead of being applied twice.

    Lookup/record are plain root-context operations (no virtual-time
    charge beyond the caller's); the capacity bound evicts the oldest
    entry FIFO, which bounds the duplicate-suppression window. *)

type t

val create :
  ?metrics:Telemetry.Metrics.t -> ?name:string -> capacity:int -> unit -> t
(** [create ~capacity ()] builds an empty journal. With [metrics], three
    series are registered under [name] (default ["journal"]):
    [<name>_replay_hits_total], [<name>_replay_journal_evictions_total]
    and the [<name>_replay_journal_entries] gauge.
    @raise Invalid_argument when [capacity <= 0]. *)

val find : t -> string -> string option
(** The journaled response for this request id, counting a replay hit
    when present. *)

val mem : t -> string -> bool
(** Presence check that does not count as a replay hit. *)

val record : t -> string -> string -> unit
(** Journal the response for a freshly committed mutation, evicting the
    oldest entry if the journal is full. Recording an id already present
    is a no-op (first write wins — the op committed only once). *)

val size : t -> int
val hits : t -> int
val evictions : t -> int
