(** Rewind-aware data-race and rewind-atomicity detector.

    Dynamic detection over the deterministic simulation: FastTrack-style
    vector clocks over simkern fibers decide happens-before, Eraser-style
    per-granule locksets decorate the reports, and shadow cells attach to
    {!Vmem.Space} at checked-access granularity via the space's access
    hook (the same boundary the heap sanitizer instruments, so allocator
    metadata traffic is already filtered out).

    Finding classes (rule names registered in {!Rules}):
    - [shared-race] — two fibers touch the same shared granule with no
      happens-before edge between them, at least one a write.
    - [rewind-atomicity] — a write to shared (data-domain) memory from
      inside a nested domain with no {!Sdrad.Dlock} held. A rewind of
      that domain discards its execution but not the shared write:
      torn state is published that lock poisoning never flags.
    - [lock-discipline] — a Dlock acquired in one domain and released in
      another, or a poisoned Dlock cleared without any guarding write.

    Happens-before edges: spawn/join, mutex release→acquire, gate edges
    (every domain enter/exit ticks the fiber's clock) and rewind edges
    (an abnormal exit ticks the victim fiber; poison-release orders the
    discarded critical section before the next acquirer through the
    lock's clock).

    The detector is {e host-side only}: it allocates no simulated
    memory, performs no checked accesses and charges no virtual time, so
    a run with the detector attached is byte-for-byte identical to the
    same run without it. The one exception is {!publish}, which writes
    findings into the flight recorder and must be called deliberately. *)

type t

type finding = {
  rule : string;
  severity : Policy.severity;
  udi : int option;  (** domain context, when domain-shaped *)
  addr : int option;  (** granule base address, when address-shaped *)
  tid : int;  (** acting simulated thread; [-1] when not thread-shaped *)
  message : string;
}

val attach : ?granule:int -> ?track_root:bool -> Sdrad.Api.t -> t
(** Attach a detector to a running instance. Tracks every data domain's
    pages (current and future); [track_root] additionally tracks the
    root heap (defaults to [false] — root memory is single-domain by
    construction and tracking it mostly measures the allocator).
    [granule] is the shadow-cell width in bytes (1, 2, 4, 8 or 16;
    default 8). At most 64 findings are stored; counters keep counting
    past the cap.

    Installs the space access hook, the API race observer and (shared
    with other live detectors) the scheduler trace hook, and registers
    [race_*] metrics on the instance's registry. *)

val detach : t -> unit
(** Remove the hooks. Metrics series remain registered and freeze at
    their final values. Idempotent. *)

val findings : t -> finding list
(** Stored findings in detection order (capped at [max_findings]). *)

val class_count :
  t -> [ `Shared_race | `Rewind_atomicity | `Lock_discipline ] -> int
(** Total findings per class, including those past the storage cap. *)

val total : t -> int

val errors : t -> int

val warnings : t -> int

val to_text : t -> string
(** Human-readable report, one finding per line plus a summary tail;
    same shape as {!Policy.to_text}. *)

val to_json : t -> string
(** Single-line JSON object: [{"findings":[...],"shared_race":n,...}]. *)

val publish : t -> unit
(** Record each stored finding as a {!Checkpoint.Flight.Race} event on
    the instance's flight recorder ([udi] = finding domain, [arg] =
    granule address). This is the only operation that touches simulated
    state — call it from inside the simulation, after the workload, so
    detection itself stays invisible to the run. *)
