(** Durable two-phase rewind transaction log.

    Backs the reference monitor's rewind with an intent record written to
    monitor-root simulated memory {e before} any domain is discarded, and
    a bounded append-only audit log of committed incidents. A fault
    arriving mid-rewind resumes the in-flight discard from the intent's
    progress counter; every completed rewind leaves exactly one
    queryable incident record. See INTERNALS §12 for the on-"disk"
    layout. *)

type t

type kind = [ `Segv | `Stack_smash | `Explicit ]

(** One domain of a discarded subtree, as captured at intent time. *)
type extent = {
  x_udi : int;
  x_was : [ `Entered | `Ready | `Dormant ];  (** state before the rewind *)
  x_stack : int * int;  (** stack base, length *)
  x_regions : (int * int) list;  (** sub-heap regions, (base, length) *)
}

(** A committed incident, continuations merged into one record. *)
type record = {
  r_id : int;
  r_target : int;  (** udi the trigger fault failed in *)
  r_tid : int;
  r_kind : kind;
  r_si : string;  (** si_code rendering, ["-"] when not a SEGV *)
  r_fault_addr : int;
  r_msg : string;  (** access kind or explicit abort message *)
  r_subtree : extent list;  (** discard order *)
  r_replays : int;  (** cumulative journal replay hits at commit *)
  r_start : float;  (** virtual time the intent was written *)
  r_end : float;  (** virtual time of the commit *)
  r_interrupts : int;  (** faults absorbed mid-rewind *)
  r_events : Flight.event list;
      (** flight-recorder excerpt captured at intent time — the last few
          events of each victim domain, continuations merged, oldest
          first *)
}

val create : Vmem.Space.t -> heap:Tlsf.t -> cap:int -> t
(** Allocates the log header from [heap]. At most [cap] committed
    incidents are retained; older ones are evicted and counted. *)

(** {1 Drafting an intent}

    The monitor stages what an intent record says about its victims — the
    subtree's extents and the flight-recorder excerpt — in a {!draft}
    before {!begin_incident} allocates the block. A draft is host memory
    the monitor keeps and clears for each rewind, so staging allocates
    nothing once it has grown to the subtrees it is given. *)

type draft

val draft : unit -> draft
val draft_clear : draft -> unit

val draft_domain :
  draft ->
  udi:int ->
  was:[ `Entered | `Ready | `Dormant ] ->
  stack_base:int ->
  stack_len:int ->
  unit
(** Stage the next domain of the subtree, in discard order; its regions
    follow with {!draft_region}. *)

val draft_region : draft -> addr:int -> len:int -> unit
(** Stage a sub-heap region of the last staged domain. *)

val draft_events : draft -> Flight.t -> udi:int -> n:int -> unit
(** Stage the last [n] flight-recorder events of [udi]'s ring after the
    events already staged ({!Flight.excerpt_into}: every retained event
    is read, with the loads {!Flight.events} makes). *)

val begin_incident :
  t ->
  continue:bool ->
  target:int ->
  tid:int ->
  kind:kind ->
  si:string ->
  fault_addr:int ->
  msg:string ->
  at:int ->
  draft ->
  bool
(** Phase 1: durably record the subtree about to be discarded, together
    with the flight-recorder excerpt — the victims' last recorded
    actions, frozen before their memory is thrown away — both as staged
    in the draft. [~continue:true] chains onto the in-flight incident
    (collateral exits of a grandparent rewind) instead of opening a new
    one. Returns [false] if the record could not be stored even after
    evicting history — the rewind then proceeds unaudited. *)

val pending : t -> bool
(** An intent record is in flight (read from durable memory). *)

val progress : t -> int
(** Number of domains of the active intent already discarded. *)

val domain_at : t -> int -> int
(** [domain_at t i] is the udi the active intent expects at discard step
    [i] — used to cross-check the live tree when resuming — or -1 when
    no intent is in flight or it has no step [i]. *)

val mark_discarded : t -> int -> unit
(** Durably advance the active intent's progress counter. *)

val note_interrupt : t -> unit
(** Count a fault absorbed mid-rewind on the in-flight incident. *)

val commit : t -> at:int -> journal_replays:int -> unit
(** Phase 3: stamp the end time, link the incident into the audit ring
    and clear the intent pointer. No-op when nothing is in flight. *)

val records : t -> record list
(** Committed incidents, oldest first. *)

val appended : t -> int
(** Total incidents ever committed (from the durable header). *)

val dropped : t -> int
(** Total incidents evicted from the ring (from the durable header). *)

val retained : t -> int
(** Incidents currently held in the ring. *)

val bytes : t -> int
(** Monitor-heap bytes currently held by record blocks (the header is
    not counted — it lives for the monitor's whole lifetime). *)

val kind_to_string : kind -> string
