(** Static compartment-policy verifier.

    SDRaD's security argument rests on the monitor's {e policy} being
    right: keys disjoint, stacks and sub-heaps sealed from other domains,
    gate buffers reachable by their callees, rewinds observed. This
    module checks those properties {e before} execution, over a pure
    {!model} of the monitor's declared state — hand-built for fixtures,
    or snapshotted from a live monitor with {!of_api}.

    Rules (each finding carries the rule name):
    - [key-overlap] (error): two live domains share a protection key, or
      a domain holds the monitor's/root's reserved key.
    - [cross-visibility] (error): a domain's stack or TLSF sub-heap is
      readable/writable under another domain's PKRU view beyond what the
      declared relationship (child accessibility, [parent_readable],
      dprotect grants) allows.
    - [gate-buffer] (error): a gate's argument/return buffer lives in
      memory its callee cannot read, or outside every declared domain.
    - [no-abort-hook] (warning): an execution domain whose rewinds nobody
      observes — no cleanup hook, no monitor-wide incident handler.
    - [unreachable] (warning): an execution domain whose parent chain
      never reaches the root domain. *)

type region = {
  base : int;
  len : int;
  rkey : int;  (** protection key the region's pages actually carry *)
}

type kind = Exec | Data
type state = Dormant | Ready | Entered

type domain = {
  udi : int;
  kind : kind;
  tid : int;  (** owning thread; [-1] for data domains *)
  parent : int;  (** 0 = root *)
  pkey : int;  (** declared key; [-1] when parked *)
  state : state;
  stack : region option;
  heap : region list;
  accessible : bool;
  parent_readable : bool;
  has_cleanup : bool;
  perms : (int * int) list;
      (** data domains: viewer udi -> {!Vmem.Prot} rights *)
}

type gate = {
  g_name : string;
  g_caller : int;
  g_callee : int;
  g_buffers : (string * int) list;  (** (label, address) *)
}

type model = {
  monitor_pkey : int;
  root_pkey : int;
  domains : domain list;
  gates : gate list;
  global_handler : bool;  (** an incident handler / supervisor is attached *)
}

val exec_domain :
  ?tid:int ->
  ?parent:int ->
  ?state:state ->
  ?stack:region ->
  ?heap:region list ->
  ?accessible:bool ->
  ?has_cleanup:bool ->
  udi:int ->
  pkey:int ->
  unit ->
  domain
(** Fixture helper: an execution domain with library defaults
    (tid 0, parent root, [Ready], accessible, parent not readable, no
    hooks). *)

val data_domain :
  ?heap:region list -> ?perms:(int * int) list -> udi:int -> pkey:int -> unit -> domain

(** {1 Findings} *)

type severity = Error | Warning

type finding = {
  rule : string;
  severity : severity;
  udi : int option;
  message : string;
}

val severity_to_string : severity -> string

val check : model -> finding list
(** Run every rule; findings come out grouped by rule, in model order —
    deterministic for a given model. *)

val errors : finding list -> int
val warnings : finding list -> int

val line : finding -> string
(** A finding's aligned report line, newline included; {!Race.to_text}
    prints its findings with it too. *)

val to_text : finding list -> string
(** One aligned line per finding plus a summary line; ["policy OK"] when
    empty. *)

val to_json : finding list -> string
(** Machine-readable report:
    [{"findings":[{rule,severity,udi,message}...],"errors":N,"warnings":N}]. *)

exception Rejected of finding list

val assert_ok : model -> unit
(** @raise Rejected when {!check} reports at least one [Error]-severity
    finding (warnings alone pass). [assert_ok (of_api sd)] checks a live
    setup, e.g. once a server's data domains exist. *)

val of_api : ?gates:gate list -> Sdrad.Api.t -> model
(** Snapshot a live monitor: domains from {!Sdrad.Api.domains_info},
    region keys re-read from the page tables (so out-of-band re-keying is
    caught), [global_handler] from {!Sdrad.Api.has_incident_handler}.
    [gates] default to none — servers pass their own gate table. *)
