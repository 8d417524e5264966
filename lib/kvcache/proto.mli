(** The Memcached text protocol (the subset the evaluation exercises):
    [get], [set], [delete] plus response formatting. Requests are parsed
    in place from simulated memory — the worker's read buffer — so a
    malicious request is already inside the sandboxable data path when it
    is interpreted.

    Text crosses between simulated memory and the OCaml heap once per
    hop. {!parse} and {!parse_trace} each read the request line out once
    (each read is charged) into the request's own buffer and scan it in
    place; {!value_reply} and {!values_reply}'s server-side writer read
    stored values straight into the reply buffer. Every builder here
    computes its length first and writes one buffer. Scanners of raw
    wire bytes read a message [s.[0, len)], so they scan a
    {!Netsim.Buf.t} in place. *)

(** {1 Requests}

    One scanner reads a request for both servers' paths and for the
    fleet router: it fills a {!req} that its owner — a server worker, a
    router worker — creates once and reuses for every request. The
    request keeps positions into the line it scanned, not copies, so a
    warm parse allocates nothing. The binary protocol ({!Binproto.parse})
    fills the same record. *)

type kind =
  | Get
  | Multi_get  (** [get k1 k2 ...] — one VALUE block per hit, then END *)
  | Set  (** stores unconditionally *)
  | Add  (** stores only if the key is absent *)
  | Replace  (** stores only if the key is present *)
  | Delete
  | Incr
  | Decr
      (** [incr]/[decr]: 64-bit unsigned arithmetic on a decimal value,
          clamped at zero on decrement as memcached does *)
  | Stats
  | Stats_telemetry
      (** [stats telemetry] — Prometheus text exposition of the server's
          metrics registry, sent verbatim as the reply body *)
  | Quit
  | Bad

type req = {
  mutable line : bytes;
      (** where a server reads the request line (a binary request's key)
          out of simulated memory; it grows, and is then replaced, when a
          line does not fit *)
  mutable src : string;
      (** what the positions below index: [line] itself, or the wire
          buffer {!scan_wire} scanned *)
  mutable verb : kind;
      (** what the line's first word names ([Bad] for none): the
          router's view, which a malformed line does not change *)
  mutable kind : kind;  (** the request; [Bad] when it is malformed *)
  mutable reason : string;  (** why a [Bad] request is one *)
  mutable key : int;
  mutable key_len : int;
      (** the line's second word, [src.[key, key + key_len)], or
          [key_len = 0]: the key of every valid keyed request, and a
          multi-get's first key *)
  mutable stop : int;
      (** end of the command part: a multi-get's keys are the words of
          [src.[key, stop)] *)
  mutable flags : int;
  mutable declared_len : int;
      (** a storage request's length field, {e as sent}; the
          CVE-2011-4971 analogue passes a negative value here *)
  mutable data_off : int;  (** address of its payload within the buffer *)
  mutable data_len : int;  (** bytes of payload actually present *)
  mutable delta : int;  (** an [incr]/[decr]'s amount *)
  mutable rid : int;
  mutable rid_len : int;
      (** a mutation's idempotency key, [src.[rid, rid + rid_len)], or
          [rid_len = 0]: a trailing [id=<rid>] token on the text wire,
          [bin-<opaque>] on the binary one; it keys the server's replay
          journal for at-most-once retries *)
  mutable trace : int;  (** the line's trace id, as {!parse_trace} reads it *)
}
(** A scanned request. Fields a [kind] does not use hold stale values. *)

val create : unit -> req

val parse : req -> Vmem.Space.t -> addr:int -> len:int -> unit
(** Reads the request line (up to the first CR) out of simulated memory
    once, into [line], with {!Vmem.Space.read_into} — charged exactly as
    reading it as a string is — and scans it in place. A word is a
    maximal run of bytes other than [' ']; a tab is part of a word. A
    trailing [trace=<16 lowercase hex>] token — the causal trace
    context, valid on any command — is dropped before dispatch. Numbers
    are decimal as memcached reads them: an optional sign, then digits,
    with no base prefix, no underscore and no overflow; flags and a
    delta take no ['-'], an exptime and a length may. A line with a
    number that is none, or with no CR, is [Bad]. *)

val parse_trace : req -> Vmem.Space.t -> addr:int -> len:int -> int
(** Trace id of the request's trailing [trace=] token (0 when absent or
    malformed): its 16 digits as a 64-bit number masked to 62 bits, as
    [Telemetry.Context.trace_id_at] decodes them; a token whose id is 0
    carries no context and is left on the line. Servers call this on
    arrival, before {!parse}, to install the context for the request's
    whole handling; it reads the line out of simulated memory into
    [line] itself, one charged read. *)

val scan_wire : req -> string -> int -> unit
(** [scan_wire r s len]: {!parse}'s scan over the raw wire bytes
    [s.[0, len)], for a router that reads requests where they arrived:
    the line ends at its first CR, else its first LF, else with the
    message, and only a CR-terminated line carries a trace. [src] is
    [s] afterwards. Nothing is read from simulated memory. *)

val trace_of_string : string -> int -> int
(** [trace_of_string s len]: {!parse_trace} over the raw wire bytes
    [s.[0, len)] — for decisions taken before the request reaches
    simulated memory (load shedding). *)

val bad : req -> string -> unit
(** Make the request [Bad] for the given reason. *)

val read_line : req -> Vmem.Space.t -> int -> int -> unit
(** [read_line r space addr n] reads [n] bytes at [addr] into [line]
    with {!Vmem.Space.read_into} and points [src] at it; [line] keeps 16
    bytes of room past them. *)

val key_string : req -> string
(** A copy of the key, for what outlives the request. *)

val rid_string : req -> string
(** A copy of the rid; [""] when there is none. *)

val word_start : string -> int -> int -> int
(** [word_start s i stop]: the first position in [i, stop) that is not a
    space, or [stop]. *)

val word_stop : string -> int -> int -> int
(** [word_stop s i stop]: the end of the word that starts at [i]. *)

val decimal_value : string -> int option
(** A stored value as [incr]/[decr] reads it: unsigned decimal by
    {!parse}'s rule. *)

val max_key_len : int

(** {1 Response formatting (server side)} *)

val stored : string
val not_stored : string
val server_error_oom : string

val server_error_oom_get : string
(** A get whose reply cannot be staged: the space has no room left. *)

val server_error_busy : string
(** Sent instead of serving when the target domain is quarantined by the
    supervisor — the client should back off and retry later. *)

val deleted : string
val not_found : string
val end_ : string
val error : string

val value_reply :
  Vmem.Space.t -> Netsim.Buf.t -> req -> flags:int -> addr:int -> len:int -> unit
(** [value_reply space out r ...] makes [out] the complete single-hit GET
    reply to [r], [VALUE <key> <flags> <len>\r\n<value>\r\nEND\r\n], the
    key copied from where [r] holds it. The value is read from simulated
    memory at [addr] with {!Vmem.Space.read_into} straight into the
    buffer: the one copy it makes, charged exactly as
    [Space.read_string addr len] is. *)

val values_reply :
  (string * int * int * 'a) list ->
  write:('a -> bytes -> int -> int -> unit) ->
  string
(** The multi-get reply: one [VALUE] block per [(key, flags, len, src)]
    hit, in order, then [END], in one buffer sized from the hits.
    [write src b off len] writes each hit's value at [b.[off]] as its
    block is reached, so a server reading values out of simulated memory
    ({!Vmem.Space.read_into}) keeps its per-hit order of accesses. *)

(** {1 Request formatting (client side)} *)

val add_tokens : Netsim.Buf.t -> rid:Bytes.t -> rid_len:int -> trace:int -> unit
(** Append the trailing [ id=<rid>] and [ trace=<16 hex>] tokens as the
    formatters below write them, the rid being the first [rid_len] bytes
    of [rid] ([rid_len = 0] writes no id token, a 0 [trace] no trace
    token): for a client that writes its request lines into a buffer. *)

val fmt_get : ?trace:int -> string -> string
(** [?trace] (here and below) appends the causal-context token
    [trace=<16 hex>] to the request line; 0 appends nothing. The request
    formatters write the bytes [Printf] would, in one buffer. *)

val fmt_multi_get : string list -> string

val fmt_storage :
  string ->
  ?rid:string ->
  ?trace:int ->
  key:string ->
  flags:int ->
  value:string ->
  unit ->
  string
(** General storage-command formatter ([set]/[add]/[replace]) taking
    both optional trailing tokens — what trace-propagating clients use. *)

val fmt_set : key:string -> flags:int -> value:string -> string
val fmt_add : key:string -> flags:int -> value:string -> string
val fmt_replace : key:string -> flags:int -> value:string -> string

val fmt_set_rid :
  rid:string -> key:string -> flags:int -> value:string -> string
(** Emits the idempotency key as a trailing [id=<rid>] token on the
    request line, keying the server's replay journal. *)

val fmt_set_lying : key:string -> flags:int -> declared:int -> value:string -> string
(** A [set] whose length field disagrees with the payload — the attack
    vector. *)

val fmt_set_lying_traced :
  trace:int -> key:string -> flags:int -> declared:int -> value:string -> string
(** {!fmt_set_lying} with a trailing [trace=] token, so the fault the
    attack triggers — and the rewind audit record behind it — can be
    linked back to the offending request in forensics output. *)

val fmt_delete : ?rid:string -> ?trace:int -> string -> string
val fmt_incr : ?rid:string -> ?trace:int -> string -> int -> string
val fmt_decr : ?rid:string -> ?trace:int -> string -> int -> string
val fmt_stats : string
val fmt_stats_telemetry : string

val fmt_stats_reply : (string * string) list -> string

(** {1 Response parsing (client side)} *)

type reply =
  | Value of string
  | Values of (string * string) list  (** multi-get hits: (key, value) *)
  | Number of int  (** incr/decr result *)
  | Miss
  | Stored
  | Deleted
  | NotFound
  | StatsReply of (string * string) list
  | Failed of string

val parse_reply : string -> reply
(** Walks [VALUE] blocks in place and copies only what the result holds:
    a single hit's value, or each hit's key and value. A block's length
    is plain digits; one that is not, or runs past the reply, makes the
    reply [Failed]. *)

val reply_ok : string -> int -> bool
(** [reply_ok s len]: [parse_reply] of [s.[0, len)] is not [Failed],
    decided with the same walk and without copying anything out of
    [s]. *)
