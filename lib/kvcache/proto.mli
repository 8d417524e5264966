(** The Memcached text protocol (the subset the evaluation exercises):
    [get], [set], [delete] plus response formatting. Requests are parsed
    in place from simulated memory — the connection buffer — so a
    malicious request is already inside the sandboxable data path when it
    is interpreted.

    Text crosses between simulated memory and the OCaml heap once per
    hop. {!parse} and {!parse_trace} each read the request line out once
    (each read is charged) and scan it in place; {!value_reply} and
    {!values_reply}'s server-side writer read stored values straight
    into the reply buffer. Every builder here computes its length first
    and writes one buffer. Scanners of raw wire bytes read a message
    [s.[0, len)], so they scan a {!Netsim.Buf.t} in place. *)

type cmd =
  | Get of string
  | Multi_get of string list
      (** [get k1 k2 ...] — one VALUE block per hit, then END *)
  | Set of {
      mode : [ `Set | `Add | `Replace ];
          (** [set] stores unconditionally; [add] only if the key is
              absent; [replace] only if it is present *)
      key : string;
      flags : int;
      declared_len : int;
          (** the length field from the request line, {e as sent}; the
            CVE-2011-4971 analogue passes a negative value here *)
      data_off : int;  (** offset of the payload within the buffer *)
      data_len : int;  (** bytes of payload actually present *)
      rid : string option;
          (** idempotency key from a trailing [id=<rid>] token; keys the
              server's replay journal for at-most-once retries *)
    }
  | Delete of { key : string; rid : string option }
  | Arith of { key : string; delta : int; negate : bool; rid : string option }
      (** [incr]/[decr]: 64-bit unsigned arithmetic on a decimal value,
          clamped at zero on decrement as memcached does *)
  | Stats
  | Stats_telemetry
      (** [stats telemetry] — Prometheus text exposition of the server's
          metrics registry, sent verbatim as the reply body *)
  | Quit
  | Bad of string

val parse : Vmem.Space.t -> addr:int -> len:int -> cmd
(** Reads the request line (up to the first CR) out of simulated memory
    once and scans it in place. A word is a maximal run of bytes other
    than [' ']; a tab is part of a word. A trailing
    [trace=<16 lowercase hex>] token — the causal trace context, valid on
    any command — is dropped before dispatch; read it with
    {!parse_trace}. Only the key, the keys of a multi-get and the rid are
    copied out of the line; numbers read as [int_of_string_opt] reads
    them. *)

val parse_trace : Vmem.Space.t -> addr:int -> len:int -> int64
(** Trace id of the request's trailing [trace=] token ([0L] when absent
    or malformed): its 16 digits as a 64-bit number masked to 62 bits, as
    [Telemetry.Context.trace_id_at] decodes them; a token whose id is 0
    carries no context and is left on the line. Servers call this on
    arrival, before {!parse}, to install the context for the request's
    whole handling; it reads the line out of simulated memory itself. *)

val trace_of_string : string -> int -> int64
(** [trace_of_string s len]: {!parse_trace} over the raw wire bytes
    [s.[0, len)] — for decisions taken before the request reaches
    simulated memory (load shedding, the router). *)

(** {2 The scanner, for a router that reads a raw line} *)

val word_start : string -> int -> int -> int
(** [word_start s i stop]: the first position in [i, stop) that is not a
    space, or [stop]. *)

val word_stop : string -> int -> int -> int
(** [word_stop s i stop]: the end of the word that starts at [i]. *)

val line_rid : string -> int -> string option
(** [line_rid s stop]: the rid {!parse} finds on the line [s.[0, stop)]:
    after a valid trailing trace token is dropped, the last word if it is
    [id=<rid>] with a non-empty rid. *)

val max_key_len : int

(** {1 Response formatting (server side)} *)

val stored : string
val not_stored : string
val server_error_oom : string

val server_error_busy : string
(** Sent instead of serving when the target domain is quarantined by the
    supervisor — the client should back off and retry later. *)

val deleted : string
val not_found : string
val end_ : string
val error : string

val value_reply :
  Vmem.Space.t ->
  Netsim.Buf.t ->
  key:string ->
  flags:int ->
  addr:int ->
  len:int ->
  unit
(** [value_reply space out ...] makes [out] the complete single-hit GET
    reply, [VALUE <key> <flags> <len>\r\n<value>\r\nEND\r\n]. The value
    is read from simulated memory at [addr] with {!Vmem.Space.read_into}
    straight into the buffer: the one copy it makes, charged exactly as
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

val add_tokens : Netsim.Buf.t -> rid:string option -> trace:int64 -> unit
(** Append the trailing [ id=<rid>] and [ trace=<16 hex>] tokens as the
    formatters below write them ([0L] writes no trace token): for a
    client that writes its request lines into a buffer. *)

val fmt_get : ?trace:int64 -> string -> string
(** [?trace] (here and below) appends the causal-context token
    [trace=<16 hex>] to the request line; [0L] appends nothing. The
    request formatters write the bytes [Printf] would, in one buffer. *)

val fmt_multi_get : string list -> string

val fmt_storage :
  string ->
  ?rid:string ->
  ?trace:int64 ->
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
  trace:int64 -> key:string -> flags:int -> declared:int -> value:string -> string
(** {!fmt_set_lying} with a trailing [trace=] token, so the fault the
    attack triggers — and the rewind audit record behind it — can be
    linked back to the offending request in forensics output. *)

val fmt_delete : ?rid:string -> ?trace:int64 -> string -> string
val fmt_incr : ?rid:string -> ?trace:int64 -> string -> int -> string
val fmt_decr : ?rid:string -> ?trace:int64 -> string -> int -> string
val fmt_stats : string
val fmt_stats_telemetry : string
val quit : string

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
    a single hit's value, or each hit's key and value. A block whose
    length is negative or runs past the reply is [Failed]. *)

val reply_ok : string -> int -> bool
(** [reply_ok s len]: [parse_reply] of [s.[0, len)] is not [Failed],
    decided with the same walk and without copying anything out of
    [s]. *)
