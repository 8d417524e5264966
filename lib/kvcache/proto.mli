(** The Memcached text protocol (the subset the evaluation exercises):
    [get], [set], [delete] plus response formatting. Requests are parsed
    in place from simulated memory — the connection buffer — so a
    malicious request is already inside the sandboxable data path when it
    is interpreted. *)

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
(** A trailing [trace=<16 hex>] token on the request line — the causal
    trace context, valid on any command — is stripped before dispatch;
    read it with {!parse_trace}. *)

val parse_trace : Vmem.Space.t -> addr:int -> len:int -> int64
(** Trace id of the request's trailing [trace=] token ([0L] when absent
    or malformed). Servers call this on arrival, before {!parse}, to
    install the context for the request's whole handling. *)

val trace_of_string : string -> int64
(** {!parse_trace} over raw wire bytes — for decisions taken before the
    request reaches simulated memory (load shedding). *)

val trace_of_words : string list -> int64
(** The same extraction from a request line already split into its
    non-empty space-separated words (for a router that parses the line
    once). *)

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
val value_header : key:string -> flags:int -> len:int -> string

val value_reply : key:string -> flags:int -> value:string -> string
(** The complete single-hit GET reply, byte-for-byte
    [value_header ~key ~flags ~len:(String.length value) ^ value ^ "\r\n"
    ^ end_], built in one allocation (the value is copied once). *)

(** {1 Request formatting (client side)} *)

val fmt_get : ?trace:int64 -> string -> string
(** [?trace] (here and below) appends the causal-context token
    [trace=<16 hex>] to the request line; [0L] appends nothing. *)

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
(** [_rid] variants emit the idempotency key as a trailing [id=<rid>]
    token on the request line, keying the server's replay journal. *)

val fmt_add_rid :
  rid:string -> key:string -> flags:int -> value:string -> string

val fmt_replace_rid :
  rid:string -> key:string -> flags:int -> value:string -> string

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
