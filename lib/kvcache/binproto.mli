(** The Memcached binary protocol (the subset relevant to the paper).

    This is the protocol CVE-2011-4971 actually lives in: the 32-bit
    {e total body length} field of the 24-byte request header is consumed
    as a signed quantity, so a negative value survives validation and the
    value length derived from it ([bodylen - keylen - extlen]) becomes a
    huge unsigned size once it reaches memmove. {!parse} reproduces the
    faulty derivation bit-for-bit and hands the (possibly negative)
    declared length to the server, which decides — per its [vulnerable]
    flag — whether to range-check it.

    Request header layout (network byte order):
    {v
    0 magic (0x80)   1 opcode        2-3 key length
    4 extras length  5 data type     6-7 vbucket
    8-11 total body length           12-15 opaque
    16-23 CAS
    v} *)

val header_size : int
val magic_request : int

(** Response status codes. *)
val status_oom : int
val status_einval : int

val status_busy : int
(** Temporary-failure status (0x0085): the target domain is quarantined;
    retry later. *)

val is_binary : Vmem.Space.t -> addr:int -> len:int -> bool
(** Does the buffer start with the request magic? *)

val parse : Proto.req -> Vmem.Space.t -> addr:int -> len:int -> unit
(** Decode a binary request into the shared request record: its key is
    read into the record's line buffer with one charged read, and a
    non-zero opaque field becomes the rid [bin-<opaque>], written after
    it. A [Set]'s [declared_len] carries the signed value-length
    derivation described above. Malformed frames are [Bad]. *)

val parse_trace : Vmem.Space.t -> addr:int -> len:int -> int
(** The causal trace id carried in the request's CAS field (bytes
    16-23, unused by our command subset); 0 = no context. *)

val trace_of_string : string -> int -> int
(** [trace_of_string s len]: {!parse_trace} over the raw wire bytes
    [s.[0, len)] (pre-admission decisions). *)

val with_trace : string -> int -> string
(** Patch a trace id into an already-built request frame's CAS field
    (0 leaves the frame untouched) — the binary-protocol analogue of
    the text protocol's trailing [trace=] token. *)

(** {1 Response building (server side)} *)

val res_value :
  Vmem.Space.t -> Netsim.Buf.t -> flags:int -> addr:int -> len:int -> unit
(** [res_value space out ...] makes [out] the GET reply: [flags] in 4
    extras bytes, then the [len]-byte value at [addr], read from
    simulated memory with {!Vmem.Space.read_into} straight into the
    buffer — one copy, charged as [Space.read_string addr len] is. *)

val res_stored : string
val res_deleted : string
val res_not_found : string
val res_error : int -> string

(** {1 Request building (client side)} *)

val req_get : string -> string
val req_set : key:string -> flags:int -> value:string -> string

val req_set_opaque :
  opaque:int -> key:string -> flags:int -> value:string -> string
(** [opaque] (non-zero) is the request's idempotency key: the server
    journals the response under [bin-<opaque>] and answers retries
    carrying the same opaque from the journal. 0 means "no id", as legacy
    clients send. *)

val req_set_lying : key:string -> flags:int -> body_len:int -> value:string -> string
(** A set whose total-body-length header field is attacker-chosen (e.g.
    [0xFFFFFFFF], which the vulnerable server reads as [-1]). *)

val req_delete : ?opaque:int -> string -> string

(** {1 Response parsing (client side)} *)

val parse_reply : string -> Proto.reply
(** A GET reply whose length disagrees with its body-length field — a
    frame cut inside its extras or its value — is [Failed]. *)
