(** Phased HTTP/1.1 request parser working on simulated memory, modelled
    on NGINX's [ngx_http_parse_*] family. Parsing proceeds in phases that
    the SDRaD variant brackets with separate domain transitions, exactly
    as the paper instruments NGINX (§V-B).

    Each line is found with {!Vmem.Space.memchr}, read into the parser's
    own line buffer with {!Vmem.Space.read_into} (the check and charge of
    [read_string]) and scanned there in place. The results are fields of
    the parser, which a server keeps one of per worker: a warm request's
    parse allocates nothing unless it carries an [X-Request-Id] or an
    [X-Client-Cert].

    [parse_complex_uri] contains the CVE-2009-2629 analogue: when
    normalizing ["../"] segments, the vulnerable variant scans backwards
    for the previous ['/'] without a lower bound, so a URI with more
    ["../"] than path depth walks below the destination buffer — a buffer
    underflow that reads/writes foreign memory until the mapping (or the
    protection key) stops it. *)

type connection =
  | No_field
  | Close  (** ["Connection: close"], in any case *)
  | Persist  (** any other Connection value *)

type t = private {
  mutable line : Bytes.t;  (** the line being scanned *)
  mutable meth : string;  (** ["GET"], ["HEAD"] or ["POST"] *)
  mutable raw_uri_off : int;  (** address of the URI as sent *)
  mutable raw_uri_len : int;
  mutable version : string;  (** ["HTTP/1.0"] or ["HTTP/1.1"] *)
  mutable connection : connection;  (** the first Connection field *)
  mutable content_length : int;
      (** -1 with no Content-Length field, -2 when one is malformed or two
          differ; {!body_length} reads it *)
  mutable request_id : string option;  (** the first X-Request-Id *)
  mutable client_cert : string option;  (** the first X-Client-Cert *)
}
(** A request being parsed. [meth] and [version] are always one of the
    module's own literals. Header values are trimmed as [String.trim]
    does; only the fields above are kept. *)

exception Bad_request of string

val create : unit -> t
(** A parser for one worker's requests, one at a time; its line buffer
    grows to the longest line seen. *)

val request_line : t -> Vmem.Space.t -> addr:int -> len:int -> int
(** Parse ["METHOD uri HTTP/x.y\r\n"] at [addr] into [meth], the raw URI
    and [version]; returns the address just past it.
    @raise Bad_request on malformed input. *)

val parse_request_line : Vmem.Space.t -> addr:int -> len:int -> t * int
(** {!request_line} into a fresh parser. *)

val parse_complex_uri :
  Vmem.Space.t ->
  src:int ->
  len:int ->
  dst:int ->
  dst_cap:int ->
  vulnerable:bool ->
  int
(** Normalize the URI at [src] into [dst] (percent-decoding, slash
    merging, ["."]/[".."] resolution); returns the normalized length.
    With [vulnerable:false], over-popping raises {!Bad_request}; with
    [vulnerable:true] it underflows below [dst]. *)

val headers : t -> Vmem.Space.t -> addr:int -> len:int -> int
(** Parse header lines up to the blank line into [connection],
    [content_length], [request_id] and [client_cert]; returns the offset
    past the terminating CRLF CRLF. Field names match in any case.
    @raise Bad_request on a line without a colon or a missing CRLF. *)

val parse_headers : Vmem.Space.t -> addr:int -> len:int -> t * int
(** {!headers} into a fresh parser. *)

val body_length : t -> avail:int -> int
(** Body length the Content-Length fields imply (0 when there are none),
    checked against the [avail] bytes actually present. Per RFC 7230
    §3.3.2–3.3.3 a value is [1*DIGIT] that does not overflow, and every
    Content-Length field must carry the same value.
    @raise Bad_request otherwise. *)

val keep_alive : t -> bool
(** RFC 7230 §6.3: HTTP/1.1 persists unless "Connection: close"; HTTP/1.0
    closes unless another Connection value asks to persist. *)
