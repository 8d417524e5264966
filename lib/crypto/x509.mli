(** Toy X.509 certificate verification containing an analogue of
    CVE-2022-3786 (§V-C of the paper).

    The real CVE: when OpenSSL 3.0.x processes a certificate whose
    otherName/SmtpUTF8Mailbox field contains a punycode label,
    [ossl_a2ulabel] appends a ['.'] separator to a fixed-size stack buffer
    without checking for space, allowing an attacker-controlled number of
    overflow bytes — detectable by a stack canary, which makes it a
    denial-of-service through process termination that SDRaD converts into
    a connection-scoped rewind.

    Our analogue: {!verify} decodes the certificate's punycode altname
    into a 32-byte stack buffer allocated with {!Sdrad.Api.with_stack_frame};
    the decoder bounds its own output correctly but appends the label
    separator unchecked, exactly one byte past the buffer when the decoded
    label fills it. *)

val make_cert : cn:string -> altname:string -> string
(** Serialize a toy certificate. *)

val malicious_altname : string
(** A punycode altname whose decoded form fills the stack buffer exactly,
    so the unchecked separator lands on the canary. *)

val benign_altname : string

val verify : Sdrad.Api.t -> string -> bool
(** Parse and "verify" a certificate in the calling thread's current
    domain. Returns [true] for a well-formed certificate. A malicious
    altname smashes the stack canary, triggering an abnormal domain exit
    (or thread termination when run unprotected in the root domain). *)
