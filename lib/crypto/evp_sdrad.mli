(** OpenSSL isolated in a persistent SDRaD domain (§IV-A, Listing 2).

    The EVP context lives in an {e inaccessible} persistent nested domain,
    so the application's cryptographic keys survive (and stay confidential
    under) faults in the rest of the program. Arguments and results cross
    the boundary according to one of the paper's three design choices:

    - {!Copy_in_out} (choice 2): both input and output are copied through
      the shared data domain — needed when the parent is inaccessible to
      the OpenSSL domain.
    - {!Read_parent} (choice 1): the OpenSSL domain reads the caller's
      input directly (the root domain is readable), only the output is
      copied back through the data domain.
    - {!Shared_buffers} (choice 3): the caller places input and output
      buffers in the shared data domain itself ({!data_malloc}), so no
      copying happens at all — the fastest option in the paper's
      evaluation.

    Every call is guarded: a fault inside the OpenSSL domain (or a stack
    canary failure) returns [Error fault]; the domain and its key material
    must then be re-created with {!recover} — this is the paper's "the
    application may only be able to recover by re-initializing the
    affected cryptographic context". *)

type choice = Copy_in_out | Read_parent | Shared_buffers

type t

val setup :
  Sdrad.Api.t ->
  ?udi:int ->
  choice:choice ->
  key:string ->
  iv:string ->
  unit ->
  t
(** Create the persistent OpenSSL domain (default udi 14), the shared data
    domain (udi 15), and an encryption context inside the former.
    Must be called from the root domain. *)

val choice : t -> choice

val encrypt_update :
  t -> out:int -> in_:int -> inl:int -> (int, Sdrad.Types.fault) result
(** The [__wrap_EVP_EncryptUpdate] of Listing 2. [in_]/[out] are caller
    buffers — in root memory for {!Copy_in_out}/{!Read_parent}, in the
    shared data domain for {!Shared_buffers}. *)

val encrypt_final : t -> tag_out:int -> (string, Sdrad.Types.fault) result
(** Finalize; returns the tag (also written at [tag_out] when nonzero). *)

val inject_fault_next_call : t -> unit
(** Testing hook: make the next wrapped call corrupt memory inside the
    OpenSSL domain, as a stand-in for a memory-safety bug in the library. *)

val recover : t -> key:string -> iv:string -> unit
(** Re-create the domain and a fresh context after a fault. *)

val data_malloc : t -> int -> int
(** Allocate a caller-visible buffer in the shared data domain (for
    {!Shared_buffers}). *)

val data_free : t -> int -> unit
val destroy : t -> unit
