(** OpenSSL-EVP-style streaming cipher interface over simulated memory.

    The cipher context is a fixed-size blob living at a caller-chosen
    address in the simulated address space — typically inside an SDRaD
    domain's sub-heap, so that protection keys genuinely guard the key
    material. Each call loads the context, performs AES-256-GCM, and
    stores the updated context back; compute cost is charged to the
    calling thread at a realistic cycles-per-byte rate. *)

val ctx_size : int
val cipher_block_size : int

val encrypt_init : Vmem.Space.t -> ctx:int -> key:string -> iv:string -> unit
(** Initialize an encryption context at [ctx] (at least {!ctx_size}
    bytes). *)

val aad_update : Vmem.Space.t -> ctx:int -> in_:int -> inl:int -> unit
(** Absorb associated (authenticated, not encrypted) data; must precede
    the payload, as in [EVP_EncryptUpdate] with a NULL output buffer. *)

val encrypt_update : Vmem.Space.t -> ctx:int -> out:int -> in_:int -> inl:int -> int
(** GCM is a stream mode: returns [inl] (bytes written at [out]). *)

val encrypt_final : Vmem.Space.t -> ctx:int -> tag_out:int -> unit
(** Write the 16-byte tag at [tag_out] and invalidate the context. *)

val decrypt_init : Vmem.Space.t -> ctx:int -> key:string -> iv:string -> unit
val decrypt_update : Vmem.Space.t -> ctx:int -> out:int -> in_:int -> inl:int -> int

val decrypt_final : Vmem.Space.t -> ctx:int -> tag:int -> bool
(** Verify the 16-byte tag at [tag]; [false] means authentication failed. *)
