(** [openssl speed]-style harness for aes-256-gcm via EVP_EncryptUpdate
    (§V-C): measures encryptions across input sizes for the native library
    and for each SDRaD isolation design choice. Durations are virtual
    time, so the relative overheads are deterministic. *)

type mode =
  | Native
  | Isolated of Crypto.Evp_sdrad.choice

type row = {
  mode : mode;
  size : int;
  iterations : int;
  cycles : float;
  ops_per_sec : float;
  mb_per_sec : float;
}

val measure :
  Vmem.Space.t ->
  ?sdrad:Sdrad.Api.t ->
  mode ->
  size:int ->
  iterations:int ->
  row
(** Run [iterations] EVP_EncryptUpdate calls of [size] bytes. Must be
    called from inside a simulated thread. [sdrad] is required for
    {!Isolated} modes. *)
