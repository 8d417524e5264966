(** PKRU register values.

    On x86-64 the PKRU is a 32-bit per-thread register holding two policy
    bits for each of the 16 protection keys: bit [2k] is AD (access
    disable — no data access at all) and bit [2k+1] is WD (write
    disable — read-only). These helpers build and query register values. *)

type t = int

val all_access : t
(** 0 — every key readable and writable (the value a plain process runs
    with when no isolation is configured). *)

val allow : t -> key:int -> t
(** Grant read and write for [key]. *)

val allow_read : t -> key:int -> t
(** Grant read-only access for [key] (AD clear, WD set). *)

val deny : t -> key:int -> t
(** Revoke all access for [key]. *)

val can_read : t -> key:int -> bool
val can_write : t -> key:int -> bool
val pp : Format.formatter -> t -> unit
