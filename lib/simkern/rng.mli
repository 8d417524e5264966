(** Deterministic, splittable pseudo-random number generator.

    A single root seed drives every source of randomness in the simulator
    (scheduler tie-breaking, workload key choice, value contents), so that a
    whole experiment is reproducible bit-for-bit. The generator is
    splitmix64, which is fast, passes BigCrush, and splits cleanly into
    independent streams. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. Used to
    hand each simulated thread or workload its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bits53 : t -> int
(** The draw {!float} scales, as an int: uniform in [\[0, 2{^53})], and
    [float_of_int (bits53 t) *. 0x1.0p-53] is bit-for-bit the value
    {!float} returns for the same draw. A float result crossing a module
    boundary is boxed (INTERNALS §17); this one is not. *)

val below : t -> float -> bool
(** [below t p] is [float t < p], drawn and compared without boxing. *)

val bool : t -> bool

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniform lowercase letters (for generating
    payloads). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
