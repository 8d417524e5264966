(** Consistent-hash ring with virtual nodes — the kvcache router's key →
    shard map.

    Each member is placed at [vnodes] deterministic points on a 62-bit
    ring (FNV-1a over ["<member>#<v>"] — the hash family
    {!Telemetry.Context} uses — plus a splitmix64 finalizing mix, so
    placement is a pure function of the membership: no randomness, no
    wall clock). A key routes to the member owning the first point at or
    clockwise after the key's hash.

    The property that makes this the right router map for failover: when
    one of [N] members leaves (or joins), only the keys owned by the
    affected ranges move — about [K/N] of [K] keys, not all of them —
    and on removal every surviving key keeps its owner. The cluster
    relies on that stability twice: a failover only re-seeds the drained
    shard's own writes, and a membership change never invalidates the
    placement of healthy shards' data. *)

type t

val create : ?vnodes:int -> unit -> t
(** An empty ring. [vnodes] (default 64) is the number of points each
    member gets; more points smooth the per-member load spread at the
    cost of a larger sorted point table.
    @raise Invalid_argument when [vnodes] is non-positive. *)

val add : t -> int -> unit
(** Add a member (idempotent). *)

val remove : t -> int -> unit
(** Remove a member (idempotent); the departed member's ranges fall to
    their clockwise successors. *)

val members : t -> int list
(** Current members, ascending. *)

val size : t -> int

val route : t -> string -> int
(** Owner of a key. @raise Failure on an empty ring. *)

val route_sub : t -> string -> int -> int -> int
(** [route_sub t s off len]: {!route} of the key [s.[off, off + len)],
    hashed where it lies — the router's per-request lookup, which copies
    no key. *)

val hash : string -> int
(** The ring's point hash (FNV-1a folded to 62 bits), exposed for
    tests. *)
