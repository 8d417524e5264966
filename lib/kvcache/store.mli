(** The in-memory database: a chained hash table over slab-allocated
    items, all resident in simulated memory.

    Items carry the hash-chain link, the LRU links (Memcached evicts the
    least-recently-used item under memory pressure) and their metadata in
    a 40-byte header, all in simulated memory:
    {v
    +0   h_next    next item in the bucket chain (8)
    +8   lru_next  (8)        +16  lru_prev (8)
    +24  key_len   (4)        +28  val_len  (4)
    +32  flags     (4)        +36  reserved (4)
    +40  key bytes             +40+key_len  value bytes
    v} *)

type t

val header_size : int

val create :
  Vmem.Space.t -> buckets:int -> slab:Slab.t -> alloc_table:(int -> int) -> t
(** [buckets] is rounded up to a power of two; the bucket array comes from
    [alloc_table]. *)

val hash : string -> int
(** FNV-1a, also used by the server for sharding decisions. *)

val set : t -> key:string -> flags:int -> value_src:int -> value_len:int -> bool
(** Insert or replace ({!prepare} + {!commit}). The value is copied out of
    simulated memory at [value_src]. [false] when the item exceeds the
    largest slab class. *)

val prepare : t -> key:string -> flags:int -> value_src:int -> value_len:int -> int option
(** Allocate and fill an item without linking it — the part of a SET that
    Memcached performs outside the cache lock. *)

val commit : t -> key:string -> int -> unit
(** Unlink any existing item for [key] and link the prepared one — the
    short critical section. *)

val get : t -> string -> (int * int * int) option
(** [(value_addr, value_len, flags)] — the address points into the live
    item; callers copy promptly. Refreshes the item's LRU position. *)

val peek : t -> string -> (int * int * int) option
(** Like {!get} but without the LRU update — the read-only lookup a nested
    domain can perform against a read-protected database; the recency
    bump is deferred to the parent via {!touch}. *)

val touch : t -> string -> unit
(** Refresh a key's LRU position (no-op on a miss). *)

(** {2 Lookup by item}

    {!peek} without its option and tuple: the item's address, then its
    fields. Keys are compared in place, so a lookup allocates nothing. *)

val find : t -> string -> int
(** The item stored under the key, or 0: {!peek}'s hash charge and chain
    walk, without reading the item's fields. *)

val item_flags : t -> int -> int
val value_len : t -> int -> int

val value_addr : t -> int -> int
(** Where the item's value starts; reads its key length. {!peek} reads
    [item_flags], [value_len] and [value_addr], in that order. *)

val delete : t -> string -> bool
val mem : t -> string -> bool
val count : t -> int
val value_bytes : t -> int

val evictions : t -> int
(** Items discarded by LRU eviction since creation. *)

val lru_keys : t -> string list
(** Keys in recency order, most recently used first (test hook). *)

val item_size : key:string -> value_len:int -> int
(** Total item footprint for a key/value pair (used by the vulnerable
    code path in the server to size its undersized allocation). *)

val check : t -> string list
(** Walk every bucket chain and verify item headers are sane (lengths
    within slab bounds, chains acyclic). Returns discrepancies — used to
    demonstrate silent corruption after an unprotected overflow. *)
