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
(** An item is [header_size] bytes, then its key, then its value: the
    footprint the vulnerable server paths size their undersized
    allocation by. *)

val create :
  Vmem.Space.t ->
  buckets:int ->
  slab:Slab.t ->
  alloc_table:(int -> int) ->
  free_table:(int -> unit) ->
  t
(** [buckets] is rounded up to a power of two; the bucket array comes from
    [alloc_table], which returns 0 when no memory is left, and goes back
    through [free_table].

    The table grows as Memcached's [assoc_expand] does: a {!commit} that
    leaves more than 1.5 items a bucket doubles it. The new array comes
    from [alloc_table], every item is relinked into it in simulated
    memory (each key read and hashed again and each link that changes
    rewritten, all charged) and the old array is freed. A table
    [alloc_table] cannot double keeps its size from then on.
    @raise Failure when [alloc_table] has no memory for the first
    array. *)

val hash : string -> int
(** FNV-1a, also used by the server for sharding decisions. *)

(** {2 Operations}

    Every operation takes its key where it lies, as [s off len], the
    bytes [s.[off, off + len)] — where a scanned request holds it — so a
    request's store work copies no key out of its line. A GET is
    {!find}, then on a hit {!bump}, {!item_flags}, {!value_len} and
    {!value_addr}, in that order; a SET is {!prepare}, then {!commit};
    a DELETE is {!remove}. *)

val find : t -> string -> int -> int -> int
(** The item stored under the key, or 0: charges the key's hash and
    walks its chain, comparing each stored key in place, without reading
    the item's fields. *)

val item_flags : t -> int -> int
val value_len : t -> int -> int

val value_addr : t -> int -> int
(** Where the item's value starts; reads its key length. {!peek} reads
    [item_flags], [value_len] and [value_addr], in that order. *)

val bump : t -> int -> unit
(** Refresh a found item's LRU position. *)

val touch : t -> string -> int -> int -> unit
(** Refresh a key's LRU position (no-op on a miss); charges no hash. *)

val remove : t -> string -> int -> int -> bool
(** Unlink and free the key's item; [false] on a miss. *)

val prepare :
  t -> string -> int -> int -> flags:int -> value_src:int -> value_len:int ->
  int
(** Allocate and fill an item without linking it — the part of a SET that
    Memcached performs outside the cache lock — evicting as needed. The
    value is copied out of simulated memory at [value_src]. 0 when the
    item exceeds the largest slab class, or when the slab has no chunk
    for it and nothing is left to evict. *)

val commit : t -> string -> int -> int -> int -> unit
(** [commit t s off len item]: unlink any existing item for the key and
    link the prepared one — the short critical section — then grow the
    table if it has passed 1.5 items a bucket. *)

val peek : t -> string -> (int * int * int) option
(** [(value_addr, value_len, flags)] of the item stored under a whole
    string key, without the LRU update: {!find}, then the GET's reads
    but {!bump}. The address points into the live item; callers copy
    promptly. It is the read-only lookup a nested domain can perform
    against a read-protected database; the recency bump is deferred to
    the parent via {!touch}. *)

val count : t -> int
val value_bytes : t -> int

val evictions : t -> int
(** Items discarded by LRU eviction since creation. *)

val lru_keys : t -> string list
(** Keys in recency order, most recently used first (test hook). *)

val check : t -> string list
(** Walk every bucket chain and verify item headers are sane (lengths
    within slab bounds, chains acyclic, each item in its key's bucket and
    reached once), then the LRU list against the chains and the item
    count. Returns discrepancies, in the order found — used to
    demonstrate silent corruption after an unprotected overflow. Its
    loads are checked and charged; an empty bucket costs one load and
    allocates nothing. *)

type layout = {
  table : int;
      (** address of the current bucket array, 8 bytes a bucket; it moves
          when the table grows *)
  buckets : int;  (** a power of two *)
  lru_head : int;  (** most recently used item, 0 when empty *)
  lru_tail : int;  (** least recently used item *)
}

val layout : t -> layout
(** Where the store's structure starts in simulated memory (test hook:
    a walk of its own, such as a reference {!check}, starts there). *)
