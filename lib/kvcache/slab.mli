(** Slab allocator for the key-value store, modelled on Memcached's:
    size classes grow by a 1.25 factor; each class carves fixed-size
    chunks out of 64 KiB slab pages; freed chunks go on a per-class free
    list threaded through the chunks themselves (in simulated memory, so
    heap overflows really do clobber allocator state). *)

type t

val slab_page_size : int
val max_chunk_size : int

val create : ?max_bytes:int -> Vmem.Space.t -> alloc_page:(int -> int) -> t
(** [alloc_page len] must return a fresh [len]-byte region — from
    {!Vmem.Space.mmap} for a plain process or from a data-domain sub-heap
    under SDRaD — or 0 when no memory is left. [max_bytes] caps total
    slab memory (Memcached's [-m]); when reached, {!alloc} returns 0 and
    the store evicts. A page [alloc_page] cannot give caps the slab at
    the pages it has, as [max_bytes] does. *)

val chunk_size : t -> int -> int option
(** Size class that serves a request, [None] if above {!max_chunk_size}. *)

val alloc : t -> int -> int
(** Allocate a chunk for at least the given size: its address, or 0 if
    the request exceeds {!max_chunk_size} or no page is left. Like
    {!free}, it allocates nothing on the host. *)

val free : t -> addr:int -> size:int -> unit
(** Return a chunk; [size] identifies its class (as Memcached's
    [item_free] derives the class from the item). *)

val pages_allocated : t -> int
val chunks_in_use : t -> int
