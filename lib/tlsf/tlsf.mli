(** Two-Level Segregated Fit allocator over simulated memory.

    This is the allocator SDRaD uses for per-domain sub-heaps (§IV-C of the
    paper): a good-fit, constant-time allocator whose pools are fully
    disjoint memory regions, so allocations in one domain can never be
    satisfied from another domain's memory. Following Masmano et al. and
    the mattconte/tlsf layout, free blocks are indexed by a two-level
    (first-level power of two, second-level linear subdivision) bitmap.

    All block metadata — size/flag words, physical-neighbour links and
    free-list links — lives {e inside} the simulated address space, subject
    to protection-key checks, which is what makes heap overflows in the
    simulation corrupt real allocator state exactly as they would in C.

    One {!t} is one TLSF control structure (one domain sub-heap). Regions
    are added with {!add_region}; an entire control can be absorbed into
    another with {!merge} (the SDRaD sub-heap merge extension). *)

type t

exception Out_of_memory
exception Heap_corrupted of string
(** Raised when an operation encounters metadata that fails a sanity check
    (e.g. freeing a pointer whose header is not a live block). *)

val create : Vmem.Space.t -> name:string -> t

val reset : t -> unit
(** Empty the control as {!create} made it — no regions, no blocks,
    counters at 0, no injection hook, sanitize mode off — keeping its
    name and its arrays, so a caller can reuse it without allocating.
    The regions it had are forgotten, not unmapped. *)

val space : t -> Vmem.Space.t
val name : t -> string

val add_region : t -> addr:int -> len:int -> unit
(** Hand a mapped region (from {!Vmem.Space.mmap}) to the allocator. [len] must
    be at least {!min_region_len}. *)

val min_region_len : int
val block_overhead : int
(** Bytes of metadata per live allocation (16). *)

val malloc : t -> int -> int
(** Allocate at least the given number of bytes (8-byte aligned); returns
    the payload address. O(1). @raise Out_of_memory when no region can
    satisfy the request. *)

val malloc_opt : t -> int -> int option

val try_malloc : t -> int -> int
(** {!malloc} that returns 0, never a payload address, where {!malloc}
    raises [Out_of_memory]. *)

val set_inject_failure : t -> (int -> bool) option -> unit
(** Fault injection: when the hook answers [true] for a request size, that
    allocation fails ([malloc_opt] returns [None], {!malloc} raises
    [Out_of_memory]) as if the heap were exhausted. [None] disarms. *)

(** {1 Heap-poison sanitizer}

    A sanitized heap keeps the invariant that {e every byte of every
    region is poisoned in the space's shadow map except live allocation
    payloads}. Each allocation carries a trailing 16-byte redzone (excluded
    from {!usable_size}); {!free} fills the dying payload with [0xFD]
    and re-poisons it. A checked access that touches a redzone or a
    freed block raises {!Vmem.Space.Fault} with code
    [Vmem.Space.POISON] — a detected, rewindable incident instead of
    silent corruption. The allocator's own metadata accesses run with
    the scan suspended ({!Vmem.Space.sanitizer_bypass}). *)

val set_sanitize : t -> bool -> unit
(** Enable heap-poison mode. Must be called before the first
    {!add_region} (@raise Invalid_argument otherwise); enables the
    space's sanitizer as a side effect. *)

val free : t -> int -> unit
(** Release a payload address, coalescing with free physical neighbours.
    @raise Heap_corrupted on double free or foreign pointer. *)

val usable_size : t -> int -> int
(** Physical payload size of a live allocation; on a sanitized heap the
    redzone is excluded, i.e. the bytes the caller may touch. *)

val merge : t -> from:t -> unit
(** Absorb every region of [from] into [t]: free blocks of [from] become
    allocatable from [t]; live allocations of [from] become live
    allocations of [t] (and must subsequently be freed via [t]). [from] is
    emptied. The caller is responsible for re-keying the pages
    ({!Vmem.Space.pkey_mprotect}) before calling. Both heaps must agree
    on sanitize mode (@raise Invalid_argument otherwise); poison state
    travels with the regions, so blocks freed in [from] stay poisoned
    under [t]. *)

val regions : t -> (int * int) list
(** [(addr, len)] of every region owned by this control. *)

val used_bytes : t -> int
(** Payload bytes currently allocated. *)

val used_blocks : t -> int
val total_bytes : t -> int

val malloc_calls : t -> int
(** Successful allocations since creation (monotonic). *)

val free_calls : t -> int
(** Successful frees since creation (monotonic). *)

val check : t -> string list
(** Integrity walk over all regions and free lists; returns human-readable
    descriptions of every inconsistency found (empty = healthy). Used by
    tests and by fault-injection experiments to show that an overflow
    really corrupted the heap. *)

val iter_blocks : t -> (addr:int -> size:int -> free:bool -> unit) -> unit
(** Walk every physical block in every region. *)
