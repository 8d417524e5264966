(** Simulated virtual address space with MPK-style protection keys.

    This is the hardware substitute that makes domain isolation observable
    from OCaml: all domain-resident application state lives in simulated
    memory divided into 4 KiB pages, each carrying protection bits and a
    4-bit protection key. Each page is backed by a 4 KiB frame of its own
    from its first write on. Until then it reads from a shared, read-only
    frame: the zero page after {!mmap}, or the frame of one byte value
    after a {!fill} that covers the whole page. Every load, store and
    bulk copy is checked
    against the current thread's {!Pkru} value, and violations raise
    {!Fault} — the simulator's SEGV, complete with an [si_code]
    ([MAPERR]/[ACCERR]/[PKUERR]) as delivered by Linux to a signal handler.

    Page 0 is never mapped (null-pointer detection) and every mapping is
    preceded by an unmapped guard page, so buffer underflows fall off the
    mapping instead of silently entering a neighbour. Accesses charge
    virtual time to the executing thread via {!Simkern.Sched.charge}. *)

type t

type access = Read | Write | Exec

type si_code =
  | MAPERR  (** address not mapped *)
  | ACCERR  (** page protection forbids the access *)
  | PKUERR  (** protection-key rights forbid the access *)
  | POISON
      (** heap-poison sanitizer: the access touched a poisoned byte (a
          redzone, a freed block, or a discarded domain's memory) *)

exception
  Fault of {
    addr : int;
    access : access;
    code : si_code;
    pkey : int;  (** key of the offending page, -1 if unmapped *)
    tid : int;  (** simulated thread that faulted *)
  }

val pp_access : Format.formatter -> access -> unit
val pp_si_code : Format.formatter -> si_code -> unit

val access_name : access -> string
(** [read], [write] or [exec]: what {!pp_access} prints, as a constant
    string. *)

val si_code_name : si_code -> string
(** [SEGV_MAPERR], …: what {!pp_si_code} prints, as a constant string. *)

val create : ?size_mib:int -> unit -> t
(** [create ()] makes a 64 MiB address space by default, charging
    {!Simkern.Cost.default}. [size_mib] sets the address range only: the
    host cost is the page tables (a few bytes per page) plus one 4 KiB
    frame per page written, so an unused range costs next to nothing. *)

val cost : t -> Simkern.Cost.t
val page_size : t -> int
val size : t -> int

(** {1 Protection keys} *)

val pkey_alloc : t -> int option
(** Allocate one of the 15 non-default keys, or [None] when exhausted. *)

val pkey_free : t -> int -> unit
(** @raise Invalid_argument for a key that is not allocated, as Linux
    returns [EINVAL]: a double free shows. *)

val pkeys_in_use : t -> int

val rdpkru : t -> int
(** Current thread's PKRU value. Threads start with {!Pkru.all_access}. *)

val wrpkru : t -> int -> unit
(** Set the current thread's PKRU. A {e checked} install: when the value
    is already current, the write is skipped entirely — no
    pipeline-flush charge, no write count — and {!pkru_elided} is bumped
    instead. Otherwise charges the pipeline-flush cost. *)

val set_syscall_hook : t -> (string -> unit) option -> unit
(** Install a callback invoked at the entry of every "system call"
    ([mmap]/[munmap]/[mprotect]/[pkey_mprotect]/[pkey_alloc]/
    [pkey_free] — [pkey_mprotect] reports under its own name so the
    oracle can deny key re-assignment independently of plain
    protection changes). SDRaD uses it as the syscall attack
    oracle of §VI: untrusted domains must not reach the kernel interface
    directly (Connor et al.'s PKU pitfalls; Jenny's syscall filtering).
    The hook may raise to deny the call. *)

val set_access_hook : t -> (int -> int -> access -> unit) option -> unit
(** Install a callback [h addr len access] invoked after a checked
    access has passed every protection and poison check — the shadow-cell
    feed of the race detector ({!Analysis.Race}). Purely observational
    and host-side: it charges no virtual time, cannot fault, and is not
    called at all for allocator-metadata accesses (those run under the
    {!sanitizer_bypass} bracket). [None] (the default) restores the
    unobserved fast path; the slot costs one pointer compare per access
    when empty. *)

(** {1 Mappings} *)

exception Exhausted
(** No free run of addresses is long enough for the mapping: the
    simulator's [ENOMEM]. *)

val mmap : t -> len:int -> prot:Prot.t -> pkey:int -> int
(** Map [len] bytes (rounded up to pages) with a leading guard page and
    return the base address. @raise Exhausted when no free run of the
    space holds the pages and their guard; the space is then unchanged
    and nothing is charged. *)

val munmap : t -> int -> unit
(** Unmap a whole previous [mmap] allocation by its base address. Like
    physical pages, its pages keep their contents (the residue a
    kernel-mode reader can see) until a new {!mmap} zeroes them. *)

val mprotect : t -> addr:int -> len:int -> prot:Prot.t -> unit
val pkey_mprotect : t -> addr:int -> len:int -> prot:Prot.t -> pkey:int -> unit
val pkey_of_addr : t -> int -> int
val prot_of_addr : t -> int -> Prot.t
val is_mapped : t -> int -> bool
val mapped_len : t -> int -> int
(** Usable length of the allocation based at the given address; 0 when
    no allocation is based there. *)

(** {1 Checked access} *)

val load8 : t -> int -> int
val load16 : t -> int -> int
val load32 : t -> int -> int
val load64 : t -> int -> int
val store8 : t -> int -> int -> unit
val store16 : t -> int -> int -> unit
val store32 : t -> int -> int -> unit
val store64 : t -> int -> int -> unit
val load_bytes : t -> int -> int -> bytes
val store_bytes : t -> int -> bytes -> unit
val store_string : t -> int -> string -> unit
val read_string : t -> int -> int -> string

val read_into : t -> int -> bytes -> int -> int -> unit
(** [read_into t addr b off len] copies [len] bytes at [addr] into [b]
    from [off], with {!read_string}'s check and charge: the same
    [Invalid_argument] for a negative [len], the same virtual time, and
    a faulting range raises {!Fault} having charged the same and copied
    nothing. A zero [len] is free. It lets a reply be assembled straight
    from simulated memory, with no intermediate string.
    @raise Invalid_argument if [off, off + len) is not inside [b]. *)

val store_from : t -> int -> bytes -> int -> int -> unit
(** [store_from t addr b off len] stores [b.[off, off + len)] at [addr],
    the mirror of {!read_into}: checked and charged as {!store_string}
    of those bytes is, so a zero [len] is free.
    @raise Invalid_argument for a negative [len] or a range outside
    [b]. *)

val blit : t -> src:int -> dst:int -> len:int -> unit

val fill : t -> addr:int -> len:int -> char -> unit
(** Checked and charged as a store of [len] bytes. A page the range
    covers whole shares one read-only frame per byte value, so filling
    it costs the host no frame; its first later write copies it. *)

val flip_bit : t -> addr:int -> bit:int -> bool
(** Single-event upset: XOR one bit ([bit land 7]) of a mapped byte,
    bypassing page and PKRU protections — a soft error is not a CPU
    access, so no permission check applies, no fault is raised, and no
    time is charged. Returns [false] when the address is unmapped (the
    flip lands in a hole). For deterministic fault injection. *)

val memchr : t -> addr:int -> len:int -> char -> int
(** First address of the given byte in [\[addr, addr+len)], or -1 when
    it does not occur there. The scan never reads past [addr + len], and
    the cost charged covers only the bytes actually examined (plus the
    access base). *)

val memcmp : t -> int -> int -> int -> int

(** {1 Heap-poison sanitizer}

    ASan-style shadow state: one poison bit per byte of the space. While
    the sanitizer is enabled, every checked access that passes the
    protection checks is also scanned against the shadow map; touching a
    poisoned byte raises {!Fault} with code {!POISON} — a detected fault
    the rewind machinery recovers from, instead of a silent
    use-after-free or redzone overflow. The scan is a host-side artifact:
    it charges no virtual time and is invisible to the cost model, so an
    unsanitized run and a sanitized run that never faults follow the same
    virtual-time trajectory. Allocators bracket their own metadata
    accesses with {!sanitizer_bypass} (headers and free-list links live
    inside poisoned ranges by design). A fresh {!mmap} clears poison over
    its range; {!restore_image} clears the whole map. *)

val set_sanitizer : t -> bool -> unit
(** Enable/disable the sanitizer. The shadow map (size/8 bytes) is
    allocated on first enable and retained. *)

val sanitizer_enabled : t -> bool

val poison : t -> addr:int -> len:int -> unit
(** Mark [\[addr, addr+len)] poisoned. No-op while disabled. *)

val unpoison : t -> addr:int -> len:int -> unit

val sanitizer_bypass : t -> (unit -> 'a) -> 'a
(** Run the body with poison scanning suspended on this space (protection
    checks still apply). Nests; restored on exception. *)

val begin_bypass : t -> bool
(** The two halves of {!sanitizer_bypass}, for brackets that must not
    build a closure: raise the bypass flag and return its previous
    value, which the caller hands back to {!end_bypass} on every exit,
    exceptional ones included. *)

val end_bypass : t -> bool -> unit

val poison_faults : t -> int
(** Accesses refused with {!POISON} since creation. *)

val poisoned_ranges : t -> int
(** [poison] calls that marked a non-empty range (monotonic). *)

val unpoisoned_ranges : t -> int

(** {1 Kernel-mode access}

    Used by the checkpoint/restore baseline and by tests to inspect
    memory without tripping protection checks — the moral equivalent of
    the kernel touching pages on a process's behalf. *)

val unsafe_load_bytes : t -> int -> int -> bytes
(** Reads any in-range bytes, mapped or not: an unmapped page still holds
    its residue (see {!munmap}). *)

val iter_mapped_pages : t -> (int -> unit) -> unit
(** Iterate base addresses of mapped pages in increasing order. *)

type image
(** A process-memory image: contents of every mapped page plus the full
    mapping state (protections, keys, allocation registry). This is what a
    CRIU-style checkpointer dumps; the {!Checkpoint} library layers cost
    accounting on top. *)

val checkpoint : t -> image
val restore_image : t -> image -> unit
val image_bytes : image -> int
(** Payload size of the image (bytes of mapped pages). *)

(** {1 Accounting} *)

val mapped_bytes : t -> int
val rss_bytes : t -> int
(** Bytes of pages touched at least once since mapping. *)

val max_rss_bytes : t -> int
val fault_count : t -> int

val checked_accesses : t -> int
(** Checked accesses since creation: every load, store and bulk range
    the access path checked, faulting ones included. A [blit] or
    [memcmp] checks two ranges and counts two. *)

val wrpkru_writes : t -> int
(** Total WRPKRU instructions actually executed across all threads —
    the raw material for the switch-cost anatomy. Elided installs (see
    {!wrpkru}) are {e not} counted here; a plain enter/exit pair
    performs two, batched gates amortize further. *)

val pkru_elided : t -> int
(** WRPKRU installs skipped because the value was already current. *)
