(** A small Unix-like filesystem in simulated memory — the substrate the
    web server serves static content from (NGINX reads documents through
    the page cache; here the "disk" pages are simulated memory, so file
    reads carry real access costs and contribute to RSS).

    On-disk layout (4 KiB blocks):
    {v
    block 0            superblock (magic, geometry, free counts)
    blocks 1..B        block allocation bitmap
    blocks B+1..I      inode table (64-byte inodes)
    blocks I+1..N      data
    v}

    An inode holds a type tag, the size, and ten direct block pointers
    plus one single-indirect block — files up to [10*4096 + 512*4096]
    bytes (~2 MiB). Directories are files of fixed 64-byte entries
    ([inode:u32 kind:u8 name_len:u8 name:58]). Paths are absolute,
    ['/']-separated; empty components (doubled or trailing slashes) are
    skipped. A lookup scans the path in place and reads each directory
    on the way into a buffer the filesystem keeps: the walk allocates
    nothing, and neither does {!read_into_bytes}. *)

type t

exception Fs_error of string

val block_size : int
val max_file_size : int

val format : Vmem.Space.t -> ?pkey:int -> blocks:int -> unit -> t
(** mkfs: map a fresh region of [blocks] 4-KiB blocks and initialize the
    superblock, bitmap, inode table and root directory. *)

val mkdir : t -> string -> unit
val create : t -> path:string -> data:string -> unit
(** Write a whole regular file (replacing any previous content). Parent
    directories must exist. *)

val unlink : t -> string -> unit
(** Remove a file (or an empty directory) and free its blocks. *)

val rename : t -> old_path:string -> new_path:string -> unit
(** Move an entry; replaces an existing regular file at the destination
    (POSIX semantics). Directories can be moved but not replaced. *)

val exists : t -> string -> bool
val is_dir : t -> string -> bool
val file_size : t -> string -> int option

val read : t -> path:string -> off:int -> len:int -> string
(** Read a byte range (clamped to the file size). *)

val read_all : t -> string -> string

val read_into_bytes :
  t -> path:string -> off:int -> len:int -> bytes -> int -> int
(** [read_into_bytes t ~path ~off ~len b pos] is {!read} written into
    [b] from [pos] instead of a fresh string: each block's part is read
    from simulated memory straight into [b], with the same accesses and
    charges as {!read}. Returns the bytes copied (the range clamped to
    the file size), so a caller that sized [b] from {!file_size} can put
    a header and the file in one buffer.
    @raise Invalid_argument if the clamped range does not fit in [b]
    from [pos]. *)

val read_into : t -> path:string -> off:int -> len:int -> dst:int -> int
(** Read into a simulated-memory buffer (sendfile-style); returns bytes
    copied. *)

val list_dir : t -> string -> string list

(** {1 Geometry / accounting} *)

val total_blocks : t -> int
val free_blocks : t -> int
val inode_count : t -> int

val check : t -> string list
(** Consistency walk: bitmap vs reachable blocks, directory structure,
    sizes. Empty when healthy. *)
