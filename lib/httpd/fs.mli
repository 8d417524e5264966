(** Static-content store for the web server, backed by the simulated
    filesystem ({!Vfs}): document bodies live in simulated "disk" blocks,
    so serving a file performs real (charged, RSS-visible) reads — the
    page-cache behaviour a real NGINX relies on. *)

type t

val create : Vmem.Space.t -> t
(** Format a fresh filesystem of 2048 blocks (8 MiB). *)

val add : t -> path:string -> size:int -> unit
(** Publish a document of the given size with deterministic contents.
    Parent directories are created as needed. *)

val lookup : t -> string -> int option
(** Size of the document, if it exists. *)

val read_body : t -> string -> string
(** Read a whole document out of the filesystem (charged access). *)

val read_body_into : t -> string -> bytes -> int -> int
(** {!read_body} written into a caller's buffer from the given position
    ({!Vfs.read_into_bytes}), with the same charges; returns the
    document's length. *)

val vfs : t -> Vfs.t
