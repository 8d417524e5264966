module Space = Vmem.Space
module Prot = Vmem.Prot

exception Fs_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Fs_error s)) fmt
let block_size = 4096
let max_name_len = 56
let inode_size = 64
let inodes_per_block = block_size / inode_size
let dirent_size = 64
let direct_ptrs = 10
let indirect_ptrs = 512
let max_file_size = (direct_ptrs + indirect_ptrs) * block_size

(* inode kinds *)
let k_free = 0
let k_file = 1
let k_dir = 2

type t = {
  space : Space.t;
  base : int;
  blocks : int;
  bitmap_start : int;  (* block index *)
  bitmap_blocks : int;
  inode_start : int;
  ninodes : int;
  data_start : int;
  mutable alloc_hint : int;
  ptrs : int array;  (* an inode's block pointers, loaded by [load_ptrs] *)
  mutable dir : Bytes.t;  (* a directory's entries, read by [read_dir] *)
}

let block_addr t b = t.base + (b * block_size)
let inode_addr t i = block_addr t t.inode_start + (i * inode_size)

(* {1 Superblock} *)

let sb_free_blocks t = Space.load32 t.space (t.base + 24)
let sb_set_free_blocks t v = Space.store32 t.space (t.base + 24) v

(* {1 Bitmap} *)

let bit_byte t b = block_addr t t.bitmap_start + (b / 8)

let block_used t b = Space.load8 t.space (bit_byte t b) land (1 lsl (b mod 8)) <> 0

let set_block t b used =
  let a = bit_byte t b in
  let old = Space.load8 t.space a in
  let v =
    if used then old lor (1 lsl (b mod 8)) else old land lnot (1 lsl (b mod 8))
  in
  Space.store8 t.space a v

let alloc_block t =
  let rec scan b wrapped =
    if b >= t.blocks then if wrapped then err "filesystem full" else scan t.data_start true
    else if not (block_used t b) then begin
      set_block t b true;
      sb_set_free_blocks t (sb_free_blocks t - 1);
      t.alloc_hint <- b + 1;
      (* Fresh blocks read as zero. *)
      Space.fill t.space ~addr:(block_addr t b) ~len:block_size '\000';
      b
    end
    else scan (b + 1) wrapped
  in
  scan (max t.data_start t.alloc_hint) false

let free_block t b =
  if not (block_used t b) then err "double block free (%d)" b;
  set_block t b false;
  sb_set_free_blocks t (sb_free_blocks t + 1);
  if b < t.alloc_hint then t.alloc_hint <- b

(* {1 Inodes} *)

let inode_kind t i = Space.load8 t.space (inode_addr t i)
let set_inode_kind t i k = Space.store8 t.space (inode_addr t i) k
let inode_file_size t i = Space.load64 t.space (inode_addr t i + 8)
let set_inode_size t i v = Space.store64 t.space (inode_addr t i + 8) v
let direct_slot t i j = inode_addr t i + 16 + (4 * j)
let indirect_slot t i = inode_addr t i + 16 + (4 * direct_ptrs)

let alloc_inode t kind =
  let rec scan i =
    if i >= t.ninodes then err "out of inodes"
    else if inode_kind t i = k_free then begin
      let a = inode_addr t i in
      Space.fill t.space ~addr:a ~len:inode_size '\000';
      set_inode_kind t i kind;
      i
    end
    else scan (i + 1)
  in
  scan 0

(* Load the pointers of inode [i]'s data blocks into [t.ptrs], in file
   order, and return their count. The next [load_ptrs] overwrites them;
   no walk that reads them yields in between. *)
let load_ptrs t i =
  let size = inode_file_size t i in
  let n = (size + block_size - 1) / block_size in
  for j = 0 to n - 1 do
    t.ptrs.(j) <-
      (if j < direct_ptrs then Space.load32 t.space (direct_slot t i j)
       else
         let ind = Space.load32 t.space (indirect_slot t i) in
         Space.load32 t.space (block_addr t ind + (4 * (j - direct_ptrs))))
  done;
  n

let free_inode_data t i =
  for j = 0 to load_ptrs t i - 1 do
    free_block t t.ptrs.(j)
  done;
  let size = inode_file_size t i in
  if size > direct_ptrs * block_size then
    free_block t (Space.load32 t.space (indirect_slot t i));
  set_inode_size t i 0

(* Replace an inode's contents wholesale. *)
let write_inode_data t i data =
  let size = String.length data in
  if size > max_file_size then err "file too large (%d bytes)" size;
  free_inode_data t i;
  let nblocks = (size + block_size - 1) / block_size in
  let indirect =
    if nblocks > direct_ptrs then begin
      let ind = alloc_block t in
      Space.store32 t.space (indirect_slot t i) ind;
      Some ind
    end
    else None
  in
  for j = 0 to nblocks - 1 do
    let b = alloc_block t in
    (if j < direct_ptrs then Space.store32 t.space (direct_slot t i j) b
     else
       match indirect with
       | Some ind -> Space.store32 t.space (block_addr t ind + (4 * (j - direct_ptrs))) b
       | None -> assert false);
    let off = j * block_size in
    let chunk = min block_size (size - off) in
    Space.store_string t.space (block_addr t b) (String.sub data off chunk)
  done;
  set_inode_size t i size

(* Bytes of [off, off + len) that lie inside inode [i] ([off] >= 0). *)
let clamp_len t i ~off ~len = max 0 (min len (inode_file_size t i - off))

(* Copy [off, off + len) of inode [i], already clamped and non-empty,
   into [b] at [pos]: each block's part straight from simulated memory. *)
let copy_blocks t i ~off ~len b pos =
  ignore (load_ptrs t i);
  let p = ref off in
  while !p < off + len do
    let j = !p / block_size in
    let in_block = !p mod block_size in
    let chunk = min (block_size - in_block) (off + len - !p) in
    Space.read_into t.space
      (block_addr t t.ptrs.(j) + in_block)
      b (pos + !p - off) chunk;
    p := !p + chunk
  done

let read_inode_range t i ~off ~len =
  let off = max 0 off in
  let len = clamp_len t i ~off ~len in
  if len = 0 then ""
  else begin
    let b = Bytes.create len in
    copy_blocks t i ~off ~len b 0;
    Bytes.unsafe_to_string b
  end

let read_inode_into t i ~off ~len b pos =
  let off = max 0 off in
  let len = clamp_len t i ~off ~len in
  if pos < 0 || pos > Bytes.length b - len then
    invalid_arg "Vfs.read_into_bytes: range outside the buffer";
  if len > 0 then copy_blocks t i ~off ~len b pos;
  len

(* {1 Directories} *)

type dirent = { d_ino : int; d_kind : int; d_name : string }

(* Read directory [i] whole into [t.dir], with {!read}'s accesses, and
   return its entry count. *)
let read_dir t i =
  let len = clamp_len t i ~off:0 ~len:(inode_file_size t i) in
  if len > 0 then begin
    if Bytes.length t.dir < len then t.dir <- Bytes.create len;
    copy_blocks t i ~off:0 ~len t.dir 0
  end;
  len / dirent_size

let dirent_ino t at =
  Bytes.get_uint16_le t.dir at lor (Bytes.get_uint16_le t.dir (at + 2) lsl 16)

let dirent_name_len t at = Char.code (Bytes.get t.dir (at + 5))

let read_dirents t i =
  let n = read_dir t i in
  List.init n (fun j ->
      let at = j * dirent_size in
      {
        d_ino = dirent_ino t at;
        d_kind = Char.code (Bytes.get t.dir (at + 4));
        d_name = Bytes.sub_string t.dir (at + 8) (dirent_name_len t at);
      })

let write_dirents t i entries =
  let buf = Buffer.create (List.length entries * dirent_size) in
  List.iter
    (fun e ->
      let b = Bytes.make dirent_size '\000' in
      Bytes.set b 0 (Char.chr (e.d_ino land 0xFF));
      Bytes.set b 1 (Char.chr ((e.d_ino lsr 8) land 0xFF));
      Bytes.set b 2 (Char.chr ((e.d_ino lsr 16) land 0xFF));
      Bytes.set b 3 (Char.chr ((e.d_ino lsr 24) land 0xFF));
      Bytes.set b 4 (Char.chr e.d_kind);
      Bytes.set b 5 (Char.chr (String.length e.d_name));
      Bytes.blit_string e.d_name 0 b 8 (String.length e.d_name);
      Buffer.add_bytes buf b)
    entries;
  write_inode_data t i (Buffer.contents buf)

let split_path path =
  if path = "" || path.[0] <> '/' then err "path must be absolute: %S" path;
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

let validate_name name =
  if name = "" || String.length name > max_name_len then err "bad name %S" name;
  if String.contains name '/' then err "name contains '/'"

(* [t.dir]'s name at entry offset [at] is [path]'s bytes [a, a + len). *)
let rec name_is t at path a len k =
  k = len
  || Bytes.get t.dir (at + 8 + k) = String.unsafe_get path (a + k)
     && name_is t at path a len (k + 1)

(* Inode of the first of directory [i]'s [n] entries, read by [read_dir],
   from entry [j] on, named [path]'s bytes [a, a + len); or -1. *)
let rec find_entry t n j path a len =
  if j = n then -1
  else
    let at = j * dirent_size in
    if dirent_name_len t at = len && name_is t at path a len 0 then
      dirent_ino t at
    else find_entry t n (j + 1) path a len

let rec skip_slashes path i =
  if i < String.length path && String.unsafe_get path i = '/' then
    skip_slashes path (i + 1)
  else i

let rec component_end path i =
  if i < String.length path && String.unsafe_get path i <> '/' then
    component_end path (i + 1)
  else i

(* Walk [path]'s components from byte [i] on, starting in inode [ino]:
   empty components (doubled or trailing slashes) are skipped, and each
   directory on the way is read whole into [t.dir] and scanned there. *)
let rec walk t path i ino =
  let a = skip_slashes path i in
  if a = String.length path then ino
  else if inode_kind t ino <> k_dir then -1
  else
    let b = component_end path a in
    match find_entry t (read_dir t ino) 0 path a (b - a) with
    | -1 -> -1
    | child -> walk t path b child

(* Resolve a path to an inode, or -1; the root directory is inode 0. *)
let lookup t path =
  if path = "" || path.[0] <> '/' then err "path must be absolute: %S" path;
  walk t path 0 0

let lookup_parent t path =
  match List.rev (split_path path) with
  | [] -> err "cannot operate on /"
  | name :: rev_dir -> (
      validate_name name;
      let dir_path = "/" ^ String.concat "/" (List.rev rev_dir) in
      match lookup t dir_path with
      | -1 -> err "%s: no such directory" dir_path
      | ino when inode_kind t ino = k_dir -> (ino, name)
      | _ -> err "%s: not a directory" dir_path)

(* {1 Public operations} *)

let format space ?(pkey = 0) ~blocks () =
  if blocks < 8 then invalid_arg "Vfs.format: need at least 8 blocks";
  let base = Space.mmap space ~len:(blocks * block_size) ~prot:Prot.rw ~pkey in
  let bitmap_blocks = (blocks + (block_size * 8) - 1) / (block_size * 8) in
  let inode_blocks_count = max 1 (blocks / 64) in
  let ninodes = inode_blocks_count * inodes_per_block in
  let data_start = 1 + bitmap_blocks + inode_blocks_count in
  let t =
    {
      space;
      base;
      blocks;
      bitmap_start = 1;
      bitmap_blocks;
      inode_start = 1 + bitmap_blocks;
      ninodes;
      data_start;
      alloc_hint = data_start;
      ptrs = Array.make (direct_ptrs + indirect_ptrs) 0;
      dir = Bytes.create block_size;
    }
  in
  (* Superblock. *)
  Space.store_string space base "SFS1";
  Space.store32 space (base + 4) blocks;
  Space.store32 space (base + 8) t.bitmap_start;
  Space.store32 space (base + 12) bitmap_blocks;
  Space.store32 space (base + 16) t.inode_start;
  Space.store32 space (base + 20) ninodes;
  sb_set_free_blocks t blocks;
  (* Reserve the metadata blocks in the bitmap. *)
  for b = 0 to data_start - 1 do
    set_block t b true;
    sb_set_free_blocks t (sb_free_blocks t - 1)
  done;
  (* Root directory: inode 0, empty. *)
  let root = alloc_inode t k_dir in
  assert (root = 0);
  t

let mkdir t path =
  let parent, name = lookup_parent t path in
  let entries = read_dirents t parent in
  if List.exists (fun e -> e.d_name = name) entries then err "%s: exists" path;
  let ino = alloc_inode t k_dir in
  write_dirents t parent (entries @ [ { d_ino = ino; d_kind = k_dir; d_name = name } ])

let create t ~path ~data =
  let parent, name = lookup_parent t path in
  let entries = read_dirents t parent in
  match List.find_opt (fun e -> e.d_name = name) entries with
  | Some e when e.d_kind = k_dir -> err "%s: is a directory" path
  | Some e -> write_inode_data t e.d_ino data
  | None ->
      let ino = alloc_inode t k_file in
      write_inode_data t ino data;
      write_dirents t parent
        (entries @ [ { d_ino = ino; d_kind = k_file; d_name = name } ])

let unlink t path =
  let parent, name = lookup_parent t path in
  let entries = read_dirents t parent in
  match List.find_opt (fun e -> e.d_name = name) entries with
  | None -> err "%s: no such entry" path
  | Some e ->
      if e.d_kind = k_dir && read_dirents t e.d_ino <> [] then
        err "%s: directory not empty" path;
      free_inode_data t e.d_ino;
      set_inode_kind t e.d_ino k_free;
      write_dirents t parent (List.filter (fun x -> x.d_name <> name) entries)

let rename t ~old_path ~new_path =
  let old_parent, old_name = lookup_parent t old_path in
  let entries = read_dirents t old_parent in
  match List.find_opt (fun e -> e.d_name = old_name) entries with
  | None -> err "%s: no such entry" old_path
  | Some moving ->
      if
        moving.d_kind = k_dir
        && String.length new_path > String.length old_path
        && String.sub new_path 0 (String.length old_path + 1) = old_path ^ "/"
      then err "%s: cannot move a directory into itself" old_path;
      let new_parent, new_name = lookup_parent t new_path in
      let dest_entries =
        if new_parent = old_parent then
          List.filter (fun e -> e.d_name <> old_name) entries
        else read_dirents t new_parent
      in
      (match List.find_opt (fun e -> e.d_name = new_name) dest_entries with
      | Some existing ->
          if existing.d_kind = k_dir || moving.d_kind = k_dir then
            err "%s: cannot replace" new_path
          else begin
            free_inode_data t existing.d_ino;
            set_inode_kind t existing.d_ino k_free
          end
      | None -> ());
      let dest_entries =
        List.filter (fun e -> e.d_name <> new_name) dest_entries
      in
      write_dirents t new_parent
        (dest_entries @ [ { moving with d_name = new_name } ]);
      if new_parent <> old_parent then
        write_dirents t old_parent
          (List.filter (fun e -> e.d_name <> old_name) entries)

let exists t path = lookup t path >= 0

let is_dir t path =
  let ino = lookup t path in
  ino >= 0 && inode_kind t ino = k_dir

let file_size t path =
  let ino = lookup t path in
  if ino >= 0 && inode_kind t ino = k_file then Some (inode_file_size t ino)
  else None

let file_inode t path =
  match lookup t path with
  | -1 -> err "%s: no such file" path
  | ino when inode_kind t ino = k_file -> ino
  | _ -> err "%s: not a regular file" path

let read t ~path ~off ~len = read_inode_range t (file_inode t path) ~off ~len

let read_into_bytes t ~path ~off ~len b pos =
  read_inode_into t (file_inode t path) ~off ~len b pos

let read_all t path = read t ~path ~off:0 ~len:max_file_size

let read_into t ~path ~off ~len ~dst =
  let s = read t ~path ~off ~len in
  Space.store_string t.space dst s;
  String.length s

let list_dir t path =
  match lookup t path with
  | -1 -> err "%s: no such directory" path
  | ino when inode_kind t ino = k_dir ->
      List.map (fun e -> e.d_name) (read_dirents t ino)
  | _ -> err "%s: not a directory" path

let total_blocks t = t.blocks
let free_blocks t = sb_free_blocks t

let inode_count t =
  let rec count i acc =
    if i >= t.ninodes then acc
    else count (i + 1) (if inode_kind t i <> k_free then acc + 1 else acc)
  in
  count 0 0

let check t =
  let errors = ref [] in
  let errf fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let referenced = Hashtbl.create 64 in
  let reference b who =
    if b < t.data_start || b >= t.blocks then errf "%s: block %d out of range" who b
    else if Hashtbl.mem referenced b then errf "block %d doubly referenced" b
    else Hashtbl.replace referenced b who
  in
  (* Walk the directory tree from the root. *)
  let seen_inodes = Hashtbl.create 64 in
  let rec walk ino who =
    if Hashtbl.mem seen_inodes ino then errf "%s: inode %d reached twice" who ino
    else begin
      Hashtbl.replace seen_inodes ino ();
      for j = 0 to load_ptrs t ino - 1 do
        reference t.ptrs.(j) who
      done;
      if inode_file_size t ino > direct_ptrs * block_size then
        reference (Space.load32 t.space (indirect_slot t ino)) (who ^ "(ind)");
      if inode_kind t ino = k_dir then
        List.iter
          (fun e ->
            if e.d_ino >= t.ninodes then errf "%s/%s: bad inode" who e.d_name
            else if inode_kind t e.d_ino = k_free then
              errf "%s/%s: dangling entry" who e.d_name
            else walk e.d_ino (who ^ "/" ^ e.d_name))
          (read_dirents t ino)
    end
  in
  walk 0 "";
  (* Bitmap agreement. *)
  let free = ref 0 in
  for b = 0 to t.blocks - 1 do
    let used = block_used t b in
    if not used then incr free;
    if b >= t.data_start then begin
      if used && not (Hashtbl.mem referenced b) then errf "block %d leaked" b;
      if (not used) && Hashtbl.mem referenced b then errf "block %d used but free" b
    end
  done;
  if !free <> sb_free_blocks t then
    errf "free count mismatch: bitmap %d, superblock %d" !free (sb_free_blocks t);
  List.rev !errors
