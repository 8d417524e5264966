module Space = Vmem.Space

let slab_page_size = 64 * 1024

(* Size classes: 96 bytes growing by 1.25, 8-byte aligned, up to 16 KiB. *)
let class_sizes =
  let rec build acc size =
    if size > 16 * 1024 then List.rev acc
    else build (size :: acc) ((size * 5 / 4 + 7) land lnot 7)
  in
  Array.of_list (build [] 96)

let max_chunk_size = class_sizes.(Array.length class_sizes - 1)

type t = {
  space : Space.t;
  alloc_page : int -> int;
  max_bytes : int;  (* max_int = unlimited *)
  free_heads : int array;  (* per class, 0 = empty *)
  mutable pages : int;
  mutable in_use : int;
}

let create ?(max_bytes = max_int) space ~alloc_page =
  {
    space;
    alloc_page;
    max_bytes;
    free_heads = Array.make (Array.length class_sizes) 0;
    pages = 0;
    in_use = 0;
  }

(* The class of a [size]-byte chunk from class [i] up, or -1 when none
   fits: a top-level loop, so a lookup builds no closure. *)
let rec class_from size i =
  if i >= Array.length class_sizes then -1
  else if class_sizes.(i) >= size then i
  else class_from size (i + 1)

let chunk_size _t size =
  match class_from size 0 with -1 -> None | i -> Some class_sizes.(i)

let can_grow t = ((t.pages + 1) * slab_page_size) <= t.max_bytes

let grow t idx =
  let page = t.alloc_page slab_page_size in
  t.pages <- t.pages + 1;
  let csize = class_sizes.(idx) in
  let nchunks = slab_page_size / csize in
  (* Thread every chunk onto the class free list (next pointer in the
     chunk's first word). *)
  for i = nchunks - 1 downto 0 do
    let chunk = page + (i * csize) in
    Space.store64 t.space chunk t.free_heads.(idx);
    t.free_heads.(idx) <- chunk
  done

let alloc t size =
  match class_from size 0 with
  | -1 -> 0
  | idx ->
      if t.free_heads.(idx) = 0 && can_grow t then grow t idx;
      let chunk = t.free_heads.(idx) in
      if chunk <> 0 then begin
        t.free_heads.(idx) <- Space.load64 t.space chunk;
        t.in_use <- t.in_use + 1
      end;
      chunk

let free t ~addr ~size =
  match class_from size 0 with
  | -1 -> invalid_arg "Slab.free: size out of range"
  | idx ->
      Space.store64 t.space addr t.free_heads.(idx);
      t.free_heads.(idx) <- addr;
      t.in_use <- t.in_use - 1

let pages_allocated t = t.pages
let chunks_in_use t = t.in_use
