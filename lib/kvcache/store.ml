module Space = Vmem.Space
module Sched = Simkern.Sched

let header_size = 40

type t = {
  space : Space.t;
  slab : Slab.t;
  alloc_table : int -> int;
  free_table : int -> unit;
  mutable table : int;  (* bucket array base: nbuckets 8-byte slots *)
  mutable mask : int;
  mutable grow_at : int;  (* the count past which the table doubles *)
  mutable count : int;
  mutable value_bytes : int;
  mutable lru_head : int;  (* most recently used, 0 = empty *)
  mutable lru_tail : int;  (* least recently used *)
  mutable evictions : int;
  scratch : Bytes.t;  (* a stored key, read out by [find_prev] *)
  mutable prev : int;  (* the link slot of [find_prev]'s last find *)
}

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Memcached's [assoc_insert] starts an expansion once the table holds
   more than 1.5 items a bucket. *)
let grow_threshold n = n * 3 / 2

let create space ~buckets ~slab ~alloc_table ~free_table =
  let n = round_pow2 (max 16 buckets) in
  let table = alloc_table (n * 8) in
  if table = 0 then failwith "Store.create: no memory for the table";
  {
    space;
    slab;
    alloc_table;
    free_table;
    table;
    mask = n - 1;
    grow_at = grow_threshold n;
    count = 0;
    value_bytes = 0;
    lru_head = 0;
    lru_tail = 0;
    evictions = 0;
    scratch = Bytes.create 256;
    prev = 0;
  }

(* FNV-1a 64, truncated to OCaml's 63-bit int, of [s.[off, off + len)]. *)
let hash_sub s off len =
  let h = ref 0xbf29ce484222325 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
         land max_int
  done;
  !h

let hash key = hash_sub key 0 (String.length key)

(* [Sched.charge]'s addition, made in the clock cell so the float is not
   boxed. *)
let charge_hash len =
  if Sched.in_thread () then begin
    let k = Sched.clock_cell () in
    k.clock <- k.clock +. float_of_int len
  end

let bucket_slot t s off len = t.table + ((hash_sub s off len land t.mask) * 8)

(* Item field accessors (offsets per the layout in the interface). *)
let lru_next t i = Space.load64 t.space (i + 8)
let set_lru_next t i v = Space.store64 t.space (i + 8) v
let lru_prev t i = Space.load64 t.space (i + 16)
let set_lru_prev t i v = Space.store64 t.space (i + 16) v
let key_len t i = Space.load32 t.space (i + 24)
let value_len t i = Space.load32 t.space (i + 28)
let item_flags t i = Space.load32 t.space (i + 32)
let item_key t i = Space.read_string t.space (i + header_size) (key_len t i)
let value_addr t i = i + header_size + key_len t i

(* [b.[0, n)] is [s.[off, off + n)]. *)
let rec same_key b s off n i =
  i = n
  || Bytes.unsafe_get b i = String.unsafe_get s (off + i)
     && same_key b s off n (i + 1)

(* The stored key of [item] is [s.[off, off + len)]: it is read into the
   scratch buffer with [read_into], which checks and charges as
   [item_key]'s [read_string] does, and compared in place. Only a
   corrupted header has a key longer than the buffer; that one is read
   as a string. *)
let key_is t item s off len =
  let klen = key_len t item in
  if klen <= Bytes.length t.scratch then begin
    Space.read_into t.space (item + header_size) t.scratch 0 klen;
    klen = len && same_key t.scratch s off len 0
  end
  else
    String.equal (Space.read_string t.space (item + header_size) klen)
      (String.sub s off len)

(* {1 LRU list (links live in simulated memory)} *)

let lru_push_head t item =
  set_lru_prev t item 0;
  set_lru_next t item t.lru_head;
  if t.lru_head <> 0 then set_lru_prev t t.lru_head item;
  t.lru_head <- item;
  if t.lru_tail = 0 then t.lru_tail <- item

let lru_unlink t item =
  let p = lru_prev t item and n = lru_next t item in
  if p <> 0 then set_lru_next t p n else t.lru_head <- n;
  if n <> 0 then set_lru_prev t n p else t.lru_tail <- p

let lru_bump t item =
  if t.lru_head <> item then begin
    lru_unlink t item;
    lru_push_head t item
  end

(* {1 Hash chains} *)

(* The item stored under the key [s.[off, off + len)], or 0; [t.prev]
   is left at the link slot that points to it (for unlinking). *)
let find_prev t s off len =
  let link = ref (bucket_slot t s off len) in
  let item = ref (Space.load64 t.space !link) in
  while !item <> 0 && not (key_is t !item s off len) do
    link := !item (* h_next is at offset 0 *);
    item := Space.load64 t.space !link
  done;
  t.prev <- !link;
  !item

(* Fill a raw chunk with an item image (no linking). *)
let write_item t ~item s off len ~flags ~value_src ~value_len =
  Space.store64 t.space item 0;
  set_lru_next t item 0;
  set_lru_prev t item 0;
  Space.store32 t.space (item + 24) len;
  Space.store32 t.space (item + 28) value_len;
  Space.store32 t.space (item + 32) flags;
  Space.store32 t.space (item + 36) 0;
  Space.store_from t.space (item + header_size) (Bytes.unsafe_of_string s) off
    len;
  Space.blit t.space ~src:value_src ~dst:(item + header_size + len)
    ~len:value_len

let unlink t link item =
  let next = Space.load64 t.space item in
  Space.store64 t.space link next;
  lru_unlink t item;
  let klen = key_len t item and vlen = value_len t item in
  Slab.free t.slab ~addr:item ~size:(header_size + klen + vlen);
  t.count <- t.count - 1;
  t.value_bytes <- t.value_bytes - vlen

(* Evict the least recently used item (Memcached's reaction to memory
   pressure). Returns [false] when there is nothing left to evict. *)
let evict_one t =
  let victim = t.lru_tail in
  if victim = 0 then false
  else begin
    let key = item_key t victim in
    if find_prev t key 0 (String.length key) = victim then
      unlink t t.prev victim
    else
      (* The tail is not reachable through its bucket: corruption. *)
      failwith "Store.evict_one: LRU/hash inconsistency";
    t.evictions <- t.evictions + 1;
    true
  end

(* A chunk of [size] bytes, evicting least recently used items until
   one is free; 0 when nothing is left to evict. *)
let rec chunk t size =
  match Slab.alloc t.slab size with
  | 0 -> if evict_one t then chunk t size else 0
  | item -> item

let prepare t s off len ~flags ~value_src ~value_len =
  match chunk t (header_size + len + value_len) with
  | 0 -> 0
  | item ->
      write_item t ~item s off len ~flags ~value_src ~value_len;
      item

(* {1 Table growth}

   [assoc_expand]'s doubling, made at once where Memcached hands it to
   a background thread. An item of old bucket [b] moves to new bucket
   [b] or [b + n] by bit [n] of its key's hash, so each old chain
   splits in two, each in the old chain's order. The old table is read
   and the new one written in one sweep each: a bulk access, whose
   charge by the byte is what a load or store a slot costs. Each item
   costs a read of its header's first 28 bytes (its chain link through
   its key length), a read of its key and the key's hash; its link is
   stored only where its new chain does not already reach it from the
   item before it in the old one. *)

(* The hash of [item]'s [klen]-byte key, read as [key_is] reads it and
   charged as [find] charges it. *)
let key_hash t item klen =
  charge_hash klen;
  if klen <= Bytes.length t.scratch then begin
    Space.read_into t.space (item + header_size) t.scratch 0 klen;
    hash_sub (Bytes.unsafe_to_string t.scratch) 0 klen
  end
  else hash (Space.read_string t.space (item + header_size) klen)

(* Append [item], which followed [prev] in its old chain, to the new
   chain of [bucket] whose tail is [tail]: 0 while that chain is empty,
   whose head then goes in the host copy [fresh] of the new table. *)
let append t fresh bucket ~tail ~prev item =
  if tail = 0 then Bytes.set_int64_le fresh (bucket * 8) (Int64.of_int item)
  else if tail <> prev then Space.store64 t.space tail item

(* Split old bucket [b]'s chain from [item] on, between new buckets [b]
   (tail [lo]) and [b + n] (tail [hi]). *)
let rec split t fresh ~n b ~prev ~lo ~hi item =
  if item = 0 then begin
    (* [prev] ended the old chain: its link is already 0. *)
    if lo <> 0 && lo <> prev then Space.store64 t.space lo 0;
    if hi <> 0 && hi <> prev then Space.store64 t.space hi 0
  end
  else begin
    Space.read_into t.space item t.scratch 0 28;
    let next = Int64.to_int (Bytes.get_int64_le t.scratch 0) in
    let klen = Int32.to_int (Bytes.get_int32_le t.scratch 24) land 0xFFFFFFFF in
    if key_hash t item klen land n = 0 then begin
      append t fresh b ~tail:lo ~prev item;
      split t fresh ~n b ~prev:item ~lo:item ~hi next
    end
    else begin
      append t fresh (b + n) ~tail:hi ~prev item;
      split t fresh ~n b ~prev:item ~lo ~hi:item next
    end
  end

(* Double the table. One that cannot get the memory keeps its size and
   stops trying. *)
let grow t =
  let n = t.mask + 1 in
  match t.alloc_table (2 * n * 8) with
  | 0 -> t.grow_at <- max_int
  | table ->
      let old = Bytes.create (n * 8)
      and fresh = Bytes.make (2 * n * 8) '\000' in
      Space.read_into t.space t.table old 0 (n * 8);
      for b = 0 to n - 1 do
        split t fresh ~n b ~prev:0 ~lo:0 ~hi:0
          (Int64.to_int (Bytes.get_int64_le old (b * 8)))
      done;
      Space.store_from t.space table fresh 0 (2 * n * 8);
      t.free_table t.table;
      t.table <- table;
      t.mask <- (2 * n) - 1;
      t.grow_at <- grow_threshold (2 * n)

let commit t s off len item =
  charge_hash len;
  let old = find_prev t s off len in
  if old <> 0 then unlink t t.prev old;
  let slot = bucket_slot t s off len in
  Space.store64 t.space item (Space.load64 t.space slot);
  Space.store64 t.space slot item;
  lru_push_head t item;
  t.count <- t.count + 1;
  t.value_bytes <- t.value_bytes + value_len t item;
  if t.count > t.grow_at then grow t

let set t ~key ~flags ~value_src ~value_len =
  let n = String.length key in
  match prepare t key 0 n ~flags ~value_src ~value_len with
  | 0 -> false
  | item ->
      commit t key 0 n item;
      true

let find t s off len =
  charge_hash len;
  find_prev t s off len

let peek t key =
  match find t key 0 (String.length key) with
  | 0 -> None
  | item -> Some (value_addr t item, value_len t item, item_flags t item)

let get t key =
  match find t key 0 (String.length key) with
  | 0 -> None
  | item ->
      lru_bump t item;
      Some (value_addr t item, value_len t item, item_flags t item)

let bump = lru_bump

let touch t s off len =
  let item = find_prev t s off len in
  if item <> 0 then lru_bump t item

let remove t s off len =
  charge_hash len;
  match find_prev t s off len with
  | 0 -> false
  | item ->
      unlink t t.prev item;
      true

let delete t key = remove t key 0 (String.length key)
let mem t key = get t key <> None
let count t = t.count
let value_bytes t = t.value_bytes
let evictions t = t.evictions

let lru_keys t =
  let rec walk item acc =
    if item = 0 then List.rev acc
    else walk (lru_next t item) (item_key t item :: acc)
  in
  walk t.lru_head []

(* {1 Consistency check}

   [check]'s walks are top-level functions over one [checker], so
   walking a bucket builds nothing: an empty bucket costs its load and
   no allocation. [test/store_check_ref.ml] is the walk it must match:
   the same loads, in the same order, and the same messages. *)

type checker = {
  st : t;
  seen : (int, unit) Hashtbl.t;  (* the items the chains reach *)
  mutable errors : string list;  (* newest first *)
  mutable lru_count : int;
}

let err c fmt = Printf.ksprintf (fun s -> c.errors <- s :: c.errors) fmt

(* Bucket [b]'s chain from [item], the [depth]th link. *)
let rec check_chain c b item depth =
  if item <> 0 then
    if depth > 1_000_000 then err c "bucket %d: chain too long (cycle?)" b
    else if Hashtbl.mem c.seen item then err c "item 0x%x linked twice" item
    else begin
      let t = c.st in
      Hashtbl.replace c.seen item ();
      let klen = key_len t item in
      let vlen = value_len t item in
      if klen <= 0 || klen > 250 then
        err c "item 0x%x: bad key length %d" item klen
      else if vlen < 0 || header_size + klen + vlen > Slab.max_chunk_size then
        err c "item 0x%x: bad value length %d" item vlen
      else begin
        let key = item_key t item in
        if hash key land t.mask <> b then
          err c "item 0x%x (%s) in wrong bucket" item key
      end;
      check_chain c b (Space.load64 t.space item) (depth + 1)
    end

(* The LRU list from [item], whose predecessor is [prev]: it must thread
   exactly the linked items. *)
let rec check_lru c item prev =
  let t = c.st in
  if item <> 0 then begin
    if c.lru_count > t.count + 1 then err c "LRU list longer than item count"
    else begin
      c.lru_count <- c.lru_count + 1;
      if not (Hashtbl.mem c.seen item) then
        err c "LRU entry 0x%x is not a linked item" item;
      if lru_prev t item <> prev then err c "LRU back-link broken at 0x%x" item;
      check_lru c (lru_next t item) item
    end
  end
  else if t.lru_tail <> prev then err c "LRU tail does not match list end"

let check t =
  let c = { st = t; seen = Hashtbl.create 64; errors = []; lru_count = 0 } in
  for b = 0 to t.mask do
    check_chain c b (Space.load64 t.space (t.table + (b * 8))) 0
  done;
  if Hashtbl.length c.seen <> t.count then
    err c "item count mismatch: table has %d, accounting says %d"
      (Hashtbl.length c.seen) t.count;
  check_lru c t.lru_head 0;
  if c.lru_count <> t.count then
    err c "LRU count %d != item count %d" c.lru_count t.count;
  List.rev c.errors

type layout = { table : int; buckets : int; lru_head : int; lru_tail : int }

let layout (t : t) =
  {
    table = t.table;
    buckets = t.mask + 1;
    lru_head = t.lru_head;
    lru_tail = t.lru_tail;
  }
