module Space = Vmem.Space
module Sched = Simkern.Sched

let header_size = 40

type t = {
  space : Space.t;
  slab : Slab.t;
  table : int;  (* bucket array base: nbuckets 8-byte slots *)
  mask : int;
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

let create space ~buckets ~slab ~alloc_table =
  let n = round_pow2 (max 16 buckets) in
  let table = alloc_table (n * 8) in
  {
    space;
    slab;
    table;
    mask = n - 1;
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

let commit t s off len item =
  charge_hash len;
  let old = find_prev t s off len in
  if old <> 0 then unlink t t.prev old;
  let slot = bucket_slot t s off len in
  Space.store64 t.space item (Space.load64 t.space slot);
  Space.store64 t.space slot item;
  lru_push_head t item;
  t.count <- t.count + 1;
  t.value_bytes <- t.value_bytes + value_len t item

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
