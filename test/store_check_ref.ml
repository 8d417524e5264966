(* [Kvcache.Store.check] as it was before its walks became top-level
   functions: a [walk] closure built for every bucket of the table, and
   one for the LRU list. Kept as the reference the differential test in
   [test_kvcache] holds the check to — same messages, in the same order,
   and the same simulated clock, so the same checked loads. It reads the
   item layout [store.mli] documents, from where [Store.layout] says the
   current table and the LRU list start. *)

module Space = Vmem.Space
module Store = Kvcache.Store
module Slab = Kvcache.Slab

let header_size = Store.header_size
let key_len space i = Space.load32 space (i + 24)
let value_len space i = Space.load32 space (i + 28)
let lru_next space i = Space.load64 space (i + 8)
let lru_prev space i = Space.load64 space (i + 16)
let item_key space i = Space.read_string space (i + header_size) (key_len space i)

let check space store =
  let { Store.table; buckets; lru_head; lru_tail } = Store.layout store in
  let mask = buckets - 1 and count = Store.count store in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let seen = Hashtbl.create 64 in
  for b = 0 to mask do
    let slot = table + (b * 8) in
    let rec walk item depth =
      if item <> 0 then
        if depth > 1_000_000 then err "bucket %d: chain too long (cycle?)" b
        else if Hashtbl.mem seen item then err "item 0x%x linked twice" item
        else begin
          Hashtbl.replace seen item ();
          let klen = key_len space item in
          let vlen = value_len space item in
          if klen <= 0 || klen > 250 then
            err "item 0x%x: bad key length %d" item klen
          else if vlen < 0 || header_size + klen + vlen > Slab.max_chunk_size
          then err "item 0x%x: bad value length %d" item vlen
          else begin
            let key = item_key space item in
            if Store.hash key land mask <> b then
              err "item 0x%x (%s) in wrong bucket" item key
          end;
          walk (Space.load64 space item) (depth + 1)
        end
    in
    walk (Space.load64 space slot) 0
  done;
  if Hashtbl.length seen <> count then
    err "item count mismatch: table has %d, accounting says %d"
      (Hashtbl.length seen) count;
  (* The LRU list must thread exactly the linked items. *)
  let lru_count = ref 0 in
  let rec walk_lru item prev =
    if item <> 0 then begin
      if !lru_count > count + 1 then err "LRU list longer than item count"
      else begin
        incr lru_count;
        if not (Hashtbl.mem seen item) then
          err "LRU entry 0x%x is not a linked item" item;
        if lru_prev space item <> prev then
          err "LRU back-link broken at 0x%x" item;
        walk_lru (lru_next space item) item
      end
    end
    else if lru_tail <> prev then err "LRU tail does not match list end"
  in
  walk_lru lru_head 0;
  if !lru_count <> count then
    err "LRU count %d != item count %d" !lru_count count;
  List.rev !errors
