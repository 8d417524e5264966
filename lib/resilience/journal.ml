(* Replay journal for at-most-once request execution.

   The journal maps an idempotency key (the client's request id) to the
   response the server sent when the mutation was first applied. It is
   owned by the server's root ("monitor") context: entries are recorded
   by the parent *after* the deferred mutation commits, never from inside
   a nested domain, so a domain discard can neither reclaim nor corrupt
   it — which is exactly why a retry that arrives after a rewind can
   still be answered from it.

   The two cases the journal distinguishes:

   - The fault/loss happened *before* the commit (domain rewound, request
     dropped on the wire): no entry exists, the retry re-executes, and
     the op is applied exactly once.
   - The loss happened *after* the commit (response dropped or delayed
     past the client's timeout): the entry exists, the retry is answered
     with the journaled response, and the op is NOT applied a second
     time.

   Bounded: a FIFO ring of [capacity] keys; recording over a full journal
   evicts the oldest entry. The capacity therefore bounds the window in
   which duplicates are suppressed — size it above the number of
   mutations a client can have outstanding across its retry horizon.

   The table is fixed-size and keeps its own copy of every key, so a
   caller passes a key where it lies ([s off len], e.g. inside a request
   line it will overwrite) and a warm journal's lookups and records
   allocate nothing. Entries are the slots of the ring, oldest at
   [head]; each slot's key lives in a buffer of its own, grown only when
   a longer key lands in it. The index chains slots by hash through
   [next], with [-1] ending a chain. *)

module M = Telemetry.Metrics

type t = {
  capacity : int;
  keys : Bytes.t array;  (* a slot's key is the first [key_lens] bytes *)
  key_lens : int array;
  hashes : int array;
  replies : string array;
  next : int array;  (* the next slot of the same bucket, -1 = none *)
  buckets : int array;  (* the first slot of a bucket's chain, -1 = none *)
  mutable head : int;  (* the oldest slot *)
  mutable count : int;
  c_hits : M.counter option;
  c_evictions : M.counter option;
  mutable n_hits : int;
  mutable n_evictions : int;
}

let create ?metrics ?(name = "journal") ~capacity () =
  if capacity <= 0 then invalid_arg "Journal.create: capacity must be positive";
  let counter metric help =
    Option.map (fun m -> M.counter m (name ^ metric) ~help) metrics
  in
  let nbuckets = ref 1 in
  while !nbuckets < 2 * capacity do
    nbuckets := 2 * !nbuckets
  done;
  let t =
    {
      capacity;
      keys = Array.make capacity Bytes.empty;
      key_lens = Array.make capacity 0;
      hashes = Array.make capacity 0;
      replies = Array.make capacity "";
      next = Array.make capacity (-1);
      buckets = Array.make !nbuckets (-1);
      head = 0;
      count = 0;
      c_hits =
        counter "_replay_hits_total"
          "Retried mutations answered from the replay journal";
      c_evictions =
        counter "_replay_journal_evictions_total"
          "Journal entries evicted by the FIFO capacity bound";
      n_hits = 0;
      n_evictions = 0;
    }
  in
  Option.iter
    (fun m ->
      M.gauge_fn m
        (name ^ "_replay_journal_entries")
        ~help:"Idempotency keys currently journaled" (fun () ->
          float_of_int t.count))
    metrics;
  t

(* FNV-1a over the key's bytes, kept to a non-negative int. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L

let hash s off len =
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h land max_int

let bucket t h = h land (Array.length t.buckets - 1)

let rec equal_from k s off len i =
  i = len
  || Bytes.unsafe_get k i = String.unsafe_get s (off + i)
     && equal_from k s off len (i + 1)

(* The slot holding the key, or -1. *)
let rec lookup t h s off len i =
  if i < 0 then -1
  else if
    t.hashes.(i) = h && t.key_lens.(i) = len && equal_from t.keys.(i) s off len 0
  then i
  else lookup t h s off len t.next.(i)

let hash_key s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Journal: key out of bounds";
  hash s off len

let slot_of t s off len =
  let h = hash_key s off len in
  lookup t h s off len t.buckets.(bucket t h)

let find t s off len =
  match slot_of t s off len with
  | -1 -> raise Not_found
  | i ->
      t.n_hits <- t.n_hits + 1;
      Option.iter M.inc t.c_hits;
      t.replies.(i)

(* Peek without counting a replay hit (introspection / tests). *)
let mem t s off len = slot_of t s off len >= 0

(* Unlink slot [i] from its bucket's chain. *)
let unlink t i =
  let b = bucket t t.hashes.(i) in
  if t.buckets.(b) = i then t.buckets.(b) <- t.next.(i)
  else begin
    let p = ref t.buckets.(b) in
    while t.next.(!p) <> i do
      p := t.next.(!p)
    done;
    t.next.(!p) <- t.next.(i)
  end;
  t.next.(i) <- -1

let record t s off len reply =
  let h = hash_key s off len in
  if lookup t h s off len t.buckets.(bucket t h) < 0 then begin
    let i =
      if t.count = t.capacity then begin
        (* The oldest slot takes the new key. *)
        let i = t.head in
        unlink t i;
        t.replies.(i) <- "";
        t.head <- (i + 1) mod t.capacity;
        t.count <- t.count - 1;
        t.n_evictions <- t.n_evictions + 1;
        Option.iter M.inc t.c_evictions;
        i
      end
      else (t.head + t.count) mod t.capacity
    in
    if Bytes.length t.keys.(i) < len then t.keys.(i) <- Bytes.create len;
    Bytes.blit_string s off t.keys.(i) 0 len;
    t.key_lens.(i) <- len;
    t.hashes.(i) <- h;
    t.replies.(i) <- reply;
    t.next.(i) <- t.buckets.(bucket t h);
    t.buckets.(bucket t h) <- i;
    t.count <- t.count + 1
  end

let size t = t.count
let hits t = t.n_hits
let evictions t = t.n_evictions
