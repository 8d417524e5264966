(* Consistent-hash ring with virtual nodes.

   The point table is a sorted array rebuilt on membership change —
   membership changes are rare (a failover), lookups are per-request, so
   the array + binary search is the right trade. Hashing is FNV-1a
   folded to 62 bits: deterministic across runs and platforms (OCaml
   ints are 63-bit here), which keeps every routing decision replayable
   from the seed like the rest of the simulation. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* Splitmix64 finalizer: FNV-1a alone avalanches poorly on the very
   short ["<m>#<v>"] vnode strings (their points cluster and whole
   members end up owning almost nothing), so the raw hash gets a full
   bit-mixing pass before use. *)
let[@inline] mix h =
  let h = Int64.logxor h (Int64.shift_right_logical h 30) in
  let h = Int64.mul h 0xbf58476d1ce4e5b9L in
  let h = Int64.logxor h (Int64.shift_right_logical h 27) in
  let h = Int64.mul h 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

(* A loop over a local ref: the compiler keeps [h] in a register,
   unboxed, so hashing a key allocates nothing. [s.[off, off + len)] is
   hashed where it lies. *)
let hash_sub s off len =
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  (* Fold to 62 bits so the point fits a non-negative OCaml int. *)
  Int64.to_int (Int64.logand (mix !h) 0x3FFF_FFFF_FFFF_FFFFL)

let hash s = hash_sub s 0 (String.length s)

type t = {
  vnodes : int;
  mutable members : int list;  (* ascending *)
  mutable points : (int * int) array;  (* (point, member), sorted by point *)
}

let create ?(vnodes = 64) () =
  if vnodes <= 0 then invalid_arg "Hash_ring.create: vnodes must be positive";
  { vnodes; members = []; points = [||] }

let rebuild t =
  let pts =
    List.concat_map
      (fun m ->
        List.init t.vnodes (fun v -> (hash (Printf.sprintf "%d#%d" m v), m)))
      t.members
  in
  (* Ties between distinct members are broken by member id so the table
     is a pure function of the membership set. *)
  t.points <- Array.of_list (List.sort compare pts)

let add t m =
  if not (List.mem m t.members) then begin
    t.members <- List.sort compare (m :: t.members);
    rebuild t
  end

let remove t m =
  if List.mem m t.members then begin
    t.members <- List.filter (fun x -> x <> m) t.members;
    rebuild t
  end

let members t = t.members
let size t = List.length t.members

(* Index of the first point at or after [h], wrapping at the top. *)
let successor t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let route_sub t s off len =
  if t.points = [||] then failwith "Hash_ring.route: empty ring";
  snd t.points.(successor t (hash_sub s off len))

let route t key = route_sub t key 0 (String.length key)
