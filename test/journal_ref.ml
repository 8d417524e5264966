(* The replay journal as it was before [Resilience.Journal] became a
   fixed-capacity table keyed by [s off len]: a [Hashtbl] of string
   keys and a [Queue] of them for FIFO eviction, each keyed write a copy
   of the rid, a bucket and a queue cell. Kept as the reference the
   differential test in [test_recovery] holds the journal to — same
   replies, hits, evictions and sizes. *)

type t = {
  capacity : int;
  entries : (string, string) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
  mutable n_hits : int;
  mutable n_evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Journal_ref.create";
  {
    capacity;
    entries = Hashtbl.create (min capacity 256);
    order = Queue.create ();
    n_hits = 0;
    n_evictions = 0;
  }

let find t rid =
  match Hashtbl.find_opt t.entries rid with
  | Some reply ->
      t.n_hits <- t.n_hits + 1;
      Some reply
  | None -> None

let mem t rid = Hashtbl.mem t.entries rid

let record t rid reply =
  if not (Hashtbl.mem t.entries rid) then begin
    if Hashtbl.length t.entries >= t.capacity then begin
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.entries oldest;
      t.n_evictions <- t.n_evictions + 1
    end;
    Hashtbl.replace t.entries rid reply;
    Queue.add rid t.order
  end

let size t = Hashtbl.length t.entries
let hits t = t.n_hits
let evictions t = t.n_evictions
