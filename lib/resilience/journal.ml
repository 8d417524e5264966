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
   mutations a client can have outstanding across its retry horizon. *)

module M = Telemetry.Metrics

type t = {
  capacity : int;
  entries : (string, string) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
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
  let t =
    {
      capacity;
      entries = Hashtbl.create (min capacity 256);
      order = Queue.create ();
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
          float_of_int (Hashtbl.length t.entries)))
    metrics;
  t

let find t rid =
  match Hashtbl.find_opt t.entries rid with
  | Some reply ->
      t.n_hits <- t.n_hits + 1;
      Option.iter M.inc t.c_hits;
      Some reply
  | None -> None

(* Peek without counting a replay hit (introspection / tests). *)
let mem t rid = Hashtbl.mem t.entries rid

let record t rid reply =
  if not (Hashtbl.mem t.entries rid) then begin
    if Hashtbl.length t.entries >= t.capacity then begin
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.entries oldest;
      t.n_evictions <- t.n_evictions + 1;
      Option.iter M.inc t.c_evictions
    end;
    Hashtbl.replace t.entries rid reply;
    Queue.add rid t.order
  end

let size t = Hashtbl.length t.entries
let hits t = t.n_hits
let evictions t = t.n_evictions
