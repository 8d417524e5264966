(* The scan [Netsim.Waitset] made on every wait before it kept a ready
   list, kept as the reference its pick is checked against. It looks at
   every watched connection, from the cursor, cyclically: among the
   ready ones, the earliest head-of-line arrival wins, and among equal
   arrivals the first one scanned. The cursor then sits one past the
   winner's index. Removal keeps the watched order, which is what the
   cursor indexes. A connection's readiness and arrival come from the
   caller ([ready], [ready_at]), so the reference reads nothing of
   Netsim's internals: a test drives it from its own model of each
   connection. *)

type 'c t = {
  mutable watched : 'c array;  (* [0, count) in insertion order *)
  mutable count : int;
  mutable cursor : int;
}

let create () = { watched = [||]; count = 0; cursor = 0 }

let add t c =
  if t.count = Array.length t.watched then begin
    let grown = Array.make (max 8 (2 * t.count)) c in
    Array.blit t.watched 0 grown 0 t.count;
    t.watched <- grown
  end;
  t.watched.(t.count) <- c;
  t.count <- t.count + 1

let remove t c =
  let kept = ref 0 in
  for i = 0 to t.count - 1 do
    let e = t.watched.(i) in
    if not (e == c) then begin
      t.watched.(!kept) <- e;
      incr kept
    end
  done;
  t.count <- !kept

let size t = t.count

(* The winner, [None] when no watched connection is ready. *)
let pick_earliest t ~ready ~ready_at =
  let n = t.count in
  let best = ref (-1) in
  for i = 0 to n - 1 do
    let idx = (t.cursor + i) mod n in
    let c = t.watched.(idx) in
    if ready c && (!best < 0 || ready_at c < ready_at t.watched.(!best)) then
      best := idx
  done;
  if !best < 0 then None
  else begin
    t.cursor <- (!best + 1) mod n;
    Some t.watched.(!best)
  end
