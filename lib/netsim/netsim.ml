module Sched = Simkern.Sched
module Cost = Simkern.Cost

(* Link-level fault injection: what happens to one message on the wire.
   The hook lives in a record shared by every endpoint of a network so a
   chaos engine can be armed after connections exist. *)
type send_action = Deliver | Drop | Truncate of int | Delay of float

type hooks = { mutable on_send : (len:int -> send_action) option }

type endpoint = {
  eid : int;
  src : int;  (* source address of the connecting side, for peer identity *)
  cost : Cost.t;
  hooks : hooks;
  inbox : (float * string) Queue.t;  (* (delivery time, payload) *)
  mutable peer : endpoint;  (* physical equality with self until paired *)
  mutable closed : bool;
  mutable waiter : Sched.wake option;
  mutable ws : waitset option;
}

and waitset = {
  mutable watched : endpoint array;  (* [0, count) in insertion order *)
  mutable count : int;
  mutable cursor : int;
  mutable ws_waiter : Sched.wake option;
  mutable ws_closed : bool;
}

type conn = endpoint

(* Multiple acceptors may block in [accept] on one listener (the
   SO_REUSEPORT / acceptor-thread-pool pattern); each connect wakes one,
   and a woken acceptor that finds the backlog already drained simply
   parks again. *)
type listener = {
  l_cost : Cost.t;
  backlog : endpoint Queue.t;
  l_waiters : Sched.wake Queue.t;
  mutable l_closed : bool;
}

type t = {
  n_cost : Cost.t;
  ports : (int, listener) Hashtbl.t;
  mutable next_eid : int;
  n_hooks : hooks;
}

let create cost =
  {
    n_cost = cost;
    ports = Hashtbl.create 8;
    next_eid = 0;
    n_hooks = { on_send = None };
  }

let set_fault_hook t h = t.n_hooks.on_send <- h

let listen t ~port =
  let l =
    {
      l_cost = t.n_cost;
      backlog = Queue.create ();
      l_waiters = Queue.create ();
      l_closed = false;
    }
  in
  Hashtbl.replace t.ports port l;
  l

let fresh_endpoint t ~src =
  let eid = t.next_eid in
  t.next_eid <- eid + 1;
  let rec e =
    {
      eid;
      src;
      cost = t.n_cost;
      hooks = t.n_hooks;
      inbox = Queue.create ();
      peer = e;
      closed = false;
      waiter = None;
      ws = None;
    }
  in
  e

let wake_endpoint e ~at =
  (match e.waiter with
  | Some w ->
      e.waiter <- None;
      w ~at
  | None -> ());
  match e.ws with
  | Some ws -> (
      match ws.ws_waiter with
      | Some w ->
          ws.ws_waiter <- None;
          w ~at
      | None -> ())
  | None -> ()

(* [src] is the client's source address (think IP): connections made with
   the same [src] are recognizably the same remote peer on the server
   side via [remote_addr]. Defaults to a per-connection unique id. *)
let connect ?src t ~port =
  match Hashtbl.find_opt t.ports port with
  | None -> failwith (Printf.sprintf "Netsim.connect: no listener on port %d" port)
  | Some l ->
      let src = match src with Some s -> s | None -> t.next_eid in
      let client = fresh_endpoint t ~src in
      let server = fresh_endpoint t ~src in
      client.peer <- server;
      server.peer <- client;
      Sched.charge t.n_cost.Cost.net_msg;
      Queue.add server l.backlog;
      (match Queue.take_opt l.l_waiters with
      | Some w -> w ~at:(Sched.now ())
      | None -> ());
      client

let rec accept l =
  match Queue.take_opt l.backlog with
  | Some server ->
      Sched.charge l.l_cost.Cost.syscall;
      Some server
  | None ->
      if l.l_closed then None
      else begin
        Sched.suspend (fun wake -> Queue.add wake l.l_waiters);
        accept l
      end

let close_listener l =
  l.l_closed <- true;
  Queue.iter (fun w -> w ~at:(Sched.now ())) l.l_waiters;
  Queue.clear l.l_waiters

let latency cost len =
  cost.Cost.net_msg +. (cost.Cost.net_byte *. float_of_int len)

let send c msg =
  if not (c.closed || c.peer.closed) then begin
    let action =
      match c.hooks.on_send with
      | Some h -> h ~len:(String.length msg)
      | None -> Deliver
    in
    (* The sender always pays the transmission cost for what it put on the
       wire; the fault decides what the receiver sees. *)
    let lat = latency c.cost (String.length msg) in
    Sched.charge lat;
    match action with
    | Drop -> ()
    | Deliver | Truncate _ | Delay _ ->
        let msg =
          match action with
          | Truncate n -> String.sub msg 0 (max 0 (min n (String.length msg)))
          | _ -> msg
        in
        let extra = match action with Delay d -> Float.max 0.0 d | _ -> 0.0 in
        let arrival = Sched.now () +. lat +. extra in
        Queue.add (arrival, msg) c.peer.inbox;
        wake_endpoint c.peer ~at:arrival
  end

let deliverable c =
  match Queue.peek_opt c.inbox with
  | Some (arrival, _) -> Some arrival
  | None -> None

let try_recv c =
  match Queue.peek_opt c.inbox with
  | Some (arrival, _) when arrival <= Sched.now () ->
      let _, msg = Queue.pop c.inbox in
      Some msg
  | Some _ | None -> None

let rec recv c =
  match Queue.peek_opt c.inbox with
  | Some (arrival, _) ->
      Sched.wait_until arrival;
      let _, msg = Queue.pop c.inbox in
      Some msg
  | None ->
      if c.peer.closed || c.closed then None
      else begin
        Sched.suspend (fun wake -> c.waiter <- Some wake);
        recv c
      end

let rec recv_with_arrival c =
  match Queue.peek_opt c.inbox with
  | Some (arrival, _) ->
      Sched.wait_until arrival;
      let _, msg = Queue.pop c.inbox in
      Some (msg, arrival)
  | None ->
      if c.peer.closed || c.closed then None
      else begin
        Sched.suspend (fun wake -> c.waiter <- Some wake);
        recv_with_arrival c
      end

(* Timed [recv]: when nothing is queued, the receiver blocks with a
   scheduler timer armed for [deadline] ([Sched.suspend_until]). Wake
   callbacks are idempotent, so whichever of the two wake paths (message
   arrival, timer) loses the race is a no-op; a stale waiter left behind
   by a timeout is likewise harmless — the next wake clears it without
   effect. *)
let recv_deadline c ~deadline =
  let rec loop () =
    match Queue.peek_opt c.inbox with
    | Some (arrival, _) when arrival <= deadline ->
        Sched.wait_until arrival;
        let _, msg = Queue.pop c.inbox in
        Some msg
    | Some _ ->
        (* Head-of-line message arrives after the deadline: in-order
           delivery means nothing else can overtake it. *)
        Sched.wait_until deadline;
        None
    | None ->
        if c.peer.closed || c.closed then None
        else if Sched.now () >= deadline then None
        else begin
          Sched.suspend_until ~deadline (fun wake -> c.waiter <- Some wake);
          loop ()
        end
  in
  loop ()

let close c =
  if not c.closed then begin
    c.closed <- true;
    wake_endpoint c.peer ~at:(Sched.now ());
    wake_endpoint c ~at:(Sched.now ())
  end

let is_open c = not c.closed
let peer_closed c = c.peer.closed
let id c = c.eid
let remote_addr c = c.src

module Waitset = struct
  type ws = waitset

  (* A connection is reportable when a message is queued (even with a
     future delivery time: recv will advance the clock) or the peer closed
     (recv will report None so the server can clean up). *)
  let ready c = (not (Queue.is_empty c.inbox)) || c.peer.closed || c.closed

  let create () =
    { watched = [||]; count = 0; cursor = 0; ws_waiter = None; ws_closed = false }

  let wake_ws ws =
    match ws.ws_waiter with
    | Some w ->
        ws.ws_waiter <- None;
        w ~at:(Sched.now ())
    | None -> ()

  let add ws c =
    c.ws <- Some ws;
    if ws.count = Array.length ws.watched then begin
      let grown = Array.make (max 8 (2 * ws.count)) c in
      Array.blit ws.watched 0 grown 0 ws.count;
      ws.watched <- grown
    end;
    ws.watched.(ws.count) <- c;
    ws.count <- ws.count + 1;
    if ready c then wake_ws ws

  let close ws =
    ws.ws_closed <- true;
    wake_ws ws

  let remove ws c =
    c.ws <- None;
    let kept = ref 0 in
    for i = 0 to ws.count - 1 do
      let e = ws.watched.(i) in
      if not (e == c) then begin
        ws.watched.(!kept) <- e;
        incr kept
      end
    done;
    (* Vacated slots keep a live entry, not the removed connection. *)
    for i = !kept to ws.count - 1 do
      ws.watched.(i) <- ws.watched.(0)
    done;
    ws.count <- !kept

  (* Delivery time of the head-of-line message; a closed peer with
     nothing queued is reportable now. *)
  let head_arrival c =
    if Queue.is_empty c.inbox then neg_infinity else fst (Queue.peek c.inbox)

  (* Among ready connections, serve the one whose head-of-line message
     has the earliest delivery time (a closed peer reports immediately).
     First-ready-from-a-cursor round-robin is NOT equivalent: picking a
     later conn whose message arrives in the future advances the
     caller's clock past it, so the skipped earlier messages accrue
     phantom queueing delay they never actually suffered — an idle
     server would appear to answer old requests late. Arrival order is
     FIFO across the whole set; the cursor breaks ties so same-time
     events still rotate fairly: scanning from the cursor, a later
     connection wins only with a strictly earlier arrival. Runs on every
     wait, over every watched connection, so it allocates nothing: the
     winner comes back as its slot, or -1 when none is ready. *)
  let pick_earliest ws =
    let n = ws.count in
    let best = ref (-1) in
    for i = 0 to n - 1 do
      let idx = (ws.cursor + i) mod n in
      let c = ws.watched.(idx) in
      if
        ready c
        && (!best < 0 || head_arrival c < head_arrival ws.watched.(!best))
      then best := idx
    done;
    if !best >= 0 then ws.cursor <- (!best + 1) mod n;
    !best

  let rec wait ws =
    if ws.ws_closed then None
    else
      match pick_earliest ws with
      | idx when idx >= 0 ->
          let c = ws.watched.(idx) in
          (* If the message arrives in the future, wait for it so the
             caller's recv does not under-account time. *)
          (match deliverable c with
          | Some arrival -> Sched.wait_until arrival
          | None -> ());
          Some c
      | _ ->
          Sched.suspend (fun wake -> ws.ws_waiter <- Some wake);
          wait ws

  let backlog ws =
    let n = ref 0 in
    for i = 0 to ws.count - 1 do
      n := !n + Queue.length ws.watched.(i).inbox
    done;
    !n

  (* Timed [wait], built like [recv_deadline]: a scheduler timer provides
     the deadline wake; readiness picks the same earliest-arrival winner
     as [wait], but a winner whose head-of-line message arrives after
     the deadline counts as a timeout. *)
  let rec wait_deadline ws ~deadline =
    if ws.ws_closed then None
    else
      match pick_earliest ws with
      | idx when idx >= 0 -> (
          let c = ws.watched.(idx) in
          match deliverable c with
          | Some arrival when arrival <= deadline ->
              Sched.wait_until arrival;
              Some c
          | Some _ ->
              Sched.wait_until deadline;
              None
          | None -> Some c (* closed peer: reportable immediately *))
      | _ ->
          if Sched.now () >= deadline then None
          else begin
            Sched.suspend_until ~deadline (fun wake ->
                ws.ws_waiter <- Some wake);
            wait_deadline ws ~deadline
          end
end
