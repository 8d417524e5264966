module Sched = Simkern.Sched
module Cost = Simkern.Cost

(* Link-level fault injection: what happens to one message on the wire.
   The hook lives in a record shared by every endpoint of a network so a
   chaos engine can be armed after connections exist. *)
type send_action = Deliver | Drop | Truncate of int | Delay of float

(* A thread-owned message buffer: [len] bytes of [data], whose length is
   a power of two, and the delivery time of the message last received
   into it, kept in a float-only record so that writing it boxes
   nothing. *)
module Buf = struct
  type stamp = { mutable at : float }
  type t = { mutable data : Bytes.t; mutable len : int; stamp : stamp }

  let min_capacity = 64

  let rec fit cap n = if cap >= n then cap else fit (2 * cap) n
  let create () =
    { data = Bytes.create min_capacity; len = 0; stamp = { at = 0.0 } }

  let length b = b.len
  let bytes b = b.data
  let view b = Bytes.unsafe_to_string b.data
  let arrival b = b.stamp.at
  let older_than b age = (Sched.clock_cell ()).clock -. b.stamp.at > age
  let contents b = Bytes.sub_string b.data 0 b.len
  let clear b = b.len <- 0

  let equal_string b s =
    b.len = String.length s
    &&
    let rec from i =
      i = b.len
      || (Bytes.unsafe_get b.data i = String.unsafe_get s i && from (i + 1))
    in
    from 0

  (* Room for [n] bytes, keeping the first [keep]. *)
  let ensure b n ~keep =
    if n > Bytes.length b.data then begin
      let data = Bytes.create (fit (Bytes.length b.data) n) in
      Bytes.blit b.data 0 data 0 keep;
      b.data <- data
    end

  let reserve b n =
    let off = b.len in
    ensure b (off + n) ~keep:off;
    b.len <- off + n;
    off

  let reset b n =
    ensure b n ~keep:0;
    b.len <- n;
    b.data

  let add_string b s =
    let off = reserve b (String.length s) in
    Bytes.blit_string s 0 b.data off (String.length s)

  (* The bytes [frame.[0, n)] as the buffer's contents. *)
  let load b frame n = Bytes.blit frame 0 (reset b n) 0 n
end

(* The network's frame pool: free frames by size class, class [c]
   holding [Bytes] of [1 lsl (c + min_shift)] bytes in a stack
   [free.(c).(0 .. count.(c) - 1)]. A [send_buf] takes the smallest
   class that fits the message and the receive that consumes it gives
   the frame back, so the pool never holds more frames than were once in
   flight together.

   Only messages of up to [max_pooled] bytes are pooled: the minor heap
   takes blocks of up to 256 words, 2 KiB, so a fresh copy of a message
   up to that size is the minor allocation the pool saves. A larger
   message gets a frame of its own, allocated on the major heap as a
   string that size always is: pooling it would save no minor words
   and would keep its class's peak in flight alive for the rest of the
   run. *)
type pool = { free : Bytes.t array array; count : int array }

let min_shift = 6
let max_pooled = 2048
let classes = 6 (* 64 B to [max_pooled] *)

let rec class_of c n =
  if 1 lsl (c + min_shift) >= n then c else class_of (c + 1) n

let take_frame p n =
  let c = class_of 0 n in
  let k = p.count.(c) in
  if k = 0 then Bytes.create (1 lsl (c + min_shift))
  else begin
    p.count.(c) <- k - 1;
    let f = p.free.(c).(k - 1) in
    p.free.(c).(k - 1) <- Bytes.empty;
    f
  end

let release_frame p f =
  let c = class_of 0 (Bytes.length f) in
  let k = p.count.(c) in
  if k = Array.length p.free.(c) then begin
    let grown = Array.make (max 4 (2 * k)) Bytes.empty in
    Array.blit p.free.(c) 0 grown 0 k;
    p.free.(c) <- grown
  end;
  p.free.(c).(k) <- f;
  p.count.(c) <- k + 1

(* What every endpoint of a network shares: its cost model, the fault
   hook and the frame pool. *)
type shared = {
  s_cost : Cost.t;
  mutable on_send : (len:int -> send_action) option;
  pool : pool;
}

let fresh_shared cost =
  {
    s_cost = cost;
    on_send = None;
    pool = { free = Array.make classes [||]; count = Array.make classes 0 };
  }

(* The inbox is a ring of [queued] messages from slot [head]: delivery
   times unboxed in [arrivals], frames in the same slots of [frames] and
   their lengths in [lens], capacity a power of two: one slot at the
   first message, doubled as the connection's depth needs. A
   [send_buf]'s frame comes from the pool and goes back to it when
   received; a [send]'s frame is the sent string itself, held by
   reference and never written or pooled, and so is a [send_buf] frame
   too large to pool. [lens] tells them apart: a message of [n] bytes
   has [2 n + 1] for a pooled frame and [2 n] for a string. Queueing a
   message allocates nothing once the ring has grown to the connection's
   depth. *)
type endpoint = {
  eid : int;
  src : int;  (* source address of the connecting side, for peer identity *)
  shared : shared;
  mutable arrivals : Float.Array.t;
  mutable frames : Bytes.t array;
  mutable lens : int array;
  mutable head : int;
  mutable queued : int;
  mutable peer : endpoint;  (* [unpaired] until [connect] pairs it *)
  mutable closed : bool;
  mutable waiter : Sched.handle;  (* [Sched.no_handle] when none *)
  mutable ws : waitset;  (* [no_ws] while no waitset watches it *)
  mutable wpos : int;  (* its slot in [ws.watched] *)
  mutable rpos : int;  (* its index in [ws.ready]; -1 while not ready *)
}

(* [watched] holds the set in insertion order, the order that breaks
   ties between equal arrivals, with a removed connection's slot left
   vacant; [ranks] gives a live one its index among the live ones.
   [ready] holds the watched connections that are ready, in no order, so
   a wait looks at those alone, as epoll's ready list lets epoll_wait
   do. *)
and waitset = {
  mutable watched : endpoint array;  (* [0, used) in insertion order *)
  mutable used : int;
  mutable ranks : int array;  (* a Fenwick tree: 1 per live slot *)
  mutable count : int;  (* live slots *)
  mutable cursor : int;  (* a rank *)
  mutable ready : endpoint array;  (* [0, n_ready) *)
  mutable n_ready : int;
  mutable ws_waiter : Sched.handle;
  mutable ws_closed : bool;
}

type conn = endpoint

(* A FIFO of [size] items from slot [first] of [items], whose length is
   a power of two. Adding allocates nothing once the ring has grown to
   the queue's depth; a vacated slot holds [filler], so a taken item is
   not kept reachable. *)
type 'a ring = {
  mutable items : 'a array;
  mutable first : int;
  mutable size : int;
  filler : 'a;
}

let ring filler = { items = [||]; first = 0; size = 0; filler }

let ring_add r x =
  let cap = Array.length r.items in
  if r.size = cap then begin
    let grown = Array.make (max 1 (2 * cap)) r.filler in
    for i = 0 to r.size - 1 do
      grown.(i) <- r.items.((r.first + i) land (cap - 1))
    done;
    r.items <- grown;
    r.first <- 0
  end;
  r.items.((r.first + r.size) land (Array.length r.items - 1)) <- x;
  r.size <- r.size + 1

(* The oldest item; callers check [size] first. *)
let ring_take r =
  let x = r.items.(r.first) in
  r.items.(r.first) <- r.filler;
  r.first <- (r.first + 1) land (Array.length r.items - 1);
  r.size <- r.size - 1;
  x

(* Multiple acceptors may block in [accept] on one listener (the
   SO_REUSEPORT / acceptor-thread-pool pattern); each connect wakes one,
   and a woken acceptor that finds the backlog already drained simply
   parks again. Both queues are rings, so a connect and its accept
   allocate no queue cell. *)
type listener = {
  l_cost : Cost.t;
  backlog : endpoint ring;
  l_waiters : Sched.handle ring;
  mutable l_closed : bool;
}

type t = {
  n_cost : Cost.t;
  ports : (int, listener) Hashtbl.t;
  mutable next_eid : int;
  n_shared : shared;
}

let create cost =
  {
    n_cost = cost;
    ports = Hashtbl.create 8;
    next_eid = 0;
    n_shared = fresh_shared cost;
  }

let set_fault_hook t h = t.n_shared.on_send <- h
let pooled_frames t = Array.fold_left ( + ) 0 t.n_shared.pool.count

(* A fresh endpoint's defaults, and its peer until [connect] pairs it:
   copying it makes an endpoint without a recursive value, which would
   be allocated twice. [no_ws] is the waitset of an endpoint no set
   watches, compared by physical equality ([Some ws] would allocate per
   {!Waitset.add}); nothing ever joins it. *)
let rec unpaired =
  {
    eid = -1;
    src = -1;
    shared = fresh_shared Cost.default;
    arrivals = Float.Array.create 0;
    frames = [||];
    lens = [||];
    head = 0;
    queued = 0;
    peer = unpaired;
    closed = false;
    waiter = Sched.no_handle;
    ws = no_ws;
    wpos = -1;
    rpos = -1;
  }

and no_ws =
  {
    watched = [||];
    used = 0;
    ranks = [| 0 |];
    count = 0;
    cursor = 0;
    ready = [||];
    n_ready = 0;
    ws_waiter = Sched.no_handle;
    ws_closed = true;
  }

let listen t ~port =
  let l =
    {
      l_cost = t.n_cost;
      backlog = ring unpaired;
      l_waiters = ring Sched.no_handle;
      l_closed = false;
    }
  in
  Hashtbl.replace t.ports port l;
  l

let fresh_endpoint t ~src =
  let eid = t.next_eid in
  t.next_eid <- eid + 1;
  { unpaired with eid; src; shared = t.n_shared }

(* "No connection", compared by physical equality: closed, so it is
   never open, never ready, and closing it again is a no-op. *)
let no_conn = { unpaired with closed = true }

(* {1 The ready list}

   A watched connection is ready when a message is queued (even with a
   future delivery time: a receive advances the clock to it) or either
   end has closed (a receive reports the close, so the server can clean
   up). It is on its waitset's [ready] list exactly while it is ready:
   it joins when its inbox goes from empty to non-empty or either end
   closes, and leaves when its inbox drains while both ends are open,
   or when it is removed. *)

let[@inline] is_ready c = c.queued > 0 || c.peer.closed || c.closed

let join ws c =
  if c.rpos < 0 then begin
    let n = ws.n_ready in
    if n = Array.length ws.ready then begin
      let grown = Array.make (max 8 (2 * n)) unpaired in
      Array.blit ws.ready 0 grown 0 n;
      ws.ready <- grown
    end;
    ws.ready.(n) <- c;
    c.rpos <- n;
    ws.n_ready <- n + 1
  end

(* The last entry takes the leaver's slot. *)
let leave ws c =
  let r = c.rpos in
  if r >= 0 then begin
    let last = ws.n_ready - 1 in
    let m = ws.ready.(last) in
    ws.ready.(r) <- m;
    m.rpos <- r;
    ws.ready.(last) <- unpaired;
    ws.n_ready <- last;
    c.rpos <- -1
  end

(* Queue a message; the ring slot that holds its delivery time. *)
let[@inline] enqueue e arrival frame len =
  let cap = Array.length e.frames in
  if e.queued = cap then begin
    let cap' = max 1 (2 * cap) in
    let arrivals = Float.Array.create cap'
    and frames = Array.make cap' Bytes.empty
    and lens = Array.make cap' 0 in
    for i = 0 to e.queued - 1 do
      let j = (e.head + i) land (cap - 1) in
      Float.Array.set arrivals i (Float.Array.get e.arrivals j);
      frames.(i) <- e.frames.(j);
      lens.(i) <- e.lens.(j)
    done;
    e.arrivals <- arrivals;
    e.frames <- frames;
    e.lens <- lens;
    e.head <- 0
  end;
  let j = (e.head + e.queued) land (Array.length e.frames - 1) in
  Float.Array.set e.arrivals j arrival;
  e.frames.(j) <- frame;
  e.lens.(j) <- len;
  e.queued <- e.queued + 1;
  j

(* Delivery time of the head-of-line message; callers check [queued]
   first. Inlined wherever it is compared, so the float is never boxed:
   a non-inlined function returning a [Float.Array] element boxes it. *)
let[@inline] head_arrival e = Float.Array.get e.arrivals e.head

(* Drop the head-of-line message from the ring (its frame is the
   caller's now). An inbox that drains while both ends are open leaves
   the ready list. *)
let advance e =
  e.frames.(e.head) <- Bytes.empty;
  e.head <- (e.head + 1) land (Array.length e.frames - 1);
  e.queued <- e.queued - 1;
  if e.queued = 0 && not (e.closed || e.peer.closed) then leave e.ws e

(* The head-of-line message as a string: a sent string is handed back
   as it is, and a pooled frame is copied out and returned to the
   pool. *)
let dequeue e =
  let frame = e.frames.(e.head) and l = e.lens.(e.head) in
  advance e;
  let n = l lsr 1 in
  if l land 1 = 1 then begin
    let msg = Bytes.sub_string frame 0 n in
    release_frame e.shared.pool frame;
    msg
  end
  else if n = Bytes.length frame then Bytes.unsafe_to_string frame
  else Bytes.sub_string frame 0 n

(* The head-of-line message into [b], with its delivery time. *)
let dequeue_into e b =
  let frame = e.frames.(e.head) and l = e.lens.(e.head) in
  b.Buf.stamp.at <- head_arrival e;
  advance e;
  Buf.load b frame (l lsr 1);
  if l land 1 = 1 then release_frame e.shared.pool frame

(* Advance the caller's clock to the head-of-line message's delivery
   time when it lies ahead ([Sched.wait_until], called only then: its
   argument is boxed across the library boundary). *)
let catch_up e =
  let arrival = head_arrival e in
  if arrival > (Sched.clock_cell ()).clock then Sched.wait_until arrival

let[@inline] wake_handle e j w =
  ignore (if j < 0 then Sched.wake w else Sched.wake_from w e.arrivals j)

(* [e] has become ready, a message queued or an end closed: it joins its
   waitset's ready list, if a set watches it, and its receiver and its
   waitset's waiter wake, at the delivery time in slot [j] of [e]'s
   ring, or at the caller's clock when [j] is -1. A handle wakes at most
   once, so a slot is cleared as it is used. *)
let wake_endpoint e j =
  let ws = e.ws in
  if ws != no_ws then join ws e;
  let w = e.waiter in
  if w != Sched.no_handle then begin
    e.waiter <- Sched.no_handle;
    wake_handle e j w
  end;
  let w = ws.ws_waiter in
  if w != Sched.no_handle then begin
    ws.ws_waiter <- Sched.no_handle;
    wake_handle e j w
  end

(* Hand a connection to one acceptor: wake waiters, oldest first, until
   one wakes. An acceptor killed while queued left a stale handle, which
   is passed over, so the connection is not lost to it. *)
let rec wake_first r =
  if r.size > 0 && not (Sched.wake (ring_take r)) then wake_first r

(* [src] is the client's source address (think IP): connections made with
   the same [src] are recognizably the same remote peer on the server
   side via [remote_addr]. Defaults to a per-connection unique id. The
   charge goes through the clock cell: [Sched.charge] would box it. *)
let connect ?src t ~port =
  match Hashtbl.find t.ports port with
  | exception Not_found ->
      failwith (Printf.sprintf "Netsim.connect: no listener on port %d" port)
  | l ->
      let src = match src with Some s -> s | None -> t.next_eid in
      let client = fresh_endpoint t ~src in
      let server = fresh_endpoint t ~src in
      client.peer <- server;
      server.peer <- client;
      let k = Sched.clock_cell () in
      k.clock <- k.clock +. t.n_cost.Cost.net_msg;
      (* Refused: nothing will accept it, so its server end is closed
         from the start and a receive reports the close at once. *)
      if l.l_closed then server.closed <- true
      else begin
        ring_add l.backlog server;
        wake_first l.l_waiters
      end;
      client

let rec accept l =
  if l.backlog.size > 0 then begin
    let server = ring_take l.backlog in
    let k = Sched.clock_cell () in
    k.clock <- k.clock +. l.l_cost.Cost.syscall;
    Some server
  end
  else if l.l_closed then None
  else begin
    ring_add l.l_waiters (Sched.handle ());
    Sched.block ();
    accept l
  end

let close_listener l =
  l.l_closed <- true;
  while l.l_waiters.size > 0 do
    ignore (Sched.wake (ring_take l.l_waiters))
  done

let[@inline] latency cost len =
  cost.Cost.net_msg +. (cost.Cost.net_byte *. float_of_int len)

(* Charges and clock reads go through the sender's clock cell, the same
   float additions [Sched.charge] and [Sched.now] make, without boxing.
   [copy] says whether the message's [len] bytes of [src] go into a
   pooled frame or are queued as they are. *)
let[@inline] transmit c src len ~copy =
  if not (c.closed || c.peer.closed) then begin
    let action =
      match c.shared.on_send with Some h -> h ~len | None -> Deliver
    in
    (* The sender always pays the transmission cost for what it put on the
       wire; the fault decides what the receiver sees. *)
    let lat = latency c.shared.s_cost len in
    let k = Sched.clock_cell () in
    k.clock <- k.clock +. lat;
    match action with
    | Drop -> ()
    | Deliver | Truncate _ | Delay _ ->
        let n = match action with Truncate n -> max 0 (min n len) | _ -> len in
        let extra = match action with Delay d -> Float.max 0.0 d | _ -> 0.0 in
        let arrival = k.clock +. lat +. extra in
        let j =
          if copy && n <= max_pooled then begin
            let frame = take_frame c.shared.pool n in
            Bytes.blit src 0 frame 0 n;
            enqueue c.peer arrival frame ((2 * n) + 1)
          end
          else if copy then
            (* A frame of its own, never written again: a receive treats
               it as a sent string. *)
            enqueue c.peer arrival (Bytes.sub src 0 n) (2 * n)
          else enqueue c.peer arrival src (2 * n)
        in
        wake_endpoint c.peer j
  end

let send c msg =
  transmit c (Bytes.unsafe_of_string msg) (String.length msg) ~copy:false

let send_buf c b = transmit c b.Buf.data b.Buf.len ~copy:true

(* Block until a message is deliverable, then bring the caller's clock
   to it: [true], and the caller dequeues it; [false] once the peer has
   closed with nothing queued. *)
let rec await c =
  if c.queued > 0 then begin
    catch_up c;
    true
  end
  else if c.peer.closed || c.closed then false
  else begin
    c.waiter <- Sched.handle ();
    Sched.block ();
    await c
  end

let recv c = if await c then Some (dequeue c) else None

let recv_buf c b =
  await c
  && begin
       dequeue_into c b;
       true
     end

(* A timed [recv_buf], giving up at [Float.Array.get times i]: a
   parked receiver's timer is armed with [Sched.block_until_from], which
   reads the deadline in place. A handle wakes at most once, so
   whichever of the two wake paths (message arrival, timer) loses the
   race is a no-op; the stale handle a timeout leaves in [waiter] is
   likewise harmless — the next wake clears it without effect, even
   when the thread has blocked elsewhere since. The deadline crosses no
   module boundary as a [float], except to [Sched.wait_until] when the
   head message arrives past it. *)
let rec recv_buf_deadline c b times i =
  if c.queued > 0 then
    if head_arrival c <= Float.Array.get times i then begin
      catch_up c;
      dequeue_into c b;
      true
    end
    else begin
      (* Head-of-line message arrives after the deadline: in-order
         delivery means nothing else can overtake it. *)
      Sched.wait_until (Float.Array.get times i);
      false
    end
  else if c.peer.closed || c.closed then false
  else if (Sched.clock_cell ()).clock >= Float.Array.get times i then false
  else begin
    c.waiter <- Sched.handle ();
    Sched.block_until_from times i;
    recv_buf_deadline c b times i
  end

let close c =
  if not c.closed then begin
    c.closed <- true;
    wake_endpoint c.peer (-1);
    wake_endpoint c (-1)
  end

let is_open c = not c.closed
let peer_closed c = c.peer.closed
let id c = c.eid
let remote_addr c = c.src

(* [close], for [Waitset], whose own [close] shadows it. *)
let close_conn = close

module Waitset = struct
  type ws = waitset

  (* [no_ws]'s arrays are empty or never written, only replaced. *)
  let create () = { no_ws with ws_closed = false }

  let wake_ws ws =
    let w = ws.ws_waiter in
    if w != Sched.no_handle then begin
      ws.ws_waiter <- Sched.no_handle;
      ignore (Sched.wake w)
    end

  let rec bump ranks i d =
    if i < Array.length ranks then begin
      ranks.(i) <- ranks.(i) + d;
      bump ranks (i + (i land -i)) d
    end

  let rec prefix ranks i acc =
    if i = 0 then acc else prefix ranks (i - (i land -i)) (acc + ranks.(i))

  (* Live connections in the slots before [c]'s. *)
  let[@inline] rank ws c = prefix ws.ranks c.wpos 0

  (* Move the live connections, in order, to the first of [cap] slots,
     and rebuild [ranks]: node [i] counts the live slots in
     (i - lowbit i, i]. *)
  let compact ws cap =
    let watched =
      if cap = Array.length ws.watched then ws.watched
      else Array.make cap unpaired
    in
    let k = ref 0 in
    for i = 0 to ws.used - 1 do
      let c = ws.watched.(i) in
      if c != unpaired then begin
        watched.(!k) <- c;
        c.wpos <- !k;
        incr k
      end
    done;
    Array.fill watched !k (cap - !k) unpaired;
    ws.watched <- watched;
    ws.used <- !k;
    if Array.length ws.ranks <> cap + 1 then ws.ranks <- Array.make (cap + 1) 0;
    for i = 1 to cap do
      ws.ranks.(i) <- min i !k - min (i - (i land -i)) !k
    done

  let add ws c =
    if c.ws != no_ws then invalid_arg "Netsim.Waitset.add: already watched";
    let cap = Array.length ws.watched in
    (* Squeeze out the vacated slots when they are half the set, else
       grow: either is paid for by the adds and removes since the last. *)
    if ws.used = cap then
      compact ws (if 2 * ws.count <= cap && cap > 0 then cap else max 8 (2 * cap));
    c.ws <- ws;
    c.wpos <- ws.used;
    ws.watched.(ws.used) <- c;
    ws.used <- ws.used + 1;
    ws.count <- ws.count + 1;
    bump ws.ranks (c.wpos + 1) 1;
    if is_ready c then begin
      join ws c;
      wake_ws ws
    end

  let close ws =
    ws.ws_closed <- true;
    wake_ws ws

  (* Order-preserving without moving anything: the slot is vacated, so
     every later connection's rank falls by one. The vacated slot keeps
     no connection reachable. *)
  let remove ws c =
    if c.ws == ws then begin
      leave ws c;
      bump ws.ranks (c.wpos + 1) (-1);
      ws.watched.(c.wpos) <- unpaired;
      ws.count <- ws.count - 1;
      c.ws <- no_ws;
      c.wpos <- -1
    end

  let size ws = ws.count

  let close_all ws =
    let n = ws.count in
    for i = ws.used - 1 downto 0 do
      if ws.watched.(i) != unpaired then close_conn ws.watched.(i)
    done;
    close ws;
    for i = 0 to ws.used - 1 do
      remove ws ws.watched.(i)
    done;
    n

  (* Delivery time of the head-of-line message; a closed peer with
     nothing queued is reportable now. *)
  let[@inline] ready_at c = if c.queued = 0 then neg_infinity else head_arrival c

  (* Among ready connections, serve the one whose head-of-line message
     has the earliest delivery time (a closed peer reports immediately).
     First-ready-from-a-cursor round-robin is NOT equivalent: picking a
     later conn whose message arrives in the future advances the
     caller's clock past it, so the skipped earlier messages accrue
     phantom queueing delay they never actually suffered — an idle
     server would appear to answer old requests late. Arrival order is
     FIFO across the whole set; the cursor breaks ties so same-time
     events still rotate fairly: among equal arrivals, the first rank at
     or after the cursor wins, cyclically. Only the ready list is looked
     at, and a rank is computed only for a tie, so a wait costs the host
     the ready connections, not the watched ones; it allocates nothing,
     and [no_conn] stands for none ready. *)
  let pick_earliest ws =
    let nr = ws.n_ready in
    if nr = 0 then no_conn
    else begin
      let n = ws.count in
      let start = ws.cursor mod n in
      let best = ref ws.ready.(0) in
      for r = 1 to nr - 1 do
        let c = ws.ready.(r) and b = !best in
        if
          ready_at c < ready_at b
          || ready_at c = ready_at b
             (* Ranks from the cursor, cyclically: [c] comes first. *)
             && (rank ws c - start + n) mod n < (rank ws b - start + n) mod n
        then best := c
      done;
      let b = !best in
      ws.cursor <- (rank ws b + 1) mod n;
      b
    end

  let rec wait ws =
    if ws.ws_closed then no_conn
    else
      let c = pick_earliest ws in
      if c != no_conn then begin
        (* If the message arrives in the future, wait for it so the
           caller's recv does not under-account time. *)
        if c.queued > 0 then catch_up c;
        c
      end
      else begin
        ws.ws_waiter <- Sched.handle ();
        Sched.block ();
        wait ws
      end

  let backlog ws =
    let n = ref 0 in
    for r = 0 to ws.n_ready - 1 do
      n := !n + ws.ready.(r).queued
    done;
    !n

  (* [wait]'s pick, made once: a winner whose head-of-line message
     arrives after the caller's clock is not reported, though the pick
     has moved the cursor past it. *)
  let poll ws =
    if ws.ws_closed then no_conn
    else
      let c = pick_earliest ws in
      if c.queued > 0 && head_arrival c > (Sched.clock_cell ()).clock then
        no_conn
      else c
end
