(** Simulated loopback networking for client/server experiments.

    Connections are bidirectional message streams between two simulated
    threads. Messages carry a delivery timestamp (fixed per-message cost
    plus a per-byte cost), so round-trip latency exists in virtual time
    and closed-loop load generators saturate realistically — which is what
    produces the paper's thread-scaling behaviour in the Memcached
    benchmark. Framing is message-oriented (one send = one receive); the
    application protocols layer their own text formats on top.

    A message travels in one of two ways, and either end may use either.
    {!send} queues the string itself, by reference; {!recv} hands a sent
    string back as it is. {!send_buf} copies a {!Buf.t}'s bytes into a
    frame from the network's pool, and {!recv_buf} copies the head
    message into the caller's buffer and gives its frame back to the
    pool, so a warm exchange between two buffers allocates nothing up to
    2 KiB. A pooled frame received with {!recv} is copied out to a fresh
    string. Both ways charge the same virtual time for the same message
    length. A timed receive, {!recv_buf_deadline}, takes a buffer and
    reads its deadline from a slot; {!Waitset.poll} is a waitset's
    non-blocking wait. An endpoint carries no word for its owner. *)

type t
(** A network (a bag of listeners). *)

type conn
(** One endpoint of an established connection. *)

type listener

(** A growable message buffer owned by one thread: the bytes of a
    message, its length and, after a receive, its delivery time.

    Ownership: the contents are valid until the next write to the buffer
    or receive into it. {!bytes} and {!view} return the storage itself,
    not a copy, so a scan through them must finish, and anything it
    keeps must be copied out, before then; growing the buffer may
    replace the storage. *)
module Buf : sig
  type t

  val create : unit -> t
  (** An empty buffer with room for 64 bytes; it grows by doubling. *)

  val length : t -> int
  val bytes : t -> bytes
  (** The storage: the message is its first {!length} bytes. *)

  val view : t -> string
  (** {!bytes} as a string, without a copy, for scanners that read
      strings; only its first {!length} bytes are the message. *)

  val arrival : t -> float
  (** Delivery time of the message last received into the buffer. *)

  val older_than : t -> float -> bool
  (** [older_than b age]: by the calling thread's clock, more than [age]
      cycles have passed since that delivery. Unlike comparing against
      {!arrival}, it boxes no float. *)

  val contents : t -> string
  (** A copy of the message. *)

  val equal_string : t -> string -> bool
  (** The message is exactly [s], compared in place. *)

  val clear : t -> unit

  val reset : t -> int -> bytes
  (** [reset b n] makes the message [n] bytes long, its contents
      unspecified, and returns the storage to write them in from offset
      0: for a writer that computes a message's length first. *)

  val reserve : t -> int -> int
  (** [reserve b n] appends [n] bytes of room, growing the storage if
      needed, and returns the offset where they start; the caller writes
      them through {!bytes}, read after the call. *)

  val add_string : t -> string -> unit
end

val create : Simkern.Cost.t -> t
val listen : t -> port:int -> listener

val connect : ?src:int -> t -> port:int -> conn
(** Returns immediately with the client endpoint; the server side obtains
    the peer endpoint from {!accept}. [src] is the client's source address
    (think IP): connections sharing it are recognizably the same remote
    peer via {!remote_addr}; it defaults to a per-connection unique id.
    A connect to a listener that {!close_listener} has closed is refused:
    it costs the same, and returns an endpoint whose peer is already
    closed, so a receive on it returns at once.
    @raise Failure on unknown port. *)

val accept : listener -> conn option
(** Block until a client connects; [None] once the listener is closed. *)

val close_listener : listener -> unit
(** Stop accepting: pending and future {!accept} calls return [None] and
    later {!connect}s are refused; already-established connections are
    unaffected. *)

val send : conn -> string -> unit
(** Never blocks (infinite socket buffer). Sending on a closed connection
    is a silent no-op, like writing to a socket with SO_NOSIGPIPE. The
    string is queued by reference, never written and never pooled. The
    receiving end's inbox is a ring of unboxed delivery times and
    frames, so queueing a message allocates nothing once the ring has
    grown to the connection's depth; waking a receiver blocked on it
    reads the delivery time from the ring
    ({!Simkern.Sched.wake_from}) and boxes nothing. *)

val send_buf : conn -> Buf.t -> unit
(** {!send} of the buffer's message. Its bytes (after a [Truncate], the
    bytes delivered) are copied into a frame of the smallest
    power-of-two size class that holds them, 64 bytes to 2 KiB, taken
    from the network's pool. A message over {!max_pooled} bytes is
    copied into a frame of its own instead, which a {!recv} hands over
    as the string, with no second copy: a fresh block that size is a
    major-heap allocation anyway, and pooling it would keep its peak in
    flight alive. The buffer is free for reuse on return. *)

val max_pooled : int
(** 2048: the longest message {!send_buf} copies into a pooled frame. A
    sender that writes a longer message once into bytes of its own and
    {!send}s them saves the copy {!send_buf} would make. *)

val recv : conn -> string option
(** Block until a message is deliverable or the peer has closed ([None]).
    If the next message's delivery time is in the future, the caller's
    clock advances to it. A blocked receiver leaves its
    {!Simkern.Sched.handle} in the connection for the next send or
    {!close} to wake. A {!send_buf} message is copied out to a fresh
    string and its frame returned to the pool. *)

val recv_buf : conn -> Buf.t -> bool
(** {!recv} into [b]: the message replaces the buffer's contents, its
    delivery time is {!Buf.arrival}, and its frame, when pooled, goes
    back to the pool; [false] when the peer has closed. A message from a
    {!send_buf} or a {!send} is received the same way, and nothing is
    allocated unless the buffer must grow. *)

val recv_buf_deadline : conn -> Buf.t -> Float.Array.t -> int -> bool
(** [recv_buf_deadline c b times i]: {!recv_buf}, giving up at the
    deadline [Float.Array.get times i]: the caller's clock advances to
    the deadline and [false] is returned, the buffer left as it was,
    when no message became deliverable by then or the peer closed (check
    {!peer_closed} to tell them apart). This is what lets a client time
    out instead of blocking forever on a message the fault hook dropped.
    A deadline at or before the caller's clock makes it a non-blocking
    receive.

    The deadline is read where it lies — a retry engine's attempt
    deadline (slot 0 of {!Resilience.Retry.deadline_slot}), a router
    worker's own slot — at every step of the wait, so it must not change
    while the call blocks. A [float] argument would be boxed; a warm
    timed receive into a buffer allocates nothing but the blocked
    thread's continuation. A blocked receive arms a
    {!Simkern.Sched.block_until_from} timer, not a thread: once it
    returns, nothing of it is left in the scheduler but the timer's
    pending heap entry, and in the connection but a stale handle, which
    a later message's wake finds stale and ignores even when the thread
    has blocked elsewhere since. *)

val pooled_frames : t -> int
(** Frames the network's pool holds for reuse. The pool makes a frame
    only when its size class has none free, and a frame returns when
    its message is received, so this never exceeds the most messages
    of one size class that were in flight at once; a frame whose
    message is never received (its connection closed first) is left to
    the garbage collector. *)

val close : conn -> unit
(** Close both directions; pending messages to the peer remain readable
    (TCP-like half-close is not modelled). Idempotent. *)

val is_open : conn -> bool
val peer_closed : conn -> bool
val id : conn -> int

val no_conn : conn
(** No connection: what {!Waitset.wait} returns once its set is closed,
    compared with [==] (an option would allocate per wait). It is closed,
    so it is never {!is_open}, {!close} of it is a no-op, and a receive
    on it finds nothing. *)

val remote_addr : conn -> int
(** The source address the connecting side supplied to {!connect} (same
    value on both endpoints of a connection). *)

(** {1 Link-level fault injection} *)

type send_action =
  | Deliver  (** normal delivery *)
  | Drop  (** the message is lost; the sender still pays the send cost *)
  | Truncate of int  (** deliver only the first [n] bytes *)
  | Delay of float  (** extra latency, in cycles, on top of the model's *)

val set_fault_hook : t -> (len:int -> send_action) option -> unit
(** Arm (or disarm, with [None]) a network-wide hook consulted once per
    {!send} with the payload length. Used by the chaos engine to drop,
    truncate, or delay messages deterministically. *)

(** Readiness multiplexing for event-driven servers: a waitset watches a
    set of connections and reports one that has input or a closed peer.
    Of those, it reports the one whose head-of-line message has the
    earliest delivery time (a closed peer with nothing queued counts as
    deliverable now); among equal times, the first in the order the
    connections were added, starting from a cursor one past the previous
    pick and wrapping at the end of the set.

    Like epoll, a waitset keeps a ready list: a connection joins it when
    its inbox goes from empty to non-empty or either end closes, and
    leaves it when its inbox drains or it is removed. A wait looks only
    at the ready list, so its host cost follows the ready connections,
    not the watched ones. *)
module Waitset : sig
  type ws

  val create : unit -> ws

  val add : ws -> conn -> unit
  (** Watch a connection; it goes last in the order that breaks ties.
      Allocates nothing once the set has grown to twice its size.
      @raise Invalid_argument if a waitset already watches it. *)

  val remove : ws -> conn -> unit
  (** Stop watching a connection; the others keep their order and the
      cursor its value. O(log n) in the watched connections: the slot is
      left vacant for a later {!add} to squeeze out. A no-op when this
      set does not watch it. *)

  val wait : ws -> conn
  (** Block until some watched connection has input or a closed peer to
      report, and return it. An empty set blocks until a connection is
      added ({!add} from another thread) or the set is closed. {!no_conn}
      after {!close}: the result is compared with [==], and a wait that
      finds a connection ready allocates nothing. *)

  val poll : ws -> conn
  (** {!wait} without blocking or yielding: the connection {!wait} would
      pick if it is reportable now, {!no_conn} otherwise (and after
      {!close}). The pick moves the cursor as {!wait}'s does, also when
      its head-of-line message lies in the future and {!no_conn} is
      returned. *)

  val backlog : ws -> int
  (** Total messages queued across all watched connections — the queue
      depth an overloaded server sheds on. *)

  val size : ws -> int
  (** Connections the set watches: those added and not yet removed. *)

  val close : ws -> unit
  (** Make every pending and future {!wait} return {!no_conn}. *)

  val close_all : ws -> int
  (** What a process's death does to its sockets: {!Netsim.close} every
      watched connection, newest first, then {!close} the set, which
      then watches nothing. Returns how many it closed. *)
end
