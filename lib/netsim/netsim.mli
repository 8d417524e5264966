(** Simulated loopback networking for client/server experiments.

    Connections are bidirectional message streams between two simulated
    threads. Messages carry a delivery timestamp (fixed per-message cost
    plus a per-byte cost), so round-trip latency exists in virtual time
    and closed-loop load generators saturate realistically — which is what
    produces the paper's thread-scaling behaviour in the Memcached
    benchmark. Framing is message-oriented (one [send] = one [recv]); the
    application protocols layer their own text formats on top. *)

type t
(** A network (a bag of listeners). *)

type conn
(** One endpoint of an established connection. *)

type listener

val create : Simkern.Cost.t -> t
val listen : t -> port:int -> listener

val connect : ?src:int -> t -> port:int -> conn
(** Returns immediately with the client endpoint; the server side obtains
    the peer endpoint from {!accept}. [src] is the client's source address
    (think IP): connections sharing it are recognizably the same remote
    peer via {!remote_addr}; it defaults to a per-connection unique id.
    @raise Failure on unknown port. *)

val accept : listener -> conn option
(** Block until a client connects; [None] once the listener is closed. *)

val close_listener : listener -> unit
(** Stop accepting: pending and future {!accept} calls return [None];
    already-established connections are unaffected. *)

val send : conn -> string -> unit
(** Never blocks (infinite socket buffer). Sending on a closed connection
    is a silent no-op, like writing to a socket with SO_NOSIGPIPE. The
    receiving end's inbox is a ring of unboxed delivery times and
    payloads, so queueing a message allocates nothing once the ring has
    grown to the connection's depth; waking a receiver blocked on it
    boxes the delivery time passed to {!Simkern.Sched.wake} (2 words). *)

val recv : conn -> string option
(** Block until a message is deliverable or the peer has closed ([None]).
    If the next message's delivery time is in the future, the caller's
    clock advances to it. A blocked receiver leaves its
    {!Simkern.Sched.handle} in the connection for the next {!send} or
    {!close} to wake. *)

val try_recv : conn -> string option
(** Non-blocking: [None] when nothing is deliverable right now. *)

val recv_deadline : conn -> deadline:float -> string option
(** Like {!recv}, but give up at virtual time [deadline]: the caller's
    clock advances to the deadline and [None] is returned when no message
    became deliverable by then (or the peer closed). This is what lets a
    client time out instead of blocking forever on a message the fault
    hook dropped. Timeout and peer-close both map to [None]; check
    {!peer_closed} to tell them apart. A blocked receive arms a
    {!Simkern.Sched.block_until} timer, not a thread: once it returns,
    nothing of it is left in the scheduler but the timer's pending heap
    entry, and in the connection but a stale handle, which a later
    message's wake finds stale and ignores even when the thread has
    blocked elsewhere since. *)

val recv_with_arrival : conn -> (string * float) option
(** {!recv}, also reporting the message's delivery timestamp — the gap
    [Sched.now () -. arrival] is how long the message sat queued behind a
    busy receiver, the signal deadline-based load shedding keys on. *)

val close : conn -> unit
(** Close both directions; pending messages to the peer remain readable
    (TCP-like half-close is not modelled). Idempotent. *)

val is_open : conn -> bool
val peer_closed : conn -> bool
val id : conn -> int

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
    set of connections and yields whichever has deliverable input,
    round-robin for fairness. *)
module Waitset : sig
  type ws

  val create : unit -> ws
  val add : ws -> conn -> unit
  val remove : ws -> conn -> unit

  val wait : ws -> conn option
  (** Block until some watched connection has input or a closed peer to
      report. An empty set blocks until a connection is added ({!add} from
      another thread) or the set is closed. [None] after {!close}. *)

  val wait_deadline : ws -> deadline:float -> conn option
  (** {!wait} with a timeout: [None] once [deadline] passes with nothing
      reportable (and after {!close}). Like {!recv_deadline}, a blocked
      wait arms a scheduler timer rather than spawning a thread. *)

  val backlog : ws -> int
  (** Total messages queued across all watched connections — the queue
      depth an overloaded server sheds on. *)

  val close : ws -> unit
  (** Make every pending and future {!wait} return [None]. *)
end
