(** The reference monitor's key discipline (§IV-B/C): the one place in
    [lib/core] that writes PKRU and allocates, frees or attaches
    protection keys.

    It computes and installs each thread's PKRU policy, brackets the
    monitor's sections and batched gates, hands execution domains their
    keys and sealed stacks, virtualizes the keys libmpk-style when the
    hardware runs out, and frees every key. The [pkey-gate] lint rule
    allows [Space.wrpkru], [pkey_alloc], [pkey_free] and [pkey_mprotect]
    here and in the MPK model ([lib/vmem]) only. The domain records live
    here because the policy is computed from them; {!Api} owns their
    life cycle. *)

open Types

(** {1 Domain records} *)

type state = Dormant | Ready | Entered

type exec_inst = {
  udi : udi;
  tid : int;
  mutable opts : options;
  parent : udi;
  mutable pkey : int;  (** -1 while parked *)
  mutable state : state;
  mutable stack_base : int;
  mutable stack_len : int;
  mutable sp : int;
  mutable heap : Tlsf.t option;
  mutable heap_regions : int list;
  mutable frame : int;  (** active rewind frame id, 0 = none (Dormant) *)
  mutable ctx_addr : int;  (** saved-context block in monitor memory *)
  mutable meta_addr : int;  (** domain record in monitor memory *)
  mutable last_used : int;  (** LRU stamp for key virtualization *)
  mutable cleanups : (unit -> unit) list;
      (** run (innermost first) when this domain exits abnormally *)
  mutable entry : exec_inst list;
      (** the entered-stack cell of this domain's last entry *)
}
(** One thread's instance of an execution domain. *)

type data_inst = {
  d_udi : udi;
  d_pkey : int;
  d_heap : Tlsf.t;
  d_pool : int;  (** the [heap_size] it was made with: its regions' size *)
  mutable d_regions : int list;
  d_perms : (udi, Vmem.Prot.t) Hashtbl.t;
      (** viewer execution domain -> rights *)
  d_meta_addr : int;
}

(** Domains sorted by udi in an array: a lookup is a binary search and a
    walk is a loop, so neither builds a key, option or closure. *)
module By_udi : sig
  type 'a t = private {
    udi_of : 'a -> udi;
    filler : 'a;  (** a vacated slot's value *)
    mutable items : 'a array;  (** the first [len] are live *)
    mutable len : int;
  }

  val create : ('a -> udi) -> 'a -> 'a t
  val mem : 'a t -> udi -> bool

  val find : 'a t -> udi -> 'a
  (** @raise Not_found *)

  val add : 'a t -> 'a -> unit
  val remove : 'a t -> udi -> unit
  val iter : ('a -> unit) -> 'a t -> unit
end

val no_inst : exec_inst
(** The filler of vacated instance slots, and the domain no chain
    holds. *)

type gate_buf = {
  gb_caller : udi;
  gb_callee : udi;
  gb_slot : int;
  mutable gb_addr : int;
  mutable gb_cap : int;
}
(** A cached argument-marshalling buffer in a callee's heap. *)

type thread_state = {
  t_tid : int;
  mutable constructed : bool;
      (** the thread constructor has run: root stack mapped, policy
          installed. A record without it only carries a trace id set
          before the thread's first domain call. *)
  insts : exec_inst By_udi.t;  (** this thread's execution domains *)
  mutable gate_bufs : gate_buf list;
      (** cached marshalling buffers, surviving deinit until the callee
          or the caller is discarded or destroyed *)
  mutable trace : int;  (** active causal trace id, 0 = none *)
  mutable entered : exec_inst list;  (** innermost first; [] = in root *)
  mutable root_sp : int;
  mutable root_stack_base : int;
  mutable root_stack_len : int;
  mutable cur_pkru : int;  (** the policy, written by {!update_policy} *)
  mutable monitor_depth : int;  (** nested monitor brackets *)
  mutable gate_depth : int;  (** open batched-gate sections *)
  mutable rewound : bool;
      (** the last [Api.run] to return on this thread returned its
          [on_rewind] handler's value *)
}

(** {1 The monitor's keys} *)

type t = private {
  space : Vmem.Space.t;
  tracer : Telemetry.Trace.t;
  monitor_pkey : int;
  root_pkey : int;
  datas : data_inst By_udi.t;  (** the data domains, shared by threads *)
  threads : (int, thread_state) Hashtbl.t;
  mutable in_monitor : bool;
      (** the monitor is running: its system calls are sanctioned *)
  mutable exec_keys : Vmem.Pkru.t;
      (** the deny (AD) bit of every key an execution-domain instance
          holds, on any thread *)
  mutable stack_pool : int array;
      (** pooled stack areas, (base, len) pairs, the last released on
          top *)
  mutable pooled : int;  (** areas in [stack_pool] *)
  stack_reuse : bool;
  verify_policy : bool;
  mutable key_clock : int;  (** the last LRU stamp *)
  c_key_evictions : Telemetry.Metrics.counter;
}

val create :
  stack_reuse:bool ->
  verify_policy:bool ->
  metrics:Telemetry.Metrics.t ->
  tracer:Telemetry.Trace.t ->
  root_heap:Tlsf.t ->
  Vmem.Space.t ->
  t
(** Allocate the monitor's key, then the root domain's. [root_heap]
    fills the data-domain table's vacated slots.
    @raise Types.Error [Out_of_pkeys] *)

(** {1 Policy} *)

val current_udi_of : thread_state -> udi
val data_perm : data_inst -> udi -> Vmem.Prot.t

val update_policy : t -> thread_state -> unit
(** Recompute the thread's PKRU value into [cur_pkru]. The monitor
    bracket's exit installs it. *)

val start_thread : t -> thread_state -> unit
(** The thread constructor's policy: compute it and install it. *)

(** {1 Brackets}

    Only the outermost monitor bracket writes PKRU: the raised view on
    the way in, the thread's policy on the way out. While a batched gate
    is open and the thread is in its root domain, the exit keeps the
    raised view. *)

val sanctioned : t -> (unit -> 'a) -> 'a
(** Run [f] with the monitor's system calls sanctioned. *)

val enter_monitor : t -> thread_state -> bool
(** Open a monitor bracket. The result is for {!leave_monitor}, which
    every exit, exceptional ones included, must call. *)

val leave_monitor : t -> thread_state -> bool -> unit
val with_monitor : t -> thread_state -> (unit -> 'a) -> 'a
val open_gate : t -> thread_state -> unit

val close_gate : t -> thread_state -> unit
(** The caller checks that a gate is open. *)

(** {1 Keys and stacks} *)

val seat : t -> exec_inst -> unit
(** A new instance's key and stack of [opts.stack_size] bytes sealed
    with it, a pooled one when one fits. When no key is free, the least
    recently used dormant instance is parked: its pages made
    inaccessible and its key recycled.
    @raise Types.Error [Out_of_pkeys] when no instance is dormant. *)

val unpark : t -> exec_inst -> unit
(** Give a parked instance a key again and re-protect its pages with
    it; nothing for one that holds a key. *)

val touch : t -> exec_inst -> unit
(** Stamp the instance as the most recently used. *)

val acquire : t -> int
(** A key for a data domain, parking as {!seat} does. *)

val release_stack : t -> exec_inst -> unit
(** Pool the instance's stack sealed with the monitor's key, or unmap
    it without stack reuse. *)

val free_key : t -> int -> unit
(** Free a domain's key; nothing for [-1], a parked instance's. *)

val rekey_to_current : t -> thread_state -> int list -> unit
(** Attach the thread's current domain's key to the regions. *)

val iter_insts : t -> (exec_inst -> unit) -> unit
(** Every thread's instances. *)

val assert_policy : t -> unit
(** With [verify_policy]: every live domain holds a key of its own,
    neither the monitor's nor the root's, and [exec_keys] denies exactly
    the keys execution domains hold. @raise Failure otherwise. *)
