(** Rewind-aware locking (§VI "Limitations").

    The paper notes that "applications that rely on global mutexes may
    suffer from availability issues when a child domain holding a lock
    crashes and the lock is not released prior to continuation of the
    parent domain", and suggests "an SDRaD-aware locking mechanism as part
    of our library". This is that mechanism: a mutex whose acquisition
    from inside a nested domain registers an abnormal-exit cleanup, so a
    rewind releases the lock instead of deadlocking every other thread.

    A lock released by a rewind is {e poisoned}: the protected data may
    have been left half-updated by the corrupted domain, so the next
    acquirer is told (as with [std::sync::Mutex] poisoning in Rust) and
    must validate or rebuild the shared state before clearing the flag. *)

type t

val create : Api.t -> t

val acquire : t -> bool
(** Block until the lock is held. Returns [false] if the lock is
    poisoned — the previous holder was discarded by a rewind. *)

val release : t -> unit

val with_lock : t -> (poisoned:bool -> 'a) -> 'a
(** Acquire/release around [f]; [f] learns whether the lock was
    poisoned. *)

val poisoned : t -> bool

val clear_poisoned : t -> unit
(** Clear the poison flag. {b Holder-only}: the caller must currently
    hold the lock. A clear from any other thread would be unordered with
    respect to the next acquirer — the next critical section could start
    with the flag still set, or watch it vanish mid-inspection,
    depending on scheduling. Clearing while holding makes the clear
    happen-before the next acquire through the lock itself. Clear only
    after re-validating (or rebuilding) the protected state; the race
    detector's lock-discipline rule flags a poisoned lock cleared
    without a guarding write.
    @raise Invalid_argument when the caller does not hold the lock. *)

val holder : t -> int option
(** Simulated thread currently holding the lock. *)

