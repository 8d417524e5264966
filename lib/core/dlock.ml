module Sched = Simkern.Sched

type t = {
  sd : Api.t;
  mu : Sched.Mutex.mutex;
  mutable poisoned_flag : bool;
  mutable holder_tid : int option;
  mutable cancel : (unit -> unit) option;
}

let create sd =
  { sd; mu = Sched.Mutex.create (); poisoned_flag = false; holder_tid = None; cancel = None }

(* Every transition is reported to the race observer under the
   underlying scheduler lock id, so the detector's lock-set view (from
   the Sched trace hook) and its Dlock view line up on one namespace. *)
let emit t op =
  Api.race_emit t.sd
    (Types.Rv_lock
       {
         lock = Sched.Mutex.id t.mu;
         tid = Sched.self ();
         udi = Api.current t.sd;
         op;
       })

let acquire t =
  Sched.Mutex.lock t.mu;
  t.holder_tid <- Some (Sched.self ());
  (* Acquired inside a nested domain: arm the abnormal-exit cleanup so a
     rewind of this domain releases (and poisons) the lock. *)
  if Api.current t.sd <> Types.root_udi then begin
    Api.flight_event t.sd Checkpoint.Flight.Lock_acquire;
    t.cancel <-
      Some
        (Api.on_abnormal_cleanup t.sd (fun () ->
             t.poisoned_flag <- true;
             t.holder_tid <- None;
             t.cancel <- None;
             emit t Types.Rl_poison;
             Sched.Mutex.unlock t.mu))
  end
  else t.cancel <- None;
  emit t (Types.Rl_acquire { poisoned = t.poisoned_flag });
  not t.poisoned_flag

let release t =
  match t.holder_tid with
  | Some tid when tid = Sched.self () ->
      (match t.cancel with
      | Some cancel ->
          cancel ();
          t.cancel <- None
      | None -> ());
      t.holder_tid <- None;
      emit t Types.Rl_release;
      Sched.Mutex.unlock t.mu
  | Some _ | None ->
      (* Already released — e.g. by the abnormal-exit cleanup. *)
      ()

let with_lock t f =
  let ok = acquire t in
  match f ~poisoned:(not ok) with
  | v ->
      release t;
      v
  | exception e ->
      (* The critical section did not complete: the protected state may be
         inconsistent (Rust-style poisoning on exceptional unwind). *)
      t.poisoned_flag <- true;
      if t.holder_tid = Some (Sched.self ()) then emit t Types.Rl_poison;
      release t;
      raise e

let poisoned t = t.poisoned_flag

let clear_poisoned t =
  (* Holder-only: clearing from a thread that does not hold the lock is
     unordered with respect to the next acquirer — the next critical
     section could begin with the flag still set (or see it vanish
     mid-inspection) depending on scheduling. Forcing the clearer to hold
     the lock makes the clear happen-before the next acquire through the
     lock itself. *)
  match t.holder_tid with
  | Some tid when tid = Sched.self () ->
      t.poisoned_flag <- false;
      emit t Types.Rl_clear
  | Some _ | None ->
      invalid_arg "Dlock.clear_poisoned: caller does not hold the lock"

let holder t = t.holder_tid
