open Effect
open Effect.Deep

type tid = int
type outcome = Completed | Failed of exn
type wake = at:float -> unit

exception Deadlock of string

(* Delivered into a thread killed with [kill]: it is raised at the
   victim's next resumption point, so Fun.protect finalizers and
   exception handlers run — the simulation analogue of a fatal signal
   that the runtime turns into an unwind. *)
exception Killed

type status = Ready | Running | Blocked | Done of outcome

(* A float-only record is stored flat, so [c.clock <- c.clock +. x]
   updates it in place without boxing — even from another module, which
   under separate compilation would otherwise have to box every float
   argument of a [charge] call (see [clock_cell] in the interface). *)
type cell = { mutable clock : float; mutable waited : float }

type thread = {
  tid : int;
  name : string;
  cell : cell;  (* [waited]: virtual time spent blocked or waiting *)
  mutable status : status;
  mutable entry : (unit -> unit) option;
  mutable cont : (unit, unit) continuation option;
  mutable susp_serial : int;
  mutable joiners : wake list;
  mutable killed : bool;
}

(* The wake stored in a thread's heap entry: only timer entries carry a
   real one (see [suspend_until]). A closed function, so it is allocated
   statically and storing it is no allocation. *)
let no_wake : wake = fun ~at:_ -> ()

(* Binary min-heap of (clock, id) with lazy deletion. A thread's entry is
   valid only if the thread is still Ready at exactly that clock. A
   timer's entry carries its own wake and deadline and is always valid.
   Entries live in four parallel arrays (keys and deadlines unboxed), and
   [push] reads the key from the thread's clock cell, so no float is
   boxed on the way in or out: pushing or popping a thread allocates
   nothing. Sifts move a hole rather than swap: each displaced entry is
   written once and the sifted one once at the end, half the writes of a
   swap per level across the four arrays. *)
module Heap = struct
  type t = {
    mutable keys : Float.Array.t;
    mutable ids : int array;
    mutable wakes : wake array;  (* [no_wake] in a thread's entry *)
    mutable deadlines : Float.Array.t;  (* a timer's; unused by threads *)
    mutable n : int;
  }

  let create () =
    {
      keys = Float.Array.make 64 0.0;
      ids = Array.make 64 (-1);
      wakes = Array.make 64 no_wake;
      deadlines = Float.Array.make 64 0.0;
      n = 0;
    }

  let grow h =
    let keys' = Float.Array.make (2 * h.n) 0.0 in
    Float.Array.blit h.keys 0 keys' 0 h.n;
    let ids' = Array.make (2 * h.n) (-1) in
    Array.blit h.ids 0 ids' 0 h.n;
    let wakes' = Array.make (2 * h.n) no_wake in
    Array.blit h.wakes 0 wakes' 0 h.n;
    let deadlines' = Float.Array.make (2 * h.n) 0.0 in
    Float.Array.blit h.deadlines 0 deadlines' 0 h.n;
    h.keys <- keys';
    h.ids <- ids';
    h.wakes <- wakes';
    h.deadlines <- deadlines'

  (* Slot [dst] takes the entry in slot [src]. *)
  let move h src dst =
    Float.Array.set h.keys dst (Float.Array.get h.keys src);
    h.ids.(dst) <- h.ids.(src);
    let w = h.wakes.(src) in
    if h.wakes.(dst) != w then h.wakes.(dst) <- w;
    Float.Array.set h.deadlines dst (Float.Array.get h.deadlines src)

  (* The entry in slot [i] moves up to its place: parents that sort
     after it move down one level into the hole, and the entry is
     written once, where the hole stops. *)
  let sift_up h i =
    let key = Float.Array.get h.keys i and id = h.ids.(i) in
    let wake = h.wakes.(i) and deadline = Float.Array.get h.deadlines i in
    let i = ref i in
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let p = (!i - 1) / 2 in
      let kp = Float.Array.get h.keys p in
      if key < kp || (key = kp && id < h.ids.(p)) then begin
        move h p !i;
        i := p
      end
      else continue_ := false
    done;
    Float.Array.set h.keys !i key;
    h.ids.(!i) <- id;
    if h.wakes.(!i) != wake then h.wakes.(!i) <- wake;
    Float.Array.set h.deadlines !i deadline

  (* The entry in slot [src] moves into the hole at slot 0 and down to
     its place. *)
  let sift_down h src =
    let key = Float.Array.get h.keys src and id = h.ids.(src) in
    let wake = h.wakes.(src) and deadline = Float.Array.get h.deadlines src in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= h.n then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if r < h.n then begin
            let kr = Float.Array.get h.keys r
            and kl = Float.Array.get h.keys l in
            if kr < kl || (kr = kl && h.ids.(r) < h.ids.(l)) then r else l
          end
          else l
        in
        let kc = Float.Array.get h.keys c in
        if kc < key || (kc = key && h.ids.(c) < id) then begin
          move h c !i;
          i := c
        end
        else continue_ := false
      end
    done;
    Float.Array.set h.keys !i key;
    h.ids.(!i) <- id;
    if h.wakes.(!i) != wake then h.wakes.(!i) <- wake;
    Float.Array.set h.deadlines !i deadline

  (* A thread's entry at its current clock. Slots at [n] and beyond hold
     [no_wake], so only the key and id need writing. *)
  let push h (c : cell) id =
    if h.n = Array.length h.ids then grow h;
    Float.Array.set h.keys h.n c.clock;
    h.ids.(h.n) <- id;
    h.n <- h.n + 1;
    sift_up h (h.n - 1)

  (* A timer's entry, keyed at the arming thread's clock. *)
  let push_timer h (c : cell) id wake deadline =
    if h.n = Array.length h.ids then grow h;
    h.wakes.(h.n) <- wake;
    Float.Array.set h.deadlines h.n deadline;
    push h c id

  let is_empty h = h.n = 0
  let top_key h = Float.Array.get h.keys 0
  let top_id h = h.ids.(0)
  let top_wake h = h.wakes.(0)
  let top_deadline h = Float.Array.get h.deadlines 0

  (* Move the top entry, a timer's, to its deadline. *)
  let rekey_top h =
    Float.Array.set h.keys 0 (Float.Array.get h.deadlines 0);
    sift_down h 0

  let remove_top h =
    h.n <- h.n - 1;
    if h.n > 0 then sift_down h h.n;
    (* The vacated slot must not keep a fired timer's wake alive. *)
    if h.wakes.(h.n) != no_wake then h.wakes.(h.n) <- no_wake
end

type t = {
  mutable next_tid : int;
  threads : (int, thread) Hashtbl.t;
  ready : Heap.t;
  mutable current : thread;  (* [no_thread] between resumptions *)
  mutable running : bool;
  mutable horizon : float;
}

(* The scheduler's "no thread running" marker, compared by physical
   equality (an option would allocate a [Some] per resumption). Never
   mutated: every mutating path first checks it is not current. *)
let no_thread =
  {
    tid = -1;
    name = "";
    cell = { clock = 0.0; waited = 0.0 };
    status = Done Completed;
    entry = None;
    cont = None;
    susp_serial = 0;
    joiners = [];
    killed = false;
  }

type _ Effect.t +=
  | Yield_eff : unit Effect.t
  | Suspend_eff : (wake -> unit) -> unit Effect.t
  | Suspend_until_eff : float * (wake -> unit) -> unit Effect.t

let active : t option ref = ref None

(* Synchronization trace hook (single slot, like [active]): when set, the
   scheduler reports the happens-before-relevant events — spawn/join
   edges and lock transfers — to an external observer (the race detector
   in lib/analysis installs one). Emission is host-side only: it charges
   no virtual time and takes no scheduling decision, so an installed hook
   cannot perturb a deterministic run. *)
type trace_event =
  | Spawned of { parent : tid; child : tid }
  | Joined of { waiter : tid; joined : tid }
  | Locked of { lock : int; tid : tid }
  | Unlocked of { lock : int; tid : tid }
  | Rd_locked of { lock : int; tid : tid }
  | Rd_unlocked of { lock : int; tid : tid }

let trace_hook : (trace_event -> unit) option ref = ref None
let set_trace_hook h = trace_hook := h
let trace ev = match !trace_hook with Some f -> f ev | None -> ()

(* Mutexes and rwlocks share one id namespace so lock-set observers can
   treat them uniformly. *)
let next_lock_id = ref 0

let fresh_lock_id () =
  let id = !next_lock_id in
  next_lock_id := id + 1;
  id

let create () =
  {
    next_tid = 0;
    threads = Hashtbl.create 64;
    ready = Heap.create ();
    current = no_thread;
    running = false;
    horizon = 0.0;
  }

let current_thread () =
  match !active with
  | Some t ->
      if t.current == no_thread then failwith "Sched: no current thread"
      else t.current
  | None -> failwith "Sched: not inside a simulation"

let in_thread () =
  match !active with Some t -> t.current != no_thread | None -> false

let current () =
  match !active with
  | Some t -> t
  | None -> failwith "Sched: not inside a simulation"

let self () = (current_thread ()).tid
let clock_cell () = (current_thread ()).cell
let now () = (current_thread ()).cell.clock

let charge c =
  let k = (current_thread ()).cell in
  k.clock <- k.clock +. c

let make_ready t th =
  th.status <- Ready;
  Heap.push t.ready th.cell th.tid

let spawn t ?name f =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "t%d" tid in
  let clock =
    if t.current == no_thread then 0.0 else t.current.cell.clock
  in
  let th =
    {
      tid;
      name;
      cell = { clock; waited = 0.0 };
      status = Ready;
      entry = Some f;
      cont = None;
      susp_serial = 0;
      joiners = [];
      killed = false;
    }
  in
  Hashtbl.replace t.threads tid th;
  Heap.push t.ready th.cell tid;
  (* [no_thread.tid] is -1: spawned from outside the simulation. *)
  trace (Spawned { parent = t.current.tid; child = tid });
  tid

let wake_fn t th serial : wake =
 fun ~at ->
  if th.susp_serial = serial && th.status = Blocked then begin
    let k = th.cell in
    if at > k.clock then k.waited <- k.waited +. (at -. k.clock);
    k.clock <- Float.max k.clock at;
    make_ready t th
  end

let finish t th oc =
  th.status <- Done oc;
  th.cont <- None;
  if th.cell.clock > t.horizon then t.horizon <- th.cell.clock;
  let joiners = th.joiners in
  th.joiners <- [];
  List.iter (fun w -> w ~at:th.cell.clock) joiners

let block t th k =
  th.cont <- Some k;
  th.status <- Blocked;
  th.susp_serial <- th.susp_serial + 1;
  wake_fn t th th.susp_serial

let handler t th =
  {
    retc = (fun () -> finish t th Completed);
    exnc = (fun e -> finish t th (Failed e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield_eff ->
            Some
              (fun (k : (a, unit) continuation) ->
                th.cont <- Some k;
                make_ready t th)
        | Suspend_eff register ->
            Some (fun (k : (a, unit) continuation) -> register (block t th k))
        | Suspend_until_eff (deadline, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                (* The id is drawn where a timer thread spawned here would
                   have drawn its tid (see [suspend_until]). *)
                let id = t.next_tid in
                t.next_tid <- id + 1;
                let wake = block t th k in
                register wake;
                Heap.push_timer t.ready th.cell id wake deadline)
        | _ -> None);
  }

let resume t th =
  th.status <- Running;
  t.current <- th;
  (if th.killed then begin
     th.entry <- None;
     match th.cont with
     | Some k ->
         th.cont <- None;
         discontinue k Killed
     | None -> finish t th (Failed Killed)
   end
   else
     match th.entry with
     | Some f ->
         th.entry <- None;
         match_with f () (handler t th)
     | None -> (
         match th.cont with
         | Some k ->
             th.cont <- None;
             continue k ()
         | None -> failwith "Sched: resuming thread without continuation"));
  t.current <- no_thread

let blocked_threads t =
  Hashtbl.fold
    (fun _ th acc -> if th.status = Blocked then th :: acc else acc)
    t.threads []

let run t =
  if t.running then failwith "Sched.run: already running";
  let saved = !active in
  active := Some t;
  t.running <- true;
  let restore () =
    t.running <- false;
    active := saved
  in
  (try
     let rec loop () =
       if not (Heap.is_empty t.ready) then begin
         let h = t.ready in
         let key = Heap.top_key h and id = Heap.top_id h in
         let wake = Heap.top_wake h in
         if wake == no_wake then begin
           Heap.remove_top h;
           match Hashtbl.find t.threads id with
           | th when th.status = Ready && th.cell.clock = key -> resume t th
           | _ | (exception Not_found) -> () (* stale heap entry *)
         end
         else begin
           let deadline = Heap.top_deadline h in
           if deadline > key then begin
             (* The arming point: a timer thread's first step would move
                its clock to the deadline here. *)
             if deadline > t.horizon then t.horizon <- deadline;
             Heap.rekey_top h
           end
           else begin
             Heap.remove_top h;
             wake ~at:deadline
           end
         end;
         loop ()
       end
     in
     loop ()
   with e ->
     restore ();
     raise e);
  restore ();
  match blocked_threads t with
  | [] -> ()
  | blocked ->
      let names = String.concat ", " (List.map (fun th -> th.name) blocked) in
      raise (Deadlock names)

let outcome t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some { status = Done oc; _ } -> Some oc
  | _ -> None

let outcomes t =
  let finished =
    Hashtbl.fold
      (fun tid th acc ->
        match th.status with
        | Done oc -> (tid, th.name, oc) :: acc
        | Ready | Running | Blocked -> acc)
      t.threads []
  in
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) finished

let horizon t =
  Hashtbl.fold (fun _ th acc -> Float.max acc th.cell.clock) t.threads t.horizon

(* Advancing virtual time is a scheduling point: the thread re-queues at
   the target clock so every runnable thread at an earlier virtual time
   runs first. Without the yield, a thread that waits to a far deadline
   teleports past its contemporaries and acts (e.g. fires a timeout
   wake-up) before events that happen earlier in virtual time — a timed
   receive would then charge its full deadline even when the reply was
   already in flight. Once no runnable thread sits below [at], nothing
   can create an earlier event, so resuming is safe. *)
let wait_until at =
  let k = (current_thread ()).cell in
  if at > k.clock then begin
    k.waited <- k.waited +. (at -. k.clock);
    k.clock <- at;
    perform Yield_eff
  end

let thread_clock t tid =
  Option.map (fun th -> th.cell.clock) (Hashtbl.find_opt t.threads tid)

let thread_waited t tid =
  Option.map (fun th -> th.cell.waited) (Hashtbl.find_opt t.threads tid)

let busy_fraction t tid =
  match Hashtbl.find_opt t.threads tid with
  | None -> None
  | Some th ->
      let span = horizon t in
      if span <= 0.0 then None
      else Some ((th.cell.clock -. th.cell.waited) /. span)

let yield () = perform Yield_eff
let suspend register = perform (Suspend_eff register)

(* A timed wait needs no timer thread. A thread spawned at the call that
   ran [wait_until deadline] and then the wake would have two heap
   entries: its first step, at the caller's clock under a fresh tid, where
   its clock jumps to the deadline and so counts in [horizon] from then on
   (woken first or not); and its last step, at the deadline, which calls
   the wake. A timer is those two entries and nothing else: the scheduler
   raises the horizon at the first and re-keys it at the deadline, and
   fires the wake at the second. A deadline already passed fires at the
   first entry. Same keys, ids and horizon as that thread, so a run goes
   the same way step for step, but no thread record, stack or outcome is
   left behind. *)
let suspend_until ~deadline register =
  perform (Suspend_until_eff (deadline, register))

let sleep c =
  charge c;
  yield ()

(* Kill a thread: it unwinds with [Killed] at its next resumption. A
   blocked victim is made runnable immediately (its pending wake-ups are
   invalidated); a ready one dies when the scheduler picks it. Killing a
   finished thread is a no-op. The victim's clock is advanced to the
   killer's so the death is causally ordered. *)
let kill t tid =
  match Hashtbl.find_opt t.threads tid with
  | None -> ()
  | Some ({ status = Done _; _ }) -> ()
  | Some th ->
      th.killed <- true;
      let k = th.cell in
      let at =
        if t.current == no_thread then k.clock else t.current.cell.clock
      in
      if at > k.clock then begin
        k.waited <- k.waited +. (at -. k.clock);
        k.clock <- at
      end;
      if th.status = Blocked then begin
        th.susp_serial <- th.susp_serial + 1;
        make_ready t th
      end
      else if th.status = Ready then
        (* Re-queue at the (possibly advanced) clock; the stale heap entry
           is skipped by the clock check in [run]. *)
        Heap.push t.ready k th.tid

let join tid =
  let t = current () in
  match Hashtbl.find_opt t.threads tid with
  | None -> invalid_arg "Sched.join: unknown thread"
  | Some th ->
      (match th.status with
      | Done _ -> ()
      | Ready | Running | Blocked ->
          suspend (fun wake -> th.joiners <- wake :: th.joiners));
      (* The edge exists even when the target already finished: the
         joiner now happens-after everything the joined thread did. *)
      trace (Joined { waiter = self (); joined = tid })

module Mutex = struct
  type mutex = {
    id : int;
    mutable locked : bool;
    mutable owner : tid;
    waiters : wake Queue.t;
    mutable contentions : int;
    mutable wait_cycles : float;
  }

  let create () =
    { id = fresh_lock_id (); locked = false; owner = -1; waiters = Queue.create (); contentions = 0; wait_cycles = 0.0 }

  let id m = m.id

  let lock m =
    if not m.locked then begin
      m.locked <- true;
      m.owner <- self ()
    end
    else begin
      m.contentions <- m.contentions + 1;
      let t0 = now () in
      suspend (fun wake -> Queue.add wake m.waiters);
      (* The lock was handed to us by [unlock]; it is still marked locked. *)
      m.owner <- self ();
      m.wait_cycles <- m.wait_cycles +. (now () -. t0)
    end;
    trace (Locked { lock = m.id; tid = m.owner })

  let unlock m =
    if not m.locked then invalid_arg "Mutex.unlock: not locked";
    (match !trace_hook with
    | Some f -> f (Unlocked { lock = m.id; tid = self () })
    | None -> ());
    match Queue.take_opt m.waiters with
    | None ->
        m.locked <- false;
        m.owner <- -1
    | Some wake ->
        (* Direct handoff: ownership transfers when the waiter resumes. *)
        wake ~at:(now ())

  let with_lock m f =
    lock m;
    match f () with
    | v ->
        unlock m;
        v
    | exception e ->
        unlock m;
        raise e

  let contentions m = m.contentions
  let wait_cycles m = m.wait_cycles
end

module Rwlock = struct
  type rw = {
    id : int;
    mutable active_readers : int;
    mutable writer : bool;
    mutable waiting_writers : int;
    reader_q : wake Queue.t;
    writer_q : wake Queue.t;
  }

  let create () =
    {
      id = fresh_lock_id ();
      active_readers = 0;
      writer = false;
      waiting_writers = 0;
      reader_q = Queue.create ();
      writer_q = Queue.create ();
    }

  let id rw = rw.id

  (* Mesa-style: a woken waiter re-checks its condition and may sleep
     again; wake-ups are therefore conservative (broadcasts). *)
  let rec rd_lock rw =
    if rw.writer || rw.waiting_writers > 0 then begin
      suspend (fun wake -> Queue.add wake rw.reader_q);
      rd_lock rw
    end
    else begin
      rw.active_readers <- rw.active_readers + 1;
      trace (Rd_locked { lock = rw.id; tid = self () })
    end

  let drain q =
    let t = now () in
    let rec go () =
      match Queue.take_opt q with
      | Some wake ->
          wake ~at:t;
          go ()
      | None -> ()
    in
    go ()

  let rd_unlock rw =
    if rw.active_readers <= 0 then invalid_arg "Rwlock.rd_unlock: not read-locked";
    (match !trace_hook with
    | Some f -> f (Rd_unlocked { lock = rw.id; tid = self () })
    | None -> ());
    rw.active_readers <- rw.active_readers - 1;
    if rw.active_readers = 0 then drain rw.writer_q

  let rec wr_lock rw =
    if rw.writer || rw.active_readers > 0 then begin
      rw.waiting_writers <- rw.waiting_writers + 1;
      suspend (fun wake -> Queue.add wake rw.writer_q);
      rw.waiting_writers <- rw.waiting_writers - 1;
      wr_lock rw
    end
    else begin
      rw.writer <- true;
      (* The write side is an exclusive lock: same event as a mutex. *)
      trace (Locked { lock = rw.id; tid = self () })
    end

  let wr_unlock rw =
    if not rw.writer then invalid_arg "Rwlock.wr_unlock: not write-locked";
    (match !trace_hook with
    | Some f -> f (Unlocked { lock = rw.id; tid = self () })
    | None -> ());
    rw.writer <- false;
    if Queue.is_empty rw.writer_q then drain rw.reader_q else drain rw.writer_q

  let with_rd rw f =
    rd_lock rw;
    match f () with
    | v ->
        rd_unlock rw;
        v
    | exception e ->
        rd_unlock rw;
        raise e

  let with_wr rw f =
    wr_lock rw;
    match f () with
    | v ->
        wr_unlock rw;
        v
    | exception e ->
        wr_unlock rw;
        raise e

  let readers rw = rw.active_readers
end

module Cond = struct
  type cond = { waiters : wake Queue.t }

  let create () = { waiters = Queue.create () }

  let wait c m =
    (* Enqueue before releasing the mutex so a signal between unlock and
       suspend cannot be lost; suspension registration happens atomically
       with respect to other threads because fibers are cooperative. *)
    Mutex.unlock m;
    suspend (fun wake -> Queue.add wake c.waiters);
    Mutex.lock m

  let signal c =
    match Queue.take_opt c.waiters with
    | Some wake -> wake ~at:(now ())
    | None -> ()

  let broadcast c =
    let t = now () in
    let rec drain () =
      match Queue.take_opt c.waiters with
      | Some wake ->
          wake ~at:t;
          drain ()
      | None -> ()
    in
    drain ()
end
