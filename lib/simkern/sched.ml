open Effect
open Effect.Deep

type tid = int
type outcome = Completed | Failed of exn

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

(* The running thread's tid and clock cell; [no_tid] and [no_cell]
   between resumptions and outside [run]. [resume] sets it for one step
   and [run] saves and restores it around a run, nested ones included.
   Other modules read its fields directly (see the interface). Defined
   before [thread], so an unannotated [.tid] or [.cell] is a thread's. *)
type running = { mutable tid : int; mutable cell : cell }

let no_tid = -1
let no_cell = { clock = 0.0; waited = 0.0 }
let running = { tid = no_tid; cell = no_cell }

(* A wake handle (see the interface): the thread's slot in the
   scheduler's thread vector in the low [slot_bits] bits, its suspension
   serial above them. *)
type handle = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let no_handle = -1

type thread = {
  tid : int;
  slot : int;  (* index in the scheduler's [threads] *)
  name : string;  (* [unnamed]: "t<tid>" *)
  cell : cell;  (* [waited]: virtual time spent blocked or waiting *)
  mutable status : status;
  mutable entry : unit -> unit;  (* [no_entry] once started *)
  mutable cont : (unit, unit) continuation;  (* [no_cont] unless parked *)
  mutable serial : int;
  mutable joiners : handle list;
  mutable killed : bool;
}

(* Masked to stay non-negative: a thread's own heap entry is tagged with
   a negative value (see [Heap]). Serials therefore compare modulo 2^32. *)
let handle_of th = ((th.serial lsl slot_bits) lor th.slot) land max_int

(* Serials come from one process-wide counter, not one per thread, so a
   handle kept past its scheduler's run cannot match the thread a later
   scheduler puts in the same slot. *)
let serials = ref 0

let fresh_serial () =
  incr serials;
  !serials

(* Binary min-heap of (clock, id) with lazy deletion. A thread's entry is
   valid only if the thread is still Ready at exactly that clock; its
   deadline slot holds the clock the thread suspended from, before the
   suspension's own advance (a sleep's charge, a wake's jump), which no
   time it observed lies past. A timer's entry carries the handle it
   wakes and its deadline and is always valid. Entries live in four
   parallel arrays (keys and deadlines unboxed), and [push] reads the
   key from a clock cell and the deadline from a slot, so no float is
   boxed on the way in or out: pushing or popping an entry allocates
   nothing. Sifts move a hole rather than swap: each displaced
   entry is written once and the sifted one once at the end, half the
   writes of a swap per level across the four arrays. *)
module Heap = struct
  type t = {
    mutable keys : Float.Array.t;
    mutable ids : int array;
    mutable wakes : int array;  (* a timer's handle; [lnot slot] for a thread *)
    mutable deadlines : Float.Array.t;  (* a timer's; unused by threads *)
    mutable n : int;
  }

  let create () =
    {
      keys = Float.Array.make 64 0.0;
      ids = Array.make 64 (-1);
      wakes = Array.make 64 0;
      deadlines = Float.Array.make 64 0.0;
      n = 0;
    }

  let grow h =
    let keys' = Float.Array.make (2 * h.n) 0.0 in
    Float.Array.blit h.keys 0 keys' 0 h.n;
    let ids' = Array.make (2 * h.n) (-1) in
    Array.blit h.ids 0 ids' 0 h.n;
    let wakes' = Array.make (2 * h.n) 0 in
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
    h.wakes.(dst) <- h.wakes.(src);
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
    h.wakes.(!i) <- wake;
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
    h.wakes.(!i) <- wake;
    Float.Array.set h.deadlines !i deadline

  (* An entry keyed at [c]'s current clock, its deadline read from slot
     [i] of [times]. *)
  let push h (c : cell) id wake times i =
    if h.n = Array.length h.ids then grow h;
    Float.Array.set h.keys h.n c.clock;
    Float.Array.set h.deadlines h.n (Float.Array.get times i);
    h.ids.(h.n) <- id;
    h.wakes.(h.n) <- wake;
    h.n <- h.n + 1;
    sift_up h (h.n - 1)

  (* The deadline slot of the entry [wake] has at [key], or [key] when
     it has none. *)
  let deadline_of h wake key =
    let r = ref key in
    for i = 0 to h.n - 1 do
      if h.wakes.(i) = wake && Float.Array.get h.keys i = key then
        r := Float.Array.get h.deadlines i
    done;
    !r

  let is_empty h = h.n = 0
  let top_key h = Float.Array.get h.keys 0
  let top_wake h = h.wakes.(0)
  let top_deadline h = Float.Array.get h.deadlines 0

  (* Move the top entry, a timer's, to its deadline. *)
  let rekey_top h =
    Float.Array.set h.keys 0 (Float.Array.get h.deadlines 0);
    sift_down h 0

  let remove_top h =
    h.n <- h.n - 1;
    if h.n > 0 then sift_down h h.n
end

(* The largest clock reached by a finished thread or an armed timer, in
   a float-only record so raising it boxes nothing. *)
type span = { mutable horizon : float }

type t = {
  mutable next_tid : int;
  mutable threads : thread array;  (* [0, n_threads), in tid order *)
  mutable n_threads : int;
  ready : Heap.t;
  from : Float.Array.t;
      (* slot 0: the clock the thread [make_ready] files suspended from *)
  mutable current : thread;  (* [no_thread] between resumptions *)
  mutable running : bool;
  span : span;
  handler : (unit, unit) handler;
}

type _ Effect.t += Yield : unit Effect.t | Block : unit Effect.t

(* The "no continuation" mark of a thread record, compared by physical
   equality ([Some k] would allocate per suspension): a continuation
   captured once, at start-up, and never resumed. *)
let no_cont : (unit, unit) continuation =
  let mark : (unit, unit) continuation option ref = ref None in
  match_with
    (fun () -> perform Yield)
    ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> Some (fun (k : (a, unit) continuation) -> mark := Some k)
          | _ -> None);
    };
  Option.get !mark

(* A started thread's entry; a closed function, so storing it is no
   allocation. *)
let no_entry () = ()

(* The scheduler's "no thread running" marker, compared by physical
   equality (an option would allocate a [Some] per resumption). Never
   mutated: every mutating path first checks it is not current. *)
(* The name of a thread spawned without one, compared by physical
   equality: storing it, rather than an option, keeps the caller's
   [Some] short-lived. *)
let unnamed = String.make 1 '?'

let no_thread =
  {
    tid = -1;
    slot = -1;
    name = unnamed;
    cell = { clock = 0.0; waited = 0.0 };
    status = Done Completed;
    entry = no_entry;
    cont = no_cont;
    serial = 0;
    joiners = [];
    killed = false;
  }

let name_of th =
  if th.name == unnamed then "t" ^ Int.to_string th.tid else th.name

let active : t option ref = ref None

(* Synchronization trace hook (single slot, like [active]): when set, the
   scheduler reports the happens-before-relevant events — spawn/join
   edges and lock transfers — to an external observer (the race detector
   in lib/analysis installs one). Emission is host-side only: it charges
   no virtual time and takes no scheduling decision, so an installed hook
   cannot perturb a deterministic run. Every emitting site matches on the
   hook first, so no event is built while none is installed. *)
type trace_event =
  | Spawned of { parent : tid; child : tid }
  | Joined of { waiter : tid; joined : tid }
  | Locked of { lock : int; tid : tid }
  | Unlocked of { lock : int; tid : tid }

let trace_hook : (trace_event -> unit) option ref = ref None
let set_trace_hook h = trace_hook := h

(* Process-wide mutex ids, the names lock-set observers key on. *)
let next_lock_id = ref 0

let fresh_lock_id () =
  let id = !next_lock_id in
  next_lock_id := id + 1;
  id

(* The caller has put the clock [th] suspended from in [t.from]. *)
let make_ready t th =
  th.status <- Ready;
  Heap.push t.ready th.cell th.tid (lnot th.slot) t.from 0

(* Wake the suspension [h] names at virtual time [at]: its thread's
   clock becomes [max clock at], the jump counted as waiting. [false]
   when that suspension already ended. Inlined, so [at] stays unboxed. *)
let[@inline] wake_at t h at =
  let slot = h land slot_mask in
  if h < 0 || slot >= t.n_threads then false
  else begin
    let th = t.threads.(slot) in
    if th.status == Blocked && handle_of th = h then begin
      th.serial <- fresh_serial ();
      let k = th.cell in
      Float.Array.set t.from 0 k.clock;
      if at > k.clock then begin
        k.waited <- k.waited +. (at -. k.clock);
        k.clock <- at
      end;
      make_ready t th;
      true
    end
    else false
  end

(* Wake every handle of a list at [k]'s clock; the time is read from the
   cell because a recursive function re-boxes a float argument per call. *)
let rec wake_list t (k : cell) = function
  | [] -> ()
  | h :: rest ->
      ignore (wake_at t h k.clock);
      wake_list t k rest

let finish t th status =
  th.status <- status;
  th.cont <- no_cont;
  let k = th.cell in
  if k.clock > t.span.horizon then t.span.horizon <- k.clock;
  let joiners = th.joiners in
  th.joiners <- [];
  wake_list t k joiners

let completed = Done Completed

let park t k =
  let th = t.current in
  th.cont <- k;
  th

(* Each scheduler has one effect handler, and its responses are built
   with it: they act on [t.current], the thread being resumed, so
   neither a spawn nor an effect builds a closure. [Yield] re-queues the
   thread; [Block] parks it until a wake (or a kill) makes it ready. *)
let create () =
  let rec t =
    {
      next_tid = 0;
      threads = Array.make 64 no_thread;
      n_threads = 0;
      ready = Heap.create ();
      from = Float.Array.make 1 0.0;
      current = no_thread;
      running = false;
      span = { horizon = 0.0 };
      handler =
        {
          retc = (fun () -> finish t t.current completed);
          exnc = (fun e -> finish t t.current (Done (Failed e)));
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Yield -> (on_yield : ((a, unit) continuation -> unit) option)
              | Block -> on_block
              | _ -> None);
        };
    }
  and on_yield : ((unit, unit) continuation -> unit) option =
    Some (fun k -> make_ready t (park t k))
  and on_block : ((unit, unit) continuation -> unit) option =
    Some (fun k -> (park t k).status <- Blocked)
  in
  t

let not_in_thread () =
  match !active with
  | Some _ -> failwith "Sched: no current thread"
  | None -> failwith "Sched: not inside a simulation"

let current_thread () =
  match !active with
  | Some t when t.current != no_thread -> t.current
  | Some _ | None -> not_in_thread ()

let current () =
  match !active with
  | Some t -> t
  | None -> failwith "Sched: not inside a simulation"

(* The accessors of the running thread read [running] alone. *)
let in_thread () = running.tid <> no_tid
let self () = if running.tid = no_tid then not_in_thread () else running.tid

let clock_cell () =
  if running.tid = no_tid then not_in_thread () else running.cell

let now () = (clock_cell ()).clock

let charge c =
  let k = clock_cell () in
  k.clock <- k.clock +. c

(* The thread with id [tid], or [no_thread]: a binary search, as the
   vector is in tid order. *)
let find t tid =
  let lo = ref 0 and hi = ref t.n_threads in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.threads.(mid).tid < tid then lo := mid + 1 else hi := mid
  done;
  if !lo < t.n_threads && t.threads.(!lo).tid = tid then t.threads.(!lo)
  else no_thread

let spawn t ?name f =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let slot = t.n_threads in
  if slot = slot_mask then failwith "Sched.spawn: too many threads";
  let clock =
    if t.current == no_thread then 0.0 else t.current.cell.clock
  in
  let name = match name with Some n -> n | None -> unnamed in
  let th =
    {
      tid;
      slot;
      name;
      cell = { clock; waited = 0.0 };
      status = Ready;
      entry = f;
      cont = no_cont;
      serial = fresh_serial ();
      joiners = [];
      killed = false;
    }
  in
  if slot = Array.length t.threads then begin
    let grown = Array.make (2 * slot) no_thread in
    Array.blit t.threads 0 grown 0 slot;
    t.threads <- grown
  end;
  t.threads.(slot) <- th;
  t.n_threads <- slot + 1;
  Float.Array.set t.from 0 clock;
  Heap.push t.ready th.cell tid (lnot slot) t.from 0;
  (* [no_thread.tid] is -1: spawned from outside the simulation. *)
  (match !trace_hook with
  | Some hook -> hook (Spawned { parent = t.current.tid; child = tid })
  | None -> ());
  tid

let resume t th =
  th.status <- Running;
  t.current <- th;
  running.tid <- th.tid;
  running.cell <- th.cell;
  (if th.killed then begin
     th.entry <- no_entry;
     let k = th.cont in
     if k != no_cont then begin
       th.cont <- no_cont;
       discontinue k Killed
     end
     else finish t th (Done (Failed Killed))
   end
   else if th.entry != no_entry then begin
     let f = th.entry in
     th.entry <- no_entry;
     match_with f () t.handler
   end
   else begin
     let k = th.cont in
     if k == no_cont then failwith "Sched: resuming thread without continuation";
     th.cont <- no_cont;
     continue k ()
   end);
  t.current <- no_thread;
  running.tid <- no_tid;
  running.cell <- no_cell

let blocked_names t =
  let names = ref [] in
  for i = t.n_threads - 1 downto 0 do
    let th = t.threads.(i) in
    if th.status == Blocked then names := name_of th :: !names
  done;
  !names

let run t =
  if t.running then failwith "Sched.run: already running";
  let saved = !active in
  let saved_tid = running.tid and saved_cell = running.cell in
  active := Some t;
  running.tid <- no_tid;
  running.cell <- no_cell;
  t.running <- true;
  let restore () =
    t.running <- false;
    active := saved;
    running.tid <- saved_tid;
    running.cell <- saved_cell
  in
  (try
     let h = t.ready in
     while not (Heap.is_empty h) do
       let key = Heap.top_key h and w = Heap.top_wake h in
       if w < 0 then begin
         Heap.remove_top h;
         let th = t.threads.(lnot w) in
         (* A stale entry: the thread was re-queued or resumed since. *)
         if th.status == Ready && th.cell.clock = key then resume t th
       end
       else begin
         let deadline = Heap.top_deadline h in
         if deadline > key then begin
           (* The arming point: a timer thread's first step would move
              its clock to the deadline here. *)
           if deadline > t.span.horizon then t.span.horizon <- deadline;
           Heap.rekey_top h
         end
         else begin
           Heap.remove_top h;
           ignore (wake_at t w deadline)
         end
       end
     done
   with e ->
     restore ();
     raise e);
  restore ();
  match blocked_names t with
  | [] -> ()
  | names -> raise (Deadlock (String.concat ", " names))

let outcome t tid =
  let th = find t tid in
  match th.status with
  | Done oc when th != no_thread -> Some oc
  | Done _ | Ready | Running | Blocked -> None

(* The exception of the first thread, by tid, that died of one other
   than [Killed]. *)
let first_failure t =
  let rec from i =
    if i = t.n_threads then None
    else
      match t.threads.(i).status with
      | Done (Failed Killed) | Done Completed | Ready | Running | Blocked ->
          from (i + 1)
      | Done (Failed e) -> Some e
  in
  from 0

let main ?(sched = create ()) body =
  let result = ref None in
  let tid = spawn sched ~name:"main" (fun () -> result := Some (body sched)) in
  (* A body that fails leaves whatever it would have stopped blocked; its
     exception, not the deadlock that follows, is the failure. *)
  let reraise () =
    match outcome sched tid with Some (Failed e) -> raise e | _ -> ()
  in
  (try run sched
   with Deadlock _ as d -> (
     reraise ();
     (* So does any thread that died: a server thread's exception leaves
        its clients blocked, and names the cause their deadlock does
        not. *)
     match first_failure sched with Some e -> raise e | None -> raise d));
  reraise ();
  match !result with
  | Some v -> v
  | None -> failwith "Sched.main: the body did not finish"

let outcomes t =
  let finished = ref [] in
  for i = t.n_threads - 1 downto 0 do
    let th = t.threads.(i) in
    match th.status with
    | Done oc -> finished := (th.tid, name_of th, oc) :: !finished
    | Ready | Running | Blocked -> ()
  done;
  !finished

let horizon t =
  let h = ref t.span.horizon in
  for i = 0 to t.n_threads - 1 do
    let c = t.threads.(i).cell.clock in
    if c > !h then h := c
  done;
  !h

(* Note the clock the running thread suspends from, for the yield
   handler's [make_ready]. *)
let note_from () =
  match !active with
  | Some t when t.current != no_thread ->
      Float.Array.set t.from 0 t.current.cell.clock
  | Some _ | None -> not_in_thread ()

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
    note_from ();
    k.waited <- k.waited +. (at -. k.clock);
    k.clock <- at;
    perform Yield
  end

let thread_clock t tid =
  let th = find t tid in
  if th == no_thread then None else Some th.cell.clock

let thread_waited t tid =
  let th = find t tid in
  if th == no_thread then None else Some th.cell.waited

let busy_fraction t tid =
  let th = find t tid in
  if th == no_thread then None
  else
    let span = horizon t in
    if span <= 0.0 then None
    else Some ((th.cell.clock -. th.cell.waited) /. span)

let yield () =
  note_from ();
  perform Yield

let handle () = handle_of (current_thread ())
let block () = perform Block

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
   left behind. The entry is pushed before the thread parks; nothing runs
   in between. The deadline is read from its slot inside the push: a
   [float] argument would be boxed across the module boundary, and so
   would the slot's value passed on to the push. *)
let block_until_from times i =
  let th = current_thread () in
  let t = current () in
  let id = t.next_tid in
  t.next_tid <- id + 1;
  Heap.push t.ready th.cell id (handle_of th) times i;
  perform Block

(* The time a wake moves its thread to is read where it lies — the
   caller's clock cell, or a slot of the waker's [Float.Array] — never
   passed as a [float], which would be boxed across the module
   boundary. *)
let wake h =
  let t = current () in
  wake_at t h (current_thread ()).cell.clock

let wake_from h times i = wake_at (current ()) h (Float.Array.get times i)

(* A waiter killed while queued left a stale handle; a handoff passes
   over it to the next, so the lock is not lost. *)
let wake_first q =
  (not (Queue.is_empty q))
  && begin
       let t = current () in
       let k = (current_thread ()).cell in
       let woke = ref false in
       while (not !woke) && not (Queue.is_empty q) do
         woke := wake_at t (Queue.take q) k.clock
       done;
       !woke
     end

let sleep c =
  note_from ();
  charge c;
  perform Yield

(* Kill a thread: it unwinds with [Killed] at its next resumption. A
   blocked victim is made runnable immediately (a fresh serial makes
   every handle to its suspension stale); a ready one dies when the
   scheduler picks it. Killing a finished thread is a no-op. A victim
   behind the killer is advanced to the killer's clock, so the death is
   causally ordered. A ready victim ahead of it — a sleeper, or a
   thread woken at a later time — has not yet lived to its clock, so it
   dies at the killer's, or at the clock it suspended from (filed with
   its heap entry) when that is later: its wait is cut short, and its
   clock never goes back past a time it observed. *)
let kill t tid =
  let th = find t tid in
  match th.status with
  | Done _ -> ()
  | Ready | Running | Blocked ->
      th.killed <- true;
      let k = th.cell in
      let at =
        if t.current == no_thread then k.clock else t.current.cell.clock
      in
      if at > k.clock then begin
        k.waited <- k.waited +. (at -. k.clock);
        k.clock <- at
      end
      else if th.status == Ready then begin
        let at =
          Float.max at (Heap.deadline_of t.ready (lnot th.slot) k.clock)
        in
        k.clock <- at;
        (* Its waiting cannot exceed its clock. *)
        if k.waited > at then k.waited <- at
      end;
      Float.Array.set t.from 0 k.clock;
      if th.status == Blocked then begin
        th.serial <- fresh_serial ();
        make_ready t th
      end
      else if th.status == Ready then
        (* Re-queue at the (possibly moved) clock; the stale heap entry
           is skipped by the clock check in [run]. *)
        make_ready t th

let join tid =
  let t = current () in
  let th = find t tid in
  if th == no_thread then invalid_arg "Sched.join: unknown thread";
  (match th.status with
  | Done _ -> ()
  | Ready | Running | Blocked ->
      th.joiners <- handle () :: th.joiners;
      block ());
  (* The edge exists even when the target already finished: the joiner
     now happens-after everything the joined thread did. *)
  match !trace_hook with
  | Some hook -> hook (Joined { waiter = self (); joined = tid })
  | None -> ()

module Mutex = struct
  type mutex = {
    id : int;
    mutable locked : bool;
    mutable owner : tid;
    waiters : handle Queue.t;
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
      let k = clock_cell () in
      let t0 = k.clock in
      Queue.add (handle ()) m.waiters;
      block ();
      (* The lock was handed to us by [unlock]; it is still marked locked. *)
      m.owner <- self ();
      m.wait_cycles <- m.wait_cycles +. (k.clock -. t0)
    end;
    match !trace_hook with
    | Some hook -> hook (Locked { lock = m.id; tid = m.owner })
    | None -> ()

  let unlock m =
    if not m.locked then invalid_arg "Mutex.unlock: not locked";
    (match !trace_hook with
    | Some f -> f (Unlocked { lock = m.id; tid = self () })
    | None -> ());
    (* Direct handoff: ownership transfers when the waiter resumes. *)
    if not (wake_first m.waiters) then begin
      m.locked <- false;
      m.owner <- -1
    end

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
