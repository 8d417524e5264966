module Sched = Simkern.Sched
module Cost = Simkern.Cost
module Space = Vmem.Space
module Prot = Vmem.Prot
module Pkru = Vmem.Pkru
module Rewind_log = Checkpoint.Rewind_log
module Flight = Checkpoint.Flight
open Types

exception Stack_check_failure
exception Attack_detected of string

(* Internal: carries a rewind destined for the failing domain's
   grandparent past the failing domain's own init frame (Figure 2). *)
exception Rewind_to_grandparent of fault

type state = Dormant | Ready | Entered

type exec_inst = {
  udi : udi;
  tid : int;
  mutable opts : options;
  parent : udi;
  mutable pkey : int;
  mutable state : state;
  mutable stack_base : int;
  mutable stack_len : int;
  mutable sp : int;
  mutable heap : Tlsf.t option;
  mutable heap_regions : int list;
  mutable frame : int;  (* active rewind frame id, 0 = none (Dormant) *)
  mutable ctx_addr : int;  (* saved-context block in monitor memory *)
  mutable meta_addr : int;  (* domain record in monitor memory *)
  mutable last_used : int;  (* LRU tick for key virtualization *)
  mutable cleanups : (unit -> unit) list;
      (* run (innermost first) when this domain exits abnormally *)
  mutable entry : exec_inst list;
      (* the entered-stack cell of this domain's last entry (see
         [push_entered]) *)
}

type data_inst = {
  d_udi : udi;
  d_pkey : int;
  d_heap : Tlsf.t;
  mutable d_regions : int list;
  d_perms : (udi, Prot.t) Hashtbl.t;  (* viewer execution domain -> rights *)
  d_meta_addr : int;
}

(* {1 Udi-ordered tables}

   A thread's execution-domain instances and the monitor's data domains
   live in arrays sorted by udi. A lookup is a binary search and a walk
   is a loop, so a gate builds no key, option or closure for either, and
   walks visit domains in udi order. *)
module By_udi = struct
  type 'a t = {
    udi_of : 'a -> udi;
    filler : 'a;  (* a vacated slot's value *)
    mutable items : 'a array;  (* the first [len] are live *)
    mutable len : int;
  }

  let create udi_of filler = { udi_of; filler; items = [||]; len = 0 }

  (* The index of [udi], or [-(i + 1)] when it is absent and belongs at
     [i]. *)
  let rec search tb udi lo hi =
    if lo >= hi then -(lo + 1)
    else
      let mid = (lo + hi) lsr 1 in
      let u = tb.udi_of tb.items.(mid) in
      if u = udi then mid
      else if u < udi then search tb udi (mid + 1) hi
      else search tb udi lo mid

  let index tb udi = search tb udi 0 tb.len
  let mem tb udi = index tb udi >= 0

  let find tb udi =
    let i = index tb udi in
    if i < 0 then raise Not_found else tb.items.(i)

  let add tb x =
    let i = -(index tb (tb.udi_of x) + 1) in
    if i < 0 then invalid_arg "By_udi.add: udi present";
    if tb.len = Array.length tb.items then begin
      let grown = Array.make (max 8 (2 * tb.len)) x in
      Array.blit tb.items 0 grown 0 tb.len;
      tb.items <- grown
    end;
    Array.blit tb.items i tb.items (i + 1) (tb.len - i);
    tb.items.(i) <- x;
    tb.len <- tb.len + 1

  (* The vacated slot holds [filler], so the array keeps no removed
     domain reachable, and a table emptied and filled again, as a
     rewound lone domain's is, keeps its array. *)
  let remove tb udi =
    let i = index tb udi in
    if i >= 0 then begin
      Array.blit tb.items (i + 1) tb.items i (tb.len - i - 1);
      tb.len <- tb.len - 1;
      tb.items.(tb.len) <- tb.filler
    end

  let iter f tb =
    for i = 0 to tb.len - 1 do
      f tb.items.(i)
    done
end

(* The filler of vacated instance slots, and the domain no chain
   holds (see [stage_descendants]). *)
let no_inst =
  {
    udi = root_udi;
    tid = -1;
    opts = default_options;
    parent = root_udi;
    pkey = -1;
    state = Dormant;
    stack_base = 0;
    stack_len = 0;
    sp = 0;
    heap = None;
    heap_regions = [];
    frame = 0;
    ctx_addr = 0;
    meta_addr = 0;
    last_used = 0;
    cleanups = [];
    entry = [];
  }

(* A cached argument-marshalling buffer (see [gate_buffer]). *)
type gate_buf = {
  gb_caller : udi;
  gb_callee : udi;
  gb_slot : int;
  mutable gb_addr : int;
  mutable gb_cap : int;
}

type thread_state = {
  t_tid : int;
  mutable constructed : bool;
      (* the thread constructor has run: root stack mapped, policy
         installed. A record without it only carries a trace id set
         before the thread's first domain call. *)
  insts : exec_inst By_udi.t;  (* this thread's execution domains *)
  mutable gate_bufs : gate_buf list;
      (* cached argument-marshalling buffers in callee heaps, surviving
         deinit (persistent-domain pattern) until the callee or the
         caller is discarded or destroyed *)
  mutable trace : int;  (* active causal trace id, 0 = none *)
  mutable entered : exec_inst list;  (* innermost first; [] = in root *)
  mutable root_sp : int;
  mutable root_stack_base : int;
  mutable root_stack_len : int;
  mutable cur_pkru : int;
  mutable monitor_depth : int;  (* nested [with_monitor] brackets *)
  mutable gate_depth : int;  (* open batched-gate sections *)
  mutable rewound : bool;
      (* the last [run] to return on this thread returned its
         [on_rewind] handler's value *)
}

type t = {
  space : Space.t;
  cost : Cost.t;
  monitor_pkey : int;
  root_pkey : int;
  monitor_heap : Tlsf.t;
  root_heap : Tlsf.t;
  mutable root_heap_regions : int list;
  canary_value : int;
  mutable frame_counter : int;
  datas : data_inst By_udi.t;
  threads : (int, thread_state) Hashtbl.t;
  mutable exec_keys : Pkru.t;
      (* the deny (AD) bit of every key an execution-domain instance
         holds, on any thread *)
  mutable stack_pool : int array;
      (* pooled stack areas, (base, len) pairs, the last released on
         top *)
  mutable pooled : int;  (* areas in [stack_pool] *)
  stack_reuse : bool;
  virtual_keys : bool;
  sanitizer : bool;
  verify_policy : bool;
  mutable key_clock : int;  (* LRU tick for key virtualization *)
  default_heap_size : int;
  mutable subscribers : (Types.fault -> unit) list;  (* newest first *)
  mutable in_monitor : bool;
  audit : Rewind_log.t;  (* durable rewind intent + incident audit log *)
  draft : Rewind_log.draft;  (* an intent's victims, staged for [audit] *)
  mutable victims : exec_inst array;
      (* the domains a discard takes, bottom-up, staged from a base a
         nested discard stages above (see [unstage_victims]) *)
  mutable n_victims : int;
  flight : Flight.t;  (* per-domain event rings in monitor memory *)
  spare_heaps : (udi, Tlsf.t) Hashtbl.t;
      (* per udi, the heap a discarded instance left, reset and reused
         by the udi's next instance; [root_heap] once taken *)
  mutable rewind_fault_hook : (unit -> bool) option;
      (* chaos probe consulted before each discard step of a rewind;
         [true] simulates a second fault arriving mid-rewind *)
  mutable race_observer : (Types.race_event -> unit) option;
      (* host-side happens-before feed for the race detector: domain
         gates, rewinds, data-domain lifecycle, allocations, Dlocks *)
  mutable journal_probes : (unit -> int) list;
      (* cumulative replay-hit counts, sampled at incident commit *)
  mutable pending_interrupted : bool;
      (* the in-flight incident absorbed at least one mid-rewind fault *)
  metrics : Telemetry.Metrics.t;
  tracer : Telemetry.Trace.t;
  c_rewinds : Telemetry.Metrics.counter;
  c_incidents_resumed : Telemetry.Metrics.counter;
  c_rewind_interrupts : Telemetry.Metrics.counter;
  c_key_evictions : Telemetry.Metrics.counter;
  c_enters : Telemetry.Metrics.counter;
  c_exits : Telemetry.Metrics.counter;
  c_gate_batched : Telemetry.Metrics.counter;
  c_inits : Telemetry.Metrics.counter;
  c_destroys : Telemetry.Metrics.counter;
  h_rewind_cycles : Telemetry.Metrics.histogram;
}

let log_src = Logs.Src.create "sdrad.core" ~doc:"SDRaD reference monitor"

module Log = (val Logs.src_log log_src : Logs.LOG)

let err e = raise (Error e)

(* API calls are usable outside a simulated thread (setup code in tests);
   time is only charged when a thread clock exists. Both work on the
   thread's clock cell in place: a float passed to [Sched.charge] or
   returned by [Sched.now] is boxed (libraries are compiled -opaque), and
   every gate charges and reads the clock several times. *)
let[@inline] charge c =
  if Sched.in_thread () then begin
    let k = Sched.clock_cell () in
    k.clock <- k.clock +. c
  end

let[@inline] now () =
  if Sched.in_thread () then (Sched.clock_cell ()).clock else 0.0

let set_race_observer t o = t.race_observer <- o

let race_emit t ev =
  match t.race_observer with Some f -> f ev | None -> ()

(* [Log.info]'s message closure is built whatever the level, so a
   caller on the rewind path builds it only when the source reports at
   [Info]. *)
let info_enabled () =
  match Logs.Src.level log_src with
  | Some (Logs.Info | Logs.Debug) -> true
  | Some (Logs.App | Logs.Error | Logs.Warning) | None -> false

let rec notify fault = function
  | [] -> ()
  | f :: rest ->
      f fault;
      notify fault rest

(* Hand an incident to the subscribers (e.g. a SIEM, §VI
   "Applicability"); its history is the audit log. *)
let report_incident t fault =
  if Telemetry.Trace.enabled t.tracer then
    Telemetry.Trace.instant t.tracer "incident"
      ~args:[ ("udi", string_of_int fault.failed_udi) ];
  if info_enabled () then
    Log.info (fun m ->
        m "incident: %a" (fun ppf f -> Types.pp_fault ppf f) fault);
  notify fault t.subscribers

(* §VI syscall oracle: a nested domain reaching the kernel interface
   directly is treated as an attack unless the domain opted in; calls made
   by the reference monitor on the domain's behalf are sanctioned. *)
let install_syscall_oracle t =
  Space.set_syscall_hook t.space
    (Some
       (fun op ->
         if not t.in_monitor then
           let tid = if Sched.in_thread () then Sched.self () else -1 in
           match Hashtbl.find_opt t.threads tid with
           | Some { entered = inst :: _; _ } when not inst.opts.allow_syscalls ->
               raise
                 (Attack_detected (Printf.sprintf "unsanctioned syscall %s" op))
           | _ -> ()))

(* The monitor's fixed geometry. *)
let monitor_size = 256 * 1024
let root_heap_size = 4 * 1024 * 1024
let root_stack_size = 64 * 1024  (* each thread's root-domain stack *)
let audit_log_cap = 256  (* committed incident records retained *)
let flight_log_cap = 32  (* events per domain's flight ring *)
let flight_snap = 8  (* events per victim frozen into an audit record *)

let create ?(seed = 1) ?(default_heap_size = 256 * 1024) ?(stack_reuse = true)
    ?(virtual_keys = false) ?(sanitizer = false) ?(verify_policy = false)
    ?metrics ?tracer space =
  let alloc_key () =
    match Space.pkey_alloc space with Some k -> k | None -> err Out_of_pkeys
  in
  let monitor_pkey = alloc_key () in
  let root_pkey = alloc_key () in
  let monitor_region = Space.mmap space ~len:monitor_size ~prot:Prot.rw ~pkey:monitor_pkey in
  let monitor_heap = Tlsf.create space ~name:"sdrad-monitor" in
  if sanitizer then Tlsf.set_sanitize monitor_heap true;
  Tlsf.add_region monitor_heap ~addr:monitor_region ~len:monitor_size;
  let root_region = Space.mmap space ~len:root_heap_size ~prot:Prot.rw ~pkey:root_pkey in
  let root_heap = Tlsf.create space ~name:"sdrad-root" in
  if sanitizer then Tlsf.set_sanitize root_heap true;
  Tlsf.add_region root_heap ~addr:root_region ~len:root_heap_size;
  (* The rewind transaction log lives in the monitor data domain, next to
     the domain records and saved contexts it audits. *)
  let audit = Rewind_log.create space ~heap:monitor_heap ~cap:audit_log_cap in
  (* The flight recorder shares the monitor data domain: its rings must
     survive the rewinds of the domains they describe. *)
  let flight = Flight.create space ~heap:monitor_heap ~cap:flight_log_cap () in
  let rng = Simkern.Rng.create seed in
  let metrics =
    match metrics with Some m -> m | None -> Telemetry.Metrics.create ()
  in
  let tracer =
    match tracer with Some tr -> tr | None -> Telemetry.Trace.create ()
  in
  let module M = Telemetry.Metrics in
  let t =
  {
    space;
    cost = Space.cost space;
    monitor_pkey;
    root_pkey;
    monitor_heap;
    root_heap;
    root_heap_regions = [ root_region ];
    canary_value = Int64.to_int (Simkern.Rng.int64 rng) land max_int;
    frame_counter = 0;
    datas =
      By_udi.create
        (fun dd -> dd.d_udi)
        {
          d_udi = root_udi;
          d_pkey = -1;
          d_heap = root_heap;
          d_regions = [];
          d_perms = Hashtbl.create 1;
          d_meta_addr = 0;
        };
    threads = Hashtbl.create 8;
    exec_keys = Pkru.all_access;
    stack_pool = [||];
    pooled = 0;
    stack_reuse;
    virtual_keys;
    sanitizer;
    verify_policy;
    key_clock = 0;
    default_heap_size;
    subscribers = [];
    in_monitor = false;
    audit;
    draft = Rewind_log.draft ();
    victims = [||];
    n_victims = 0;
    flight;
    spare_heaps = Hashtbl.create 16;
    rewind_fault_hook = None;
    race_observer = None;
    journal_probes = [];
    pending_interrupted = false;
    metrics;
    tracer;
    c_rewinds =
      M.counter metrics "sdrad_rewinds_total"
        ~help:"Abnormal domain exits (rewind-and-discard events)";
    c_incidents_resumed =
      M.counter metrics "sdrad_incidents_resumed_total"
        ~help:
          "Rewinds that absorbed a fault mid-discard and were resumed from \
           the durable intent record";
    c_rewind_interrupts =
      M.counter metrics "sdrad_rewind_interrupts_total"
        ~help:"Faults arriving while a multi-domain rewind was in flight";
    c_key_evictions =
      M.counter metrics "sdrad_key_evictions_total"
        ~help:"Dormant domains parked to recycle a protection key";
    c_enters =
      M.counter metrics "sdrad_domain_enters_total"
        ~help:"Switches into a nested domain";
    c_exits =
      M.counter metrics "sdrad_domain_exits_total"
        ~help:"Normal switches back to a parent domain";
    c_gate_batched =
      M.counter metrics "gate_batched_calls_total"
        ~help:"Domain entries coalesced into an open batched gate";
    c_inits =
      M.counter metrics "sdrad_domain_inits_total"
        ~help:"Execution-domain initializations (rewind points established)";
    c_destroys =
      M.counter metrics "sdrad_domain_destroys_total"
        ~help:"Explicit domain destroys (execution and data domains)";
    h_rewind_cycles =
      M.histogram metrics "sdrad_rewind_cycles"
        ~help:"Virtual cycles per abnormal exit (context restore + discard)";
  }
  in
  (* Structural gauges and hardware counters are sampled at exposition
     time, so vmem/tlsf stay free of any telemetry dependency. *)
  M.gauge_fn metrics "sdrad_execution_domains"
    ~help:"Live execution-domain instances" (fun () ->
      float_of_int
        (Hashtbl.fold (fun _ ts n -> n + ts.insts.len) t.threads 0));
  M.gauge_fn metrics "sdrad_data_domains" ~help:"Live data domains" (fun () ->
      float_of_int t.datas.len);
  M.gauge_fn metrics "sdrad_pkeys_in_use" ~help:"Allocated protection keys"
    (fun () -> float_of_int (Space.pkeys_in_use t.space));
  M.gauge_fn metrics "sdrad_pooled_stacks"
    ~help:"Stack areas held for reuse" (fun () ->
      float_of_int t.pooled);
  M.gauge_fn metrics "sdrad_threads" ~help:"Registered simulated threads"
    (fun () ->
      float_of_int
        (Hashtbl.fold
           (fun _ ts n -> if ts.constructed then n + 1 else n)
           t.threads 0));
  M.gauge_fn metrics "sdrad_monitor_bytes"
    ~help:"Monitor control data currently allocated" (fun () ->
      float_of_int (Tlsf.used_bytes t.monitor_heap));
  M.counter_fn metrics "sdrad_audit_appended_total"
    ~help:"Incident records committed to the durable rewind audit log"
    (fun () -> Rewind_log.appended t.audit);
  M.counter_fn metrics "sdrad_audit_dropped_total"
    ~help:"Incident records evicted from the bounded audit ring"
    (fun () -> Rewind_log.dropped t.audit);
  M.gauge_fn metrics "sdrad_audit_records"
    ~help:"Incident records currently retained in the audit ring" (fun () ->
      float_of_int (Rewind_log.retained t.audit));
  M.counter_fn metrics "sdrad_flight_events_total"
    ~help:"Flight-recorder events recorded across all per-domain rings"
    (fun () -> Flight.recorded t.flight);
  M.counter_fn metrics "sdrad_flight_dropped_total"
    ~help:
      "Flight-recorder events lost to ring wrap, domain eviction or \
       allocation failure"
    (fun () -> Flight.dropped t.flight);
  M.counter_fn metrics "trace_aborted_spans_total"
    ~help:"Spans ended by an exception unwinding (faults, rewinds)"
    (fun () -> Telemetry.Trace.aborted_spans tracer);
  M.counter_fn metrics "vmem_pkru_writes_total"
    ~help:"WRPKRU instructions executed" (fun () -> Space.wrpkru_writes space);
  M.counter_fn metrics "vmem_pkru_elided_total"
    ~help:"WRPKRU installs skipped because the value was already current"
    (fun () -> Space.pkru_elided space);
  M.counter_fn metrics "vmem_faults_total" ~help:"Memory faults raised"
    (fun () -> Space.fault_count space);
  M.counter_fn metrics "sanitizer_poison_faults_total"
    ~help:"Checked accesses refused because they touched poisoned bytes"
    (fun () -> Space.poison_faults space);
  M.counter_fn metrics "sanitizer_poisoned_ranges_total"
    ~help:"Ranges marked poisoned (redzones, frees, discards)" (fun () ->
      Space.poisoned_ranges space);
  M.counter_fn metrics "sanitizer_unpoisoned_ranges_total"
    ~help:"Ranges marked live again (allocations, stack reuse)" (fun () ->
      Space.unpoisoned_ranges space);
  M.gauge_fn metrics "vmem_rss_bytes" ~help:"Touched resident bytes"
    (fun () -> float_of_int (Space.rss_bytes space));
  M.gauge_fn metrics "vmem_mapped_bytes" ~help:"Mapped bytes" (fun () ->
      float_of_int (Space.mapped_bytes space));
  List.iter
    (fun (label, heap) ->
      M.counter_fn metrics "tlsf_malloc_calls_total"
        ~help:"Successful TLSF allocations"
        ~labels:[ ("heap", label) ]
        (fun () -> Tlsf.malloc_calls heap);
      M.counter_fn metrics "tlsf_free_calls_total"
        ~help:"Successful TLSF frees"
        ~labels:[ ("heap", label) ]
        (fun () -> Tlsf.free_calls heap))
    [ ("monitor", t.monitor_heap); ("root", t.root_heap) ];
  install_syscall_oracle t;
  t

let space t = t.space
let cur_tid () = if Sched.in_thread () then Sched.self () else -1

(* {1 PKRU policy computation} *)

let current_inst ts = match ts.entered with [] -> None | i :: _ -> Some i

let current_udi_of ts =
  match ts.entered with [] -> root_udi | i :: _ -> i.udi

(* The rights [viewer] holds on data domain [dd]. *)
let data_perm dd viewer =
  match Hashtbl.find dd.d_perms viewer with
  | p -> p
  | exception Not_found -> 0

(* Runs on every switch, as two loops. Every rule that grants access
   needs the instance to belong to the calling thread, so the policy is
   the deny bits of every instance key ([t.exec_keys]), the grants among
   the thread's own instances, and the data domains' permissions. Keys
   are distinct, so each key is set once and the order does not
   matter. *)
let compute_pkru t ts =
  let cur_udi = current_udi_of ts in
  let v = ref (Pkru.deny Pkru.all_access ~key:t.monitor_pkey) in
  (* The root domain is read-only from nested domains (global data). *)
  (match ts.entered with
  | [] -> ()
  | _ :: _ -> v := Pkru.allow_read !v ~key:t.root_pkey);
  (* A [Pkru.deny] sets the key's AD bit: the mask denies them all. *)
  v := !v lor t.exec_keys;
  let insts = ts.insts in
  for i = 0 to insts.len - 1 do
    let inst = insts.items.(i) in
    if inst.pkey >= 0 then
      match ts.entered with
      | c :: _ when c == inst -> v := Pkru.allow !v ~key:inst.pkey
      | cur ->
          if
            inst.parent = cur_udi
            && inst.opts.access = Accessible
            && inst.state <> Entered
          then v := Pkru.allow !v ~key:inst.pkey
          else begin
            (* Direct parent, when the current domain opted in. *)
            match cur with
            | c :: _ when c.opts.parent_readable && c.parent = inst.udi ->
                v := Pkru.allow_read !v ~key:inst.pkey
            | _ -> ()
          end
  done;
  let datas = t.datas in
  for i = 0 to datas.len - 1 do
    let dd = datas.items.(i) in
    let p = data_perm dd cur_udi in
    v :=
      if Prot.has p Prot.write then Pkru.allow !v ~key:dd.d_pkey
      else if Prot.has p Prot.read then Pkru.allow_read !v ~key:dd.d_pkey
      else Pkru.deny !v ~key:dd.d_pkey
  done;
  !v

let hold_key t key = t.exec_keys <- Pkru.deny t.exec_keys ~key
let release_key t key = t.exec_keys <- Pkru.allow t.exec_keys ~key

(* {1 Thread registration} *)

(* The thread's record, made bare on first sight: a trace id may be set
   before the thread's first domain call, and setting one must not run
   the constructor (its root stack and WRPKRU are simulated work). *)
let thread_record t tid =
  match Hashtbl.find t.threads tid with
  | ts -> ts
  | exception Not_found ->
      let ts =
        {
          t_tid = tid;
          constructed = false;
          insts = By_udi.create (fun inst -> inst.udi) no_inst;
          gate_bufs = [];
          trace = 0;
          entered = [];
          root_sp = 0;
          root_stack_base = 0;
          root_stack_len = 0;
          cur_pkru = Pkru.all_access;
          monitor_depth = 0;
          gate_depth = 0;
          rewound = false;
        }
      in
      Hashtbl.replace t.threads tid ts;
      ts

let thread_state t =
  let ts = thread_record t (cur_tid ()) in
  if not ts.constructed then begin
    (* Thread constructor (§IV-B): set up a per-thread root stack and the
       initial access policy. *)
    let len = root_stack_size in
    let base = Space.mmap t.space ~len ~prot:Prot.rw ~pkey:t.root_pkey in
    ts.root_sp <- base + len;
    ts.root_stack_base <- base;
    ts.root_stack_len <- len;
    ts.constructed <- true;
    ts.cur_pkru <- compute_pkru t ts;
    Space.wrpkru t.space ts.cur_pkru
  end;
  ts

(* Reference-monitor call gate: raise privileges to reach the monitor data
   domain, run [f], then install whatever policy [ts.cur_pkru] holds on
   exit — at most two WRPKRU writes per API call, as in PKU call gates,
   and none at all for elided re-entry (see below). *)
(* Mark [f]'s system calls as issued by the reference monitor (the API
   implementation), exempting them from the syscall oracle. *)
let sanctioned t f =
  let was = t.in_monitor in
  t.in_monitor <- true;
  match f () with
  | v ->
      t.in_monitor <- was;
      v
  | exception e ->
      t.in_monitor <- was;
      raise e

let monitor_view t ts = Pkru.allow ts.cur_pkru ~key:t.monitor_pkey
let in_root ts = match ts.entered with [] -> true | _ -> false

let install_pkru t v =
  if Telemetry.Trace.enabled t.tracer then
    Telemetry.Trace.with_span t.tracer "switch.pkru_write" (fun () ->
        Space.wrpkru t.space v)
  else Space.wrpkru t.space v

(* Gate elision. A per-thread depth counter makes nested [with_monitor]
   re-entry free: only the outermost bracket installs the raised view on
   the way in and the compartment policy on the way out. (The old code
   wrote on every bracket — and the inner bracket's exit silently
   dropped monitor privileges while the outer bracket was still
   active.) When a batched gate is open ([open_gate]) and the thread is
   in its home root context, the outermost exit re-installs the
   {e raised} view instead of dropping it, so every monitor section of
   the batch after the first is write-free; compartment entry/exit
   still installs the compartment's own policy, keeping isolation
   byte-for-byte identical to the unbatched path. The bracket restores
   its state on every exit, exceptional ones included (faults, rewinds,
   [Sched.Killed]), without building a finalizer closure. *)
let leave_monitor t ts was =
  t.in_monitor <- was;
  ts.monitor_depth <- ts.monitor_depth - 1;
  if ts.monitor_depth = 0 then
    if ts.gate_depth > 0 && in_root ts then install_pkru t (monitor_view t ts)
    else install_pkru t ts.cur_pkru

let enter_monitor t ts =
  ts.monitor_depth <- ts.monitor_depth + 1;
  if ts.monitor_depth = 1 then install_pkru t (monitor_view t ts);
  let was = t.in_monitor in
  t.in_monitor <- true;
  was

(* For cold paths; the per-request calls open-code the bracket with
   [enter_monitor]/[leave_monitor] so that they build no closure. *)
let with_monitor t ts f =
  let was = enter_monitor t ts in
  match f () with
  | v ->
      leave_monitor t ts was;
      v
  | exception e ->
      leave_monitor t ts was;
      raise e

(* {1 Causal trace context}

   One 62-bit trace id per thread, set by the server when it starts
   handling a request and cleared when the reply is sent. Every flight-
   recorder event and rewind audit record written on that thread in
   between carries the id, which is what links a client op to its
   server-side consequences. Plain OCaml state: the id is metadata about
   the monitor's execution, not compartment-reachable memory. It is kept
   as the int the flight recorder stores. *)

let set_trace t id =
  let tid = cur_tid () in
  match Hashtbl.find t.threads tid with
  | ts -> ts.trace <- id
  | exception Not_found -> if id <> 0 then (thread_record t tid).trace <- id

let with_trace t id f =
  let ts = thread_record t (cur_tid ()) in
  let prev = ts.trace in
  ts.trace <- id;
  match f () with
  | v ->
      ts.trace <- prev;
      v
  | exception e ->
      ts.trace <- prev;
      raise e

let record_event t ~udi ~tid ~trace ~arg kind =
  Flight.record t.flight ~udi ~tid ~at:(int_of_float (now ())) ~trace ~arg
    kind

(* Record one flight-recorder event on the thread [ts]. Raises
   privileges when called from a constructed thread — the ring lives in
   monitor memory. *)
let record_on t ts ~udi ~tid ~trace ~arg kind =
  if not ts.constructed then record_event t ~udi ~tid ~trace ~arg kind
  else begin
    let was = enter_monitor t ts in
    match record_event t ~udi ~tid ~trace ~arg kind with
    | () -> leave_monitor t ts was
    | exception e ->
        leave_monitor t ts was;
        raise e
  end

let record_flight t ~udi ~trace ~arg kind =
  let tid = cur_tid () in
  match Hashtbl.find t.threads tid with
  | exception Not_found -> record_event t ~udi ~tid ~trace ~arg kind
  | ts -> record_on t ts ~udi ~tid ~trace ~arg kind

(* [udi] defaults to the thread's current domain, [trace] to the
   thread's trace id. *)
let flight_event t ?udi ?trace ?(arg = 0) kind =
  let tid = cur_tid () in
  match Hashtbl.find t.threads tid with
  | exception Not_found ->
      let udi = match udi with Some u -> u | None -> root_udi in
      let trace = match trace with Some id -> id | None -> 0 in
      record_event t ~udi ~tid ~trace ~arg kind
  | ts ->
      let udi = match udi with Some u -> u | None -> current_udi_of ts in
      let trace = match trace with Some id -> id | None -> ts.trace in
      record_on t ts ~udi ~tid ~trace ~arg kind

(* {1 Monitor bookkeeping blocks}

   Domain records and saved contexts live in the monitor data domain, so
   they are real (protected, RSS-visible) memory. *)

let meta_block_size = 64
let ctx_block_size = 64

let write_meta t inst =
  let a = inst.meta_addr in
  Space.store64 t.space a inst.udi;
  Space.store64 t.space (a + 8) inst.tid;
  Space.store64 t.space (a + 16) inst.pkey;
  Space.store64 t.space (a + 24) inst.stack_base;
  Space.store64 t.space (a + 32) inst.stack_len;
  Space.store64 t.space (a + 40) inst.parent

let save_context t ts inst =
  charge t.cost.context_save;
  let a = Tlsf.malloc t.monitor_heap ctx_block_size in
  inst.ctx_addr <- a;
  Space.store64 t.space a inst.frame;
  Space.store64 t.space (a + 8) inst.udi;
  Space.store64 t.space (a + 16) ts.root_sp;
  Space.store64 t.space (a + 24) ts.t_tid

let drop_context t inst =
  if inst.ctx_addr <> 0 then begin
    Tlsf.free t.monitor_heap inst.ctx_addr;
    inst.ctx_addr <- 0
  end

(* {1 Stacks} *)

(* Give [inst] a stack of at least [len] bytes under [pkey]: the most
   recently pooled area that fits, else a new mapping. *)
let take_stack t inst ~len ~pkey =
  let pool = t.stack_pool in
  let i = ref (if t.stack_reuse then t.pooled - 1 else -1) in
  while !i >= 0 && pool.((2 * !i) + 1) < len do
    decr i
  done;
  if !i >= 0 then begin
    let base = pool.(2 * !i) and l = pool.((2 * !i) + 1) in
    Array.blit pool (2 * (!i + 1)) pool (2 * !i) (2 * (t.pooled - !i - 1));
    t.pooled <- t.pooled - 1;
    Space.pkey_mprotect t.space ~addr:base ~len:l ~prot:Prot.rw ~pkey;
    if Space.sanitizer_enabled t.space then
      Space.unpoison t.space ~addr:base ~len:l;
    inst.stack_base <- base;
    inst.stack_len <- l
  end
  else begin
    inst.stack_base <- Space.mmap t.space ~len ~prot:Prot.rw ~pkey;
    inst.stack_len <- len
  end;
  inst.sp <- inst.stack_base + inst.stack_len

let release_stack t ~base ~len =
  if t.stack_reuse then begin
    (* Keep the area for reuse but seal it with the monitor's key so stale
       pointers into a dead domain's stack fault. *)
    Space.pkey_mprotect t.space ~addr:base ~len ~prot:Prot.rw
      ~pkey:t.monitor_pkey;
    (* A pooled stack stays mapped; poison it so even monitor-privileged
       stale pointers into the dead domain's frames are detected until
       the area is reissued ({!take_stack} unpoisons). *)
    if Space.sanitizer_enabled t.space then
      Space.poison t.space ~addr:base ~len;
    if 2 * (t.pooled + 1) > Array.length t.stack_pool then begin
      let g = Array.make (Int.max 16 (2 * Array.length t.stack_pool)) 0 in
      Array.blit t.stack_pool 0 g 0 (2 * t.pooled);
      t.stack_pool <- g
    end;
    t.stack_pool.(2 * t.pooled) <- base;
    t.stack_pool.((2 * t.pooled) + 1) <- len;
    t.pooled <- t.pooled + 1
  end
  else Space.munmap t.space base

(* {1 Instance lookup helpers} *)

let find_inst ts udi = By_udi.find ts.insts udi
let mem_inst ts udi = By_udi.mem ts.insts udi

(* [inst] is still the thread's instance of its udi. A frame whose
   domain was destroyed and initialized again under the same udi must
   leave the new instance alone. *)
let is_live ts inst =
  match find_inst ts inst.udi with
  | i -> i == inst
  | exception Not_found -> false

let get_exec t ts udi =
  match find_inst ts udi with
  | inst -> inst
  | exception Not_found ->
      err (if By_udi.mem t.datas udi then Wrong_kind else Unknown_domain)

let iter_insts t f = Hashtbl.iter (fun _ ts -> By_udi.iter f ts.insts) t.threads

(* {1 Protection-key virtualization (libmpk-style, §IV-B)}

   With [virtual_keys] enabled, running out of the 15 hardware keys parks
   a dormant domain instead of failing: its pages are made PROT_NONE (a
   real mprotect walk — the "much slower" fallback the paper attributes
   to libmpk) and its key is recycled. The instance is unparked — given a
   key again and re-protected — when it is re-initialized. *)

let park_instance t inst =
  List.iter
    (fun r ->
      let len = Space.mapped_len t.space r in
      if len > 0 then Space.mprotect t.space ~addr:r ~len ~prot:Prot.none)
    inst.heap_regions;
  Space.mprotect t.space ~addr:inst.stack_base ~len:inst.stack_len
    ~prot:Prot.none;
  Space.pkey_free t.space inst.pkey;
  release_key t inst.pkey;
  inst.pkey <- -1;
  Telemetry.Metrics.inc t.c_key_evictions

(* Every instance is stamped when it is created and again at each entry
   and re-initialization, so no two share a [last_used] and the victim
   does not depend on the order of the walk. *)
let lru_dormant t =
  let victim = ref None in
  iter_insts t (fun inst ->
      if inst.state = Dormant && inst.pkey >= 0 then
        match !victim with
        | Some b when b.last_used <= inst.last_used -> ()
        | _ -> victim := Some inst);
  !victim

let acquire_pkey t =
  match Space.pkey_alloc t.space with
  | Some k -> k
  | None ->
      if not t.virtual_keys then err Out_of_pkeys
      else begin
        (* Evict the least recently used dormant instance. *)
        match lru_dormant t with
        | None -> err Out_of_pkeys
        | Some v ->
            Log.debug (fun m ->
                m "key pressure: parking dormant domain %d (tid %d)" v.udi v.tid);
            park_instance t v;
            (match Space.pkey_alloc t.space with
            | Some k -> k
            | None -> err Out_of_pkeys)
      end

let unpark_instance t inst =
  if inst.pkey < 0 then begin
    let k = acquire_pkey t in
    inst.pkey <- k;
    hold_key t k;
    List.iter
      (fun r ->
        let len = Space.mapped_len t.space r in
        if len > 0 then
          Space.pkey_mprotect t.space ~addr:r ~len ~prot:Prot.rw ~pkey:k)
      inst.heap_regions;
    Space.pkey_mprotect t.space ~addr:inst.stack_base ~len:inst.stack_len
      ~prot:Prot.rw ~pkey:k
  end

let touch_key t inst =
  t.key_clock <- t.key_clock + 1;
  inst.last_used <- t.key_clock

(* {1 Sub-heaps} *)

(* A discarded instance's heap, emptied, or a new one. *)
let fresh_heap t udi =
  match Hashtbl.find t.spare_heaps udi with
  | h when h != t.root_heap ->
      Hashtbl.replace t.spare_heaps udi t.root_heap;
      Tlsf.reset h;
      h
  | _ | (exception Not_found) ->
      Tlsf.create t.space ~name:(Printf.sprintf "udi%d" udi)

let inst_heap t inst =
  match inst.heap with
  | Some h -> h
  | None ->
      let h = fresh_heap t inst.udi in
      if t.sanitizer then Tlsf.set_sanitize h true;
      let len = max inst.opts.heap_size Tlsf.min_region_len in
      let region = Space.mmap t.space ~len ~prot:Prot.rw ~pkey:inst.pkey in
      Tlsf.add_region h ~addr:region ~len;
      inst.heap_regions <- region :: inst.heap_regions;
      inst.heap <- Some h;
      h

(* The current domain's heap, made on first use, and the bookkeeping of
   a region joining it. *)
let current_heap t ts =
  match ts.entered with [] -> t.root_heap | inst :: _ -> inst_heap t inst

let track_current_region t ts r =
  match ts.entered with
  | [] -> t.root_heap_regions <- r :: t.root_heap_regions
  | inst :: _ -> inst.heap_regions <- r :: inst.heap_regions

(* {1 Core life cycle} *)

let fresh_frame t =
  t.frame_counter <- t.frame_counter + 1;
  t.frame_counter

(* Cheap monitor-init-time policy assertion behind [verify_policy]: every
   live domain holds a key of its own, distinct from the monitor's and the
   root's, and the deny mask [compute_pkru] starts from covers exactly
   the keys execution domains hold. The full static verifier (stack/heap
   visibility, gate buffers, hooks, reachability) lives in [lib/analysis]
   and runs offline or at server setup. *)
let assert_policy t =
  if t.verify_policy then begin
    let seen = Hashtbl.create 16 in
    let claim what udi pkey =
      if pkey >= 0 then begin
        let who = Printf.sprintf "%s %d" what udi in
        if pkey = t.monitor_pkey || pkey = t.root_pkey then
          failwith
            (Printf.sprintf "sdrad: policy violation: %s holds reserved key %d"
               who pkey);
        match Hashtbl.find_opt seen pkey with
        | Some other ->
            failwith
              (Printf.sprintf "sdrad: policy violation: %s and %s share key %d"
                 other who pkey)
        | None -> Hashtbl.replace seen pkey who
      end
    in
    let held = ref Pkru.all_access in
    iter_insts t (fun i ->
        claim "domain" i.udi i.pkey;
        if i.pkey >= 0 then held := Pkru.deny !held ~key:i.pkey);
    By_udi.iter (fun d -> claim "data domain" d.d_udi d.d_pkey) t.datas;
    if !held <> t.exec_keys then
      failwith
        (Printf.sprintf
           "sdrad: policy violation: deny mask %x, execution domains hold %x"
           t.exec_keys !held)
  end

(* The entered stack, pushed without consing. Entering requires the
   parent to be current, so the chain below an instance is the same at
   each of its entries and the cell made at the first one is reused. *)
let push_entered ts inst =
  (match inst.entry with
  | _ :: below when below == ts.entered -> ()
  | _ -> inst.entry <- inst :: ts.entered);
  ts.entered <- inst.entry

(* The monitor section of an initialization: the domain record (for a
   new instance), the saved context, and the new policy. *)
let establish t ts inst ~fresh =
  let was = enter_monitor t ts in
  match
    if fresh then begin
      inst.meta_addr <- Tlsf.malloc t.monitor_heap meta_block_size;
      write_meta t inst
    end;
    save_context t ts inst;
    ts.cur_pkru <- compute_pkru t ts
  with
  | () -> leave_monitor t ts was
  | exception e ->
      leave_monitor t ts was;
      raise e

let reinit t ts inst opts =
  if inst.parent <> current_udi_of ts then err Not_a_child;
  unpark_instance t inst;
  touch_key t inst;
  if opts.stack_size = inst.opts.stack_size then inst.opts <- opts
  else inst.opts <- { opts with stack_size = inst.opts.stack_size };
  inst.state <- Ready;
  inst.frame <- fresh_frame t;
  establish t ts inst ~fresh:false

let create_instance t ts udi opts =
  let pkey = acquire_pkey t in
  let inst =
    {
      udi;
      tid = ts.t_tid;
      opts;
      parent = current_udi_of ts;
      pkey;
      state = Ready;
      stack_base = 0;
      stack_len = 0;
      sp = 0;
      heap = None;
      heap_regions = [];
      frame = 0;
      ctx_addr = 0;
      meta_addr = 0;
      last_used = 0;
      cleanups = [];
      entry = [];
    }
  in
  take_stack t inst ~len:opts.stack_size ~pkey;
  inst.frame <- fresh_frame t;
  hold_key t pkey;
  (* The LRU stamp of a new instance (see [lru_dormant]). *)
  touch_key t inst;
  By_udi.add ts.insts inst;
  establish t ts inst ~fresh:true;
  inst

(* Sanctioned (the monitor's own mmap and pkey calls), with the
   [sanctioned] bracket open-coded: a warm re-init builds no closure. *)
let init_exec t ts udi opts =
  let was = t.in_monitor in
  t.in_monitor <- true;
  match
    if udi = root_udi then err Root_operation;
    if By_udi.mem t.datas udi then err Wrong_kind;
    match find_inst ts udi with
    | exception Not_found -> create_instance t ts udi opts
    | inst -> (
        match inst.state with
        | Dormant ->
            reinit t ts inst opts;
            inst
        | Ready | Entered -> err Already_initialized)
  with
  | inst ->
      t.in_monitor <- was;
      Telemetry.Metrics.inc t.c_inits;
      assert_policy t;
      inst
  | exception e ->
      t.in_monitor <- was;
      raise e

let mentions udi b = b.gb_caller = udi || b.gb_callee = udi

let rec any_mention udi = function
  | [] -> false
  | b :: rest -> mentions udi b || any_mention udi rest

let rec without udi = function
  | [] -> []
  | b :: rest ->
      if mentions udi b then without udi rest else b :: without udi rest

(* Drop cached marshalling buffers referencing a domain about to lose its
   heap (callee side) or to stop calling (caller side). The allocations
   themselves go away with the callee's regions; no free needed. Exec
   instances are per-thread, so their discard forgets only [ts]'s
   entries and leaves the other threads' caches (whose instances — and
   heaps — survive) alone; a data-domain destroy is global and purges
   every thread's entries. The list is rebuilt only when it names
   [udi], so a discard that forgets nothing allocates nothing. *)
let forget_gate_buffers ts udi =
  if any_mention udi ts.gate_bufs then ts.gate_bufs <- without udi ts.gate_bufs

(* The discard's walks over a domain's heap regions, as top-level loops
   so that a discard builds no closure. *)
let rec scrub_regions t = function
  | [] -> ()
  | r :: rest ->
      let len = Space.mapped_len t.space r in
      if len > 0 then Space.fill t.space ~addr:r ~len '\000';
      scrub_regions t rest

let rec poison_regions t = function
  | [] -> ()
  | r :: rest ->
      let len = Space.mapped_len t.space r in
      if len > 0 then Space.poison t.space ~addr:r ~len;
      poison_regions t rest

let rec unmap_regions t = function
  | [] -> ()
  | r :: rest ->
      Space.munmap t.space r;
      unmap_regions t rest

let scrub_pages t inst =
  scrub_regions t inst.heap_regions;
  Space.fill t.space ~addr:inst.stack_base ~len:inst.stack_len '\000'

(* The scrub sweeps whole regions, redzones and freed blocks included;
   it must not trip the poison scan it co-exists with. *)
let scrub t inst =
  if not (Space.sanitizer_enabled t.space) then scrub_pages t inst
  else begin
    let was = Space.begin_bypass t.space in
    match scrub_pages t inst with
    | () -> Space.end_bypass t.space was
    | exception e ->
        Space.end_bypass t.space was;
        raise e
  end

(* Fully remove an instance's memory and identity (used by destroy with
   [`Discard] and by abnormal exits: "subheaps are never merged back after
   abnormal exits, as the data must be considered corrupted"). *)
let discard_instance t ts inst =
  if inst.opts.scrub_on_discard then scrub t inst;
  (* Poison-on-discard: mark everything the domain could address poisoned
     before the mappings go away, so any access racing the teardown — and
     pooled-stack ghosts until reissue — is a detected POISON fault, not a
     silent read. A later mmap over the same range clears the marks. *)
  if t.sanitizer then begin
    poison_regions t inst.heap_regions;
    Space.poison t.space ~addr:inst.stack_base ~len:inst.stack_len
  end;
  unmap_regions t inst.heap_regions;
  inst.heap_regions <- [];
  (match inst.heap with
  | Some h -> Hashtbl.replace t.spare_heaps inst.udi h
  | None -> ());
  inst.heap <- None;
  release_stack t ~base:inst.stack_base ~len:inst.stack_len;
  drop_context t inst;
  if inst.meta_addr <> 0 then begin
    Tlsf.free t.monitor_heap inst.meta_addr;
    inst.meta_addr <- 0
  end;
  if inst.pkey >= 0 then begin
    Space.pkey_free t.space inst.pkey;
    release_key t inst.pkey
  end;
  forget_gate_buffers ts inst.udi;
  By_udi.remove ts.insts inst.udi

(* {1 Subtrees}

   A domain's children cannot outlive it: whether the parent is rewound,
   destroyed, or torn down by a foreign exception, every initialized
   descendant — entered or not — goes with it. Post-order (deepest
   first, children in udi order for determinism), so a subtree is always
   discarded bottom-up. *)

let run_cleanups inst =
  let fs = inst.cleanups in
  inst.cleanups <- [];
  List.iter (fun f -> f ()) fs

(* {2 Victims}

   A discard stages its victims in [t.victims] from a base, the
   [n_victims] it found, and unstages them back to that base on every
   exit. A discard nested in a cleanup stages above the one it
   interrupts and unstages back to it, so neither sees the other's
   victims. The array is read afresh at each step, since a nested
   discard may grow it. *)

(* The vacated slots hold [no_inst]: the array keeps no discarded
   domain reachable. *)
let unstage_victims t base =
  for i = base to t.n_victims - 1 do
    Array.unsafe_set t.victims i no_inst
  done;
  t.n_victims <- base

let victim t i = Array.unsafe_get t.victims i

let push_victim t inst =
  let n = t.n_victims in
  if n = Array.length t.victims then begin
    let g = Array.make (Int.max 8 (2 * n)) no_inst in
    Array.blit t.victims 0 g 0 n;
    t.victims <- g
  end;
  Array.unsafe_set t.victims n inst;
  t.n_victims <- n + 1

(* [x] is [inst], or a domain of the entered stack from [chain] up to
   [stop]: a domain of a rewind's chain, which it stages itself. *)
let rec in_chain x inst chain stop =
  x == inst
  || chain != stop
     &&
     match chain with
     | e :: rest -> e == x || in_chain x inst rest stop
     | [] -> false

(* Stage every initialized descendant of [u] outside the chain,
   post-order: children in udi order, each after its own subtree. *)
let rec stage_descendants t ts u inst chain stop =
  let insts = ts.insts in
  for i = 0 to insts.len - 1 do
    let d = insts.items.(i) in
    if d.parent = u && not (in_chain d inst chain stop) then begin
      stage_descendants t ts d.udi inst chain stop;
      push_victim t d
    end
  done

(* Stage [inst]'s subtree, [inst] last. *)
let stage_subtree t ts inst =
  stage_descendants t ts inst.udi no_inst [] [];
  push_victim t inst

(* The rewind paths' event: built only when an observer is installed. *)
let race_rewind t ts base =
  match t.race_observer with
  | Some f ->
      let victims =
        List.init (t.n_victims - base) (fun i -> (victim t (base + i)).udi)
      in
      f (Rv_rewind { tid = ts.t_tid; victims })
  | None -> ()

(* The audit-log view of the domains about to be discarded, staged in
   the monitor's draft while everything is still mapped. Top-level
   loops, so staging builds no closure. *)
let rec draft_regions t = function
  | [] -> ()
  | r :: rest ->
      Rewind_log.draft_region t.draft ~addr:r ~len:(Space.mapped_len t.space r);
      draft_regions t rest

let draft_extents t base =
  for i = base to t.n_victims - 1 do
    let inst = victim t i in
    Rewind_log.draft_domain t.draft ~udi:inst.udi
      ~was:
        (match inst.state with
        | Entered -> `Entered
        | Ready -> `Ready
        | Dormant -> `Dormant)
      ~stack_base:inst.stack_base ~stack_len:inst.stack_len;
    draft_regions t inst.heap_regions
  done

let draft_flight t base =
  for i = base to t.n_victims - 1 do
    Rewind_log.draft_events t.draft t.flight ~udi:(victim t i).udi
      ~n:flight_snap
  done

(* A trigger's audit fields; the strings are constants. *)
let audit_kind = function
  | Segv _ -> `Segv
  | Stack_smash -> `Stack_smash
  | Explicit _ -> `Explicit

let audit_si = function
  | Segv { code; _ } -> Space.si_code_name code
  | Stack_smash | Explicit _ -> "-"

let audit_addr = function Segv { addr; _ } -> addr | Stack_smash | Explicit _ -> 0

let audit_msg = function
  | Segv { access; _ } -> Space.access_name access
  | Stack_smash -> ""
  | Explicit msg -> msg

let journal_replays t =
  List.fold_left (fun acc probe -> acc + probe ()) 0 t.journal_probes

(* Phase 3: the incident joins the audit log. *)
let commit_audit t ~at =
  Rewind_log.commit t.audit ~at ~journal_replays:(journal_replays t)

(* Phase 1 — intent, shared by a rewind, the collateral teardown under a
   grandparent rewind (~continue:true) and a refused merge. A fresh
   incident first commits a stale in-flight one (a grandparent rewind
   whose outer frame never ran), so the log cannot wedge, and records its
   trigger so the flight excerpt frozen below ends on it. The victims
   are those staged from [base]; [at] is in whole cycles. *)
let begin_audit t ts ~continue ~target ~cause ~at base =
  let fault_addr = audit_addr cause in
  if not continue then begin
    if Rewind_log.pending t.audit then commit_audit t ~at;
    Flight.record t.flight ~udi:target ~tid:ts.t_tid ~at ~trace:ts.trace
      ~arg:fault_addr Flight.Fault
  end;
  Rewind_log.draft_clear t.draft;
  draft_extents t base;
  draft_flight t base;
  Rewind_log.begin_incident t.audit ~continue ~target ~tid:ts.t_tid
    ~kind:(audit_kind cause) ~si:(audit_si cause) ~fault_addr
    ~msg:(audit_msg cause) ~at t.draft

(* The two accounted steps of every switch, in and out. The spans — and
   their closures — exist only while the tracer is on; the charges are
   the same either way. *)
let switch_steps t ts =
  if Telemetry.Trace.enabled t.tracer then begin
    Telemetry.Trace.with_span t.tracer "switch.stack_swap" (fun () ->
        charge t.cost.stack_switch);
    Telemetry.Trace.with_span t.tracer "switch.bookkeeping" (fun () ->
        charge t.cost.switch_work;
        ts.cur_pkru <- compute_pkru t ts)
  end
  else begin
    charge t.cost.stack_switch;
    charge t.cost.switch_work;
    ts.cur_pkru <- compute_pkru t ts
  end

(* The gates below open-code the [with_monitor] bracket (same restore on
   every exit) so that a switch builds no closure. *)
let switch_in t ts inst udi =
  let was = enter_monitor t ts in
  (match
     inst.state <- Entered;
     inst.sp <- inst.stack_base + inst.stack_len;
     push_entered ts inst;
     switch_steps t ts;
     record_event t ~udi ~tid:ts.t_tid ~trace:ts.trace ~arg:0 Flight.Switch_in
   with
  | () -> leave_monitor t ts was
  | exception e ->
      leave_monitor t ts was;
      raise e);
  (* Push the return address of the call gate onto the new stack — done
     after the policy switch, with the domain's own rights. *)
  inst.sp <- inst.sp - 16;
  Space.store64 t.space inst.sp inst.frame

let switch_out t ts inst rest =
  let was = enter_monitor t ts in
  match
    ts.entered <- rest;
    inst.state <- Ready;
    switch_steps t ts;
    record_event t ~udi:inst.udi ~tid:ts.t_tid ~trace:ts.trace ~arg:0
      Flight.Switch_out
  with
  | () -> leave_monitor t ts was
  | exception e ->
      leave_monitor t ts was;
      raise e

let enter t udi =
  let ts = thread_state t in
  let inst = get_exec t ts udi in
  (match inst.state with
  | Ready -> ()
  | Dormant -> err Not_initialized
  | Entered -> err Already_initialized);
  if inst.parent <> current_udi_of ts then err Not_a_child;
  if inst.frame = 0 then err Not_initialized;
  touch_key t inst;
  if Telemetry.Trace.enabled t.tracer then
    Telemetry.Trace.with_span t.tracer "switch.enter"
      ~args:[ ("udi", string_of_int udi) ]
      (fun () -> switch_in t ts inst udi)
  else switch_in t ts inst udi;
  (match t.race_observer with
  | Some f -> f (Types.Rv_domain { tid = ts.t_tid; udi; enter = true })
  | None -> ());
  Telemetry.Metrics.inc t.c_enters;
  if ts.gate_depth > 0 then Telemetry.Metrics.inc t.c_gate_batched

let exit_domain t =
  let ts = thread_state t in
  match ts.entered with
  | [] -> err Not_entered
  | inst :: rest ->
      if Telemetry.Trace.enabled t.tracer then
        Telemetry.Trace.with_span t.tracer "switch.exit"
          ~args:[ ("udi", string_of_int inst.udi) ]
          (fun () -> switch_out t ts inst rest)
      else switch_out t ts inst rest;
      (match t.race_observer with
      | Some f ->
          f (Types.Rv_domain { tid = ts.t_tid; udi = inst.udi; enter = false })
      | None -> ());
      Telemetry.Metrics.inc t.c_exits

let current t =
  let ts = thread_state t in
  current_udi_of ts

let deinit t udi =
  let ts = thread_state t in
  let inst = get_exec t ts udi in
  (match inst.state with
  | Entered -> err Domain_entered
  | Dormant -> err Not_initialized
  | Ready -> ());
  let was = enter_monitor t ts in
  match
    drop_context t inst;
    inst.frame <- 0;
    inst.state <- Dormant
  with
  | () -> leave_monitor t ts was
  | exception e ->
      leave_monitor t ts was;
      raise e

(* Hand [regions] and the blocks of [from] to the current domain:
   re-key the regions to it, record them with it, and merge [from] into
   its heap. *)
let merge_into_current t ts regions ~from =
  let target = current_heap t ts in
  let pkey = match ts.entered with [] -> t.root_pkey | inst :: _ -> inst.pkey in
  List.iter
    (fun r ->
      (let len = Space.mapped_len t.space r in
       if len > 0 then
         Space.pkey_mprotect t.space ~addr:r ~len ~prot:Prot.rw ~pkey);
      track_current_region t ts r)
    regions;
  Tlsf.merge target ~from

let merge_refusal = "corrupted sub-heap discarded instead of merged"

let destroy t udi ~heap =
  let ts = thread_state t in
  match By_udi.find t.datas udi with
  | dd ->
      with_monitor t ts (fun () ->
          (match heap with
          | `Discard -> List.iter (fun r -> Space.munmap t.space r) dd.d_regions
          | `Merge -> merge_into_current t ts dd.d_regions ~from:dd.d_heap);
          Tlsf.free t.monitor_heap dd.d_meta_addr;
          Space.pkey_free t.space dd.d_pkey;
          Hashtbl.iter (fun _ ts -> forget_gate_buffers ts udi) t.threads;
          By_udi.remove t.datas udi;
          ts.cur_pkru <- compute_pkru t ts);
      race_emit t (Types.Rv_unshared { udi; pkey = dd.d_pkey });
      Telemetry.Metrics.inc t.c_destroys
  | exception Not_found ->
      let inst = get_exec t ts udi in
      if inst.state = Entered then err Domain_entered;
      if inst.parent <> current_udi_of ts then err Not_a_child;
      let merge_refused = ref false in
      with_monitor t ts (fun () ->
          (* The destroyed domain takes its whole subtree with it. The
             descendants' abnormal cleanups run (their teardown is
             involuntary, and rewind-aware resources such as Dlock must be
             poison-released, not leaked); [inst]'s own cleanups do not —
             an explicit destroy is a normal exit. *)
          let base = t.n_victims in
          (match
             stage_descendants t ts udi no_inst [] [];
             for i = base to t.n_victims - 1 do
               let d = victim t i in
               run_cleanups d;
               discard_instance t ts d
             done
           with
          | () -> unstage_victims t base
          | exception e ->
              unstage_victims t base;
              raise e);
          (match heap with
          | `Discard -> ()
          | `Merge -> (
              if inst.opts.access <> Accessible then err Not_accessible;
              match inst.heap with
              | None -> inst.heap_regions <- []
              | Some child_heap ->
                  (* A normal exit is no proof of integrity: an overflow
                     that stayed inside the sub-heap would poison the
                     parent's allocator through the merge. Walk the child
                     heap first; refuse (and discard) if it is damaged. *)
                  if Tlsf.check child_heap <> [] then begin
                    Log.warn (fun m ->
                        m "refusing to merge corrupted sub-heap of domain %d" udi);
                    merge_refused := true
                  end
                  else begin
                    merge_into_current t ts inst.heap_regions ~from:child_heap;
                    inst.heap_regions <- [];
                    inst.heap <- None
                  end));
          (* A refused merge discards the domain because its heap is
             corrupt: an incident, audited like a rewind. *)
          let audited =
            !merge_refused
            &&
            let base = t.n_victims in
            push_victim t inst;
            match
              begin_audit t ts ~continue:false ~target:udi
                ~cause:(Explicit merge_refusal) ~at:(int_of_float (now ())) base
            with
            | audited ->
                unstage_victims t base;
                audited
            | exception e ->
                unstage_victims t base;
                raise e
          in
          discard_instance t ts inst;
          if audited then commit_audit t ~at:(int_of_float (now ()));
          ts.cur_pkru <- compute_pkru t ts);
      Telemetry.Metrics.inc t.c_destroys;
      if !merge_refused then
        report_incident t
          {
            failed_udi = udi;
            cause = Explicit merge_refusal;
            tid = ts.t_tid;
            at = now ();
          }

(* {1 Data domains} *)

let init_data t ~udi ?heap_size () =
  sanctioned t @@ fun () ->
  if udi = root_udi then err Root_operation;
  let ts = thread_state t in
  if By_udi.mem t.datas udi then err Already_initialized;
  if mem_inst ts udi then err Wrong_kind;
  let heap_size = Option.value heap_size ~default:t.default_heap_size in
  let pkey =
    match Space.pkey_alloc t.space with Some k -> k | None -> err Out_of_pkeys
  in
  let len = max heap_size Tlsf.min_region_len in
  let region = Space.mmap t.space ~len ~prot:Prot.rw ~pkey in
  let h = Tlsf.create t.space ~name:(Printf.sprintf "data%d" udi) in
  if t.sanitizer then Tlsf.set_sanitize h true;
  Tlsf.add_region h ~addr:region ~len;
  let perms = Hashtbl.create 4 in
  (* The creating domain gets read-write access by default so it can
     populate the data domain. *)
  Hashtbl.replace perms (current_udi_of ts) Prot.rw;
  with_monitor t ts (fun () ->
      let meta = Tlsf.malloc t.monitor_heap meta_block_size in
      Space.store64 t.space meta udi;
      Space.store64 t.space (meta + 8) pkey;
      By_udi.add t.datas
        {
          d_udi = udi;
          d_pkey = pkey;
          d_heap = h;
          d_regions = [ region ];
          d_perms = perms;
          d_meta_addr = meta;
        };
      ts.cur_pkru <- compute_pkru t ts);
  race_emit t (Types.Rv_shared { udi; pkey });
  assert_policy t

let dprotect t ~udi ~tddi prot =
  let ts = thread_state t in
  match By_udi.find t.datas tddi with
  | exception Not_found ->
      err (if mem_inst ts tddi then Wrong_kind else Unknown_domain)
  | dd ->
      with_monitor t ts (fun () ->
          if prot = 0 then Hashtbl.remove dd.d_perms udi
          else Hashtbl.replace dd.d_perms udi prot;
          ts.cur_pkru <- compute_pkru t ts)

(* {1 Memory management} *)

(* The three calls below name a heap by udi: the current domain's, an
   accessible child's, or a data domain's the current domain may write.
   [check_heap] raises the access error before any monitor bracket
   opens; inside it, [target_heap] finds the heap again, making a
   domain's on first use. Neither builds a value to carry the target
   from one to the other. *)

let check_heap t ts udi =
  let cur = current_udi_of ts in
  if udi <> cur then
    match By_udi.find t.datas udi with
    | dd -> if not (Prot.has (data_perm dd cur) Prot.write) then err Not_accessible
    | exception Not_found -> (
        match find_inst ts udi with
        | exception Not_found -> err Unknown_domain
        | inst ->
            if inst.parent <> cur then err Not_a_child;
            if inst.opts.access <> Accessible then err Not_accessible)

let target_heap t ts udi =
  if udi = current_udi_of ts then current_heap t ts
  else
    match By_udi.find t.datas udi with
    | dd -> dd.d_heap
    | exception Not_found -> inst_heap t (find_inst ts udi)

(* [heap], [udi]'s, has no block for [size]: map a region of the
   owner's pool size (at least [size] plus headers) under the owner's
   key and record it with the owner. *)
let grow_heap t ts udi heap size =
  let add ~pkey ~pool =
    let len = max pool (size + (2 * Tlsf.block_overhead) + 64) in
    let region = Space.mmap t.space ~len ~prot:Prot.rw ~pkey in
    Tlsf.add_region heap ~addr:region ~len;
    region
  in
  if udi = current_udi_of ts then
    match ts.entered with
    | [] ->
        let r = add ~pkey:t.root_pkey ~pool:t.default_heap_size in
        t.root_heap_regions <- r :: t.root_heap_regions
    | inst :: _ ->
        let r = add ~pkey:inst.pkey ~pool:inst.opts.heap_size in
        inst.heap_regions <- r :: inst.heap_regions
  else
    match By_udi.find t.datas udi with
    | dd ->
        let r = add ~pkey:dd.d_pkey ~pool:t.default_heap_size in
        dd.d_regions <- r :: dd.d_regions
    | exception Not_found ->
        let inst = find_inst ts udi in
        let r = add ~pkey:inst.pkey ~pool:inst.opts.heap_size in
        inst.heap_regions <- r :: inst.heap_regions

let malloc_in t ts udi size =
  let heap = target_heap t ts udi in
  match Tlsf.malloc heap size with
  | p -> p
  | exception Tlsf.Out_of_memory ->
      grow_heap t ts udi heap size;
      Tlsf.malloc heap size

let malloc t ~udi size =
  let ts = thread_state t in
  check_heap t ts udi;
  let was = enter_monitor t ts in
  let addr =
    match
      (* Under the sanitizer every allocation (un)poisons redzones — a
         forensically interesting act, so it lands in the flight ring. *)
      if t.sanitizer then
        record_event t ~udi ~tid:ts.t_tid ~trace:ts.trace ~arg:size
          Flight.Alloc_poison;
      malloc_in t ts udi size
    with
    | addr ->
        leave_monitor t ts was;
        addr
    | exception e ->
        leave_monitor t ts was;
        raise e
  in
  (* Reuse boundary for shadow-cell observers: the block's previous
     occupant's access history must not leak onto the new one. *)
  (match t.race_observer with
  | Some f -> f (Types.Rv_alloc { udi; addr; len = size })
  | None -> ());
  addr

let free t ~udi addr =
  let ts = thread_state t in
  check_heap t ts udi;
  let was = enter_monitor t ts in
  (match Tlsf.free (target_heap t ts udi) addr with
  | () -> leave_monitor t ts was
  | exception e ->
      leave_monitor t ts was;
      raise e);
  match t.race_observer with
  | Some f -> f (Types.Rv_free { udi; addr })
  | None -> ()

let usable_size t ~udi addr =
  let ts = thread_state t in
  check_heap t ts udi;
  Tlsf.usable_size (target_heap t ts udi) addr

(* {1 Batched gates}

   A server loop that dispatches several consecutive requests to nested
   domains can open a gate once, run the whole batch, and close it: while
   the gate is open and the thread sits in its home root context, the
   monitor view stays installed between API calls, so all the per-request
   monitor bookkeeping (admit events, init, marshalling, deinit) costs
   zero WRPKRU writes. Compartment entry/exit still installs the
   compartment policy, so isolation — and everything the flight recorder
   and supervisor see — is identical to the unbatched path. *)

let open_gate t =
  let ts = thread_state t in
  ts.gate_depth <- ts.gate_depth + 1;
  if ts.gate_depth = 1 && ts.monitor_depth = 0 && in_root ts then
    install_pkru t (monitor_view t ts)

let close_gate t =
  let ts = thread_state t in
  if ts.gate_depth = 0 then invalid_arg "Api.close_gate: no gate open";
  ts.gate_depth <- ts.gate_depth - 1;
  if ts.gate_depth = 0 && ts.monitor_depth = 0 && in_root ts then
    install_pkru t ts.cur_pkru

let with_gate t f =
  open_gate t;
  match f () with
  | v ->
      close_gate t;
      v
  | exception e ->
      close_gate t;
      raise e

let gate_open t = (thread_state t).gate_depth > 0

(* Cached per-(caller, callee) argument-marshalling buffer in the
   callee's heap. Persistent-domain pattern (Figure 3): the callee's heap
   survives [deinit], so the buffer is reused across requests instead of
   a malloc/free pair per call; it is forgotten when the callee is
   discarded or destroyed. The cache is the calling thread's, searched
   field by field. *)
let rec find_gate_buf bufs ~caller ~callee ~slot =
  match bufs with
  | [] -> raise Not_found
  | b :: rest ->
      if b.gb_caller = caller && b.gb_callee = callee && b.gb_slot = slot then b
      else find_gate_buf rest ~caller ~callee ~slot

let gate_buffer t ?(slot = 0) ~udi size =
  let ts = thread_state t in
  let caller = current_udi_of ts in
  match find_gate_buf ts.gate_bufs ~caller ~callee:udi ~slot with
  | b when b.gb_cap >= size -> b.gb_addr
  | b ->
      free t ~udi b.gb_addr;
      let addr = malloc t ~udi size in
      b.gb_addr <- addr;
      b.gb_cap <- size;
      addr
  | exception Not_found ->
      let addr = malloc t ~udi size in
      ts.gate_bufs <-
        { gb_caller = caller; gb_callee = udi; gb_slot = slot; gb_addr = addr;
          gb_cap = size }
        :: ts.gate_bufs;
      addr

(* {1 Stack frames} *)

let cur_sp ts =
  match ts.entered with [] -> ts.root_sp | inst :: _ -> inst.sp

let set_cur_sp ts v =
  match ts.entered with [] -> ts.root_sp <- v | inst :: _ -> inst.sp <- v

let stack_floor ts =
  match ts.entered with
  | [] -> ts.root_stack_base
  | inst :: _ -> inst.stack_base

let alloca t n =
  if n < 0 then invalid_arg "alloca";
  let ts = thread_state t in
  let sp = (cur_sp ts - n) land lnot 15 in
  if sp < stack_floor ts then
    (* Stack exhaustion touches the guard page below the stack area, which
       is how a real overflow manifests: a SEGV the rewind machinery can
       recover from. *)
    Space.store8 t.space (stack_floor ts - 1) 0;
  set_cur_sp ts sp;
  sp

let with_stack_frame t n f =
  let ts = thread_state t in
  let sp0 = cur_sp ts in
  let buf = alloca t (n + 8) in
  Space.store64 t.space (buf + n) t.canary_value;
  match f buf with
  | v ->
      let intact = Space.load64 t.space (buf + n) = t.canary_value in
      set_cur_sp ts sp0;
      if not intact then raise Stack_check_failure;
      v
  | exception e ->
      set_cur_sp ts sp0;
      raise e

let abort _t msg = raise (Attack_detected msg)

(* {1 Rewinding} *)

(* Abnormal exit (steps 11–14 of Figure 1): restore the parent's
   privileges, discard the failing domain — and its whole nested subtree,
   entered or not — and roll the thread back to the failing domain's
   initialization point.

   The discard is a two-phase transaction against the durable log in
   monitor memory (INTERNALS §12): (1) write an intent record naming
   every domain and extent about to go, (2) discard bottom-up, advancing
   the intent's progress counter after each domain, (3) commit — stamp
   the record and clear the intent pointer. A fault arriving mid-rewind
   (modelled by [rewind_fault_hook], the [Rewind_interrupt] chaos site)
   re-drives the in-flight discard from the durable progress counter, so
   a partially-rolled-back tree is never observable. *)

exception Rewind_interrupted

(* The failing domain plus everything that must go with it, bottom-up:
   for each domain of the entered chain up to [inst] (innermost first),
   its non-entered descendants, then the domain itself. Also truncates
   [ts.entered] to the surviving suffix. *)
let rec tail_after inst = function
  | [] -> []
  | e :: rest -> if e == inst then rest else tail_after inst rest

let rec stage_chain t ts inst chain stop l =
  if l != stop then
    match l with
    | e :: rest ->
        stage_descendants t ts e.udi inst chain stop;
        push_victim t e;
        stage_chain t ts inst chain stop rest
    | [] -> ()

let stage_rewind_victims t ts inst =
  let chain = ts.entered in
  if List.memq inst chain then begin
    let stop = tail_after inst chain in
    ts.entered <- stop;
    stage_chain t ts inst chain stop chain
  end
  else begin
    stage_descendants t ts inst.udi inst chain chain;
    push_victim t inst
  end

(* A second fault arriving mid-rewind, while the rewind has [budget]
   left to honour. *)
let interrupt_fires t budget =
  match t.rewind_fault_hook with
  | Some hook -> budget > 0 && hook ()
  | None -> false

(* Phase 2: the discard driver over the victims staged from [base].
   Every iteration re-reads the durable progress counter, so after an
   interrupt the loop resumes exactly where the intent record says the
   last completed step was — on hardware this is the trap handler
   re-entering the monitor and finding the in-flight intent. The faults
   honoured per rewind are bounded, so an always-firing chaos rule
   cannot keep the monitor in the discard loop forever. *)
let drive_discards t ts ~audited base =
  let total = t.n_victims - base in
  let local_p = ref 0 and budget = ref (total + 8) in
  let p = ref (if audited then Rewind_log.progress t.audit else 0) in
  while !p < total do
    (try
       if interrupt_fires t !budget then begin
         decr budget;
         Telemetry.Metrics.inc t.c_rewind_interrupts;
         raise Rewind_interrupted
       end;
       let v = victim t (base + !p) in
       (if audited then
          (* Resume cross-check: the live tree must agree with the
             durable intent at every step. *)
          let u = Rewind_log.domain_at t.audit !p in
          assert (u < 0 || u = v.udi));
       run_cleanups v;
       discard_instance t ts v;
       if audited then Rewind_log.mark_discarded t.audit (!p + 1)
       else incr local_p
     with Rewind_interrupted ->
       t.pending_interrupted <- true;
       if audited then Rewind_log.note_interrupt t.audit);
    p := if audited then Rewind_log.progress t.audit else !local_p
  done

(* Phase 1 — intent, then phase 2. A [~record:false] exit is the
   collateral parent level of a grandparent rewind: its subtree chains
   onto the in-flight incident instead of opening a second one. *)
let rewind_discard t ts inst fault ~record ~at =
  let base = t.n_victims in
  match
    stage_rewind_victims t ts inst;
    race_rewind t ts base;
    let audited =
      begin_audit t ts ~continue:(not record) ~target:fault.failed_udi
        ~cause:fault.cause ~at base
    in
    if Telemetry.Trace.enabled t.tracer then
      Telemetry.Trace.with_span t.tracer "rewind.heap_discard" (fun () ->
          drive_discards t ts ~audited base)
    else drive_discards t ts ~audited base
  with
  | () -> unstage_victims t base
  | exception e ->
      unstage_victims t base;
      raise e

(* Phase 3 — commit. A [Grandparent] domain's own exit leaves the
   incident in flight: the collateral exit at the parent level (or,
   failing that, the next incident) completes it. *)
let rewind_commit t inst ~record =
  if (not record) || inst.opts.rewind = Parent then begin
    commit_audit t ~at:(int_of_float (now ()));
    if t.pending_interrupted then begin
      Telemetry.Metrics.inc t.c_incidents_resumed;
      t.pending_interrupted <- false
    end
  end

(* The monitor section of a rewind, with the bracket open-coded: an
   untraced rewind builds no closure. *)
let rewind_in_monitor t ts inst fault ~record ~at =
  let was = enter_monitor t ts in
  match
    rewind_discard t ts inst fault ~record ~at;
    rewind_commit t inst ~record;
    ts.cur_pkru <- compute_pkru t ts
  with
  | () -> leave_monitor t ts was
  | exception e ->
      leave_monitor t ts was;
      raise e

(* The same steps inside the rewind's spans. *)
let traced_rewind t ts inst fault ~record ~at =
  Telemetry.Trace.with_span t.tracer "rewind"
    ~args:[ ("udi", string_of_int inst.udi) ]
    (fun () ->
      Telemetry.Trace.with_span t.tracer "rewind.context_restore" (fun () ->
          charge t.cost.context_restore);
      with_monitor t ts (fun () ->
          rewind_discard t ts inst fault ~record ~at;
          rewind_commit t inst ~record;
          Telemetry.Trace.with_span t.tracer "rewind.policy_update" (fun () ->
              ts.cur_pkru <- compute_pkru t ts)))

(* [at] is the rewind's start in whole cycles, the audit record's
   stamp; [t0] stays a local float. *)
let abnormal_exit ?(record = true) t ts inst fault =
  if record then Telemetry.Metrics.inc t.c_rewinds;
  let t0 = now () in
  let at = int_of_float t0 in
  if Telemetry.Trace.enabled t.tracer then
    traced_rewind t ts inst fault ~record ~at
  else begin
    charge t.cost.context_restore;
    rewind_in_monitor t ts inst fault ~record ~at
  end;
  Telemetry.Metrics.observe t.h_rewind_cycles (now () -. t0);
  (* Report the incident outside the monitor bracket, in the parent's
     context. *)
  if record then report_incident t fault

let rec remove_entered inst = function
  | [] -> []
  | e :: rest -> if e == inst then rest else e :: remove_entered inst rest

(* Clean up our instance when a foreign exception unwinds through the
   init frame: force-exit if entered, then discard everything, subtree
   included. Descendants' abnormal cleanups run (their last chance);
   [inst]'s own do not — a foreign exception is not this domain's
   abnormal exit, and its resources unwind with the OCaml stack. If a
   grandparent rewind is passing through, the discarded subtree is
   chained onto its in-flight audit record. *)
let teardown_passthrough t ts inst frame_id =
  if inst.frame = frame_id && is_live ts inst then
    with_monitor t ts (fun () ->
        if List.memq inst ts.entered then
          ts.entered <- remove_entered inst ts.entered;
        let base = t.n_victims in
        match
          stage_subtree t ts inst;
          race_rewind t ts base;
          let audited =
            Rewind_log.pending t.audit
            && begin_audit t ts ~continue:true ~target:inst.udi
                 ~cause:(Explicit "collateral teardown")
                 ~at:(int_of_float (now ())) base
          in
          for i = base to t.n_victims - 1 do
            let d = victim t i in
            if not (d == inst) then run_cleanups d;
            discard_instance t ts d;
            if audited then Rewind_log.mark_discarded t.audit (i - base + 1)
          done;
          ts.cur_pkru <- compute_pkru t ts
        with
        | () -> unstage_victims t base
        | exception e ->
            unstage_victims t base;
            raise e)

let is_domain_fault = function
  | Space.Fault _ | Stack_check_failure | Attack_detected _ -> true
  | _ -> false

(* The cause of an exception [is_domain_fault] accepts. *)
let cause_of = function
  | Space.Fault { addr; code; access; _ } -> Segv { addr; code; access }
  | Stack_check_failure -> Stack_smash
  | Attack_detected msg -> Explicit msg
  | e -> raise e

(* The whole protected execution is one span: a fault unwinding
   through it leaves an [aborted:true] trace event (and bumps
   [trace_aborted_spans_total]), so rewound requests are
   distinguishable from clean returns in Chrome exports. *)
let traced_body t ts udi body =
  let tr = ts.trace in
  Telemetry.Trace.with_span t.tracer "domain.body"
    ~args:
      (("udi", string_of_int udi)
      ::
      (if tr = 0 then []
       else [ ("trace", Printf.sprintf "%016x" tr) ]))
    body

(* [on_rewind]'s value, marking the run as rewound for {!rewound}. *)
let rewound_with ts on_rewind fault =
  let v = on_rewind fault in
  ts.rewound <- true;
  v

let run t ~udi ?(opts = default_options) ~on_rewind body =
  let ts = thread_state t in
  let inst = init_exec t ts udi opts in
  let frame_id = inst.frame in
  match
    if Telemetry.Trace.enabled t.tracer then traced_body t ts udi body
    else body ()
  with
  | v ->
      (* Convention: the domain must be destroyed or deinitialized before
         the initializing function returns; deinitialize if the user did
         not, so the saved context never dangles. *)
      if inst.frame = frame_id && is_live ts inst && inst.state <> Dormant
      then begin
        while inst.state = Entered do
          exit_domain t
        done;
        deinit t udi
      end;
      ts.rewound <- false;
      v
  | exception Rewind_to_grandparent fault ->
      (* A descendant configured with [Grandparent] was discarded; the
         rewind consumes this frame: this domain aborts as well. *)
      if current_udi_of ts = udi && inst.frame = frame_id then begin
        (* The fault was recorded when the failing descendant was
           discarded; this level is collateral, not a second incident. *)
        abnormal_exit ~record:false t ts inst fault;
        rewound_with ts on_rewind fault
      end
      else begin
        teardown_passthrough t ts inst frame_id;
        raise (Rewind_to_grandparent fault)
      end
  | exception e ->
      if is_domain_fault e && current_udi_of ts = udi && inst.frame = frame_id
      then begin
        (* The failure happened while executing in our domain: this is
           the abnormal domain exit for this rewind point. *)
        let fault =
          { failed_udi = udi; cause = cause_of e; tid = ts.t_tid; at = now () }
        in
        abnormal_exit t ts inst fault;
        match inst.opts.rewind with
        | Parent -> rewound_with ts on_rewind fault
        | Grandparent -> raise (Rewind_to_grandparent fault)
      end
      else begin
        teardown_passthrough t ts inst frame_id;
        raise e
      end

let rewound t =
  match Hashtbl.find t.threads (cur_tid ()) with
  | ts -> ts.rewound
  | exception Not_found -> false

(* {1 Introspection} *)

let is_initialized t udi =
  let ts = thread_state t in
  By_udi.mem t.datas udi
  ||
  match find_inst ts udi with
  | inst -> inst.state <> Dormant
  | exception Not_found -> false

let rewind_count t = Telemetry.Metrics.counter_value t.c_rewinds

(* {2 Rewind audit log}

   Reading the log back dereferences monitor-protected memory, so raise
   privileges when called from a registered simulated thread; outside the
   scheduler the default all-access policy applies. *)
let with_audit_read t f =
  match Hashtbl.find t.threads (cur_tid ()) with
  | ts when ts.constructed -> with_monitor t ts f
  | _ | (exception Not_found) -> f ()

let audit_records t = with_audit_read t (fun () -> Rewind_log.records t.audit)

let flight_events t ~udi =
  with_audit_read t (fun () -> Flight.events t.flight ~udi)

let flight_domains t = Flight.domains t.flight
let flight_recorded t = Flight.recorded t.flight
let flight_dropped t = Flight.dropped t.flight
let flight_bytes t = Flight.bytes t.flight
let audit_appended t = Rewind_log.appended t.audit
let audit_dropped t = Rewind_log.dropped t.audit
let audit_retained t = Rewind_log.retained t.audit
let audit_bytes t = Rewind_log.bytes t.audit
let audit_pending t = Rewind_log.pending t.audit
let set_rewind_fault_hook t hook = t.rewind_fault_hook <- hook
let add_journal_probe t probe = t.journal_probes <- probe :: t.journal_probes
let metrics t = t.metrics
let tracer t = t.tracer
let on_incident t f = t.subscribers <- f :: t.subscribers

let on_abnormal_cleanup t f =
  let ts = thread_state t in
  match current_inst ts with
  | None -> err Root_operation
  | Some inst ->
      let token = ref true in
      inst.cleanups <- (fun () -> if !token then f ()) :: inst.cleanups;
      fun () -> token := false

let domain_pkey t udi =
  match By_udi.find t.datas udi with
  | dd -> Some dd.d_pkey
  | exception Not_found -> (
      let ts = thread_state t in
      match find_inst ts udi with
      | inst -> Some inst.pkey
      | exception Not_found -> None)

let monitor_bytes t = Tlsf.used_bytes t.monitor_heap
let monitor_pkey t = t.monitor_pkey
let root_pkey t = t.root_pkey
let has_incident_handler t = t.subscribers <> []
let sanitizer_enabled t = t.sanitizer

(* Structured snapshot of the monitor's declared state, the input to the
   static policy verifier (lib/analysis). Pure data, no simulated-memory
   access, no virtual time charged. *)
type domain_info = {
  di_udi : udi;
  di_kind : [ `Exec | `Data ];
  di_tid : int;
  di_parent : udi;
  di_pkey : int;
  di_state : [ `Dormant | `Ready | `Entered ];
  di_stack : (int * int) option;
  di_regions : (int * int) list;
  di_accessible : bool;
  di_parent_readable : bool;
  di_has_cleanup : bool;
  di_perms : (udi * Vmem.Prot.t) list;
}

let domains_info t =
  let region_len r = Space.mapped_len t.space r in
  let execs = ref [] in
  iter_insts t (fun inst ->
      execs :=
        {
          di_udi = inst.udi;
          di_kind = `Exec;
          di_tid = inst.tid;
          di_parent = inst.parent;
          di_pkey = inst.pkey;
          di_state =
            (match inst.state with
            | Dormant -> `Dormant
            | Ready -> `Ready
            | Entered -> `Entered);
          di_stack = Some (inst.stack_base, inst.stack_len);
          di_regions = List.map (fun r -> (r, region_len r)) inst.heap_regions;
          di_accessible = inst.opts.access = Accessible;
          di_parent_readable = inst.opts.parent_readable;
          di_has_cleanup = inst.cleanups <> [];
          di_perms = [];
        }
        :: !execs);
  let datas = ref [] in
  By_udi.iter
    (fun dd ->
      datas :=
        {
          di_udi = dd.d_udi;
          di_kind = `Data;
          di_tid = -1;
          di_parent = root_udi;
          di_pkey = dd.d_pkey;
          di_state = `Ready;
          di_stack = None;
          di_regions = List.map (fun r -> (r, region_len r)) dd.d_regions;
          di_accessible = false;
          di_parent_readable = false;
          di_has_cleanup = false;
          di_perms =
            List.sort compare
              (Hashtbl.fold (fun u p acc -> (u, p) :: acc) dd.d_perms []);
        }
        :: !datas)
    t.datas;
  List.sort
    (fun a b -> compare (a.di_udi, a.di_tid) (b.di_udi, b.di_tid))
    (!execs @ !datas)

(* {1 Convenience wrappers} *)

let with_domain t udi f =
  enter t udi;
  match f () with
  | v ->
      exit_domain t;
      v
  | exception e ->
      (* A memory fault is a signal: the rewind machinery must see the
         domain still entered. Ordinary exceptions exit cleanly. *)
      if not (is_domain_fault e) then exit_domain t;
      raise e

let protect_call t ~udi ?opts ~arg f =
  run t ~udi ?opts
    ~on_rewind:(fun fault -> Result.Error fault)
    (fun () ->
      let len = String.length arg in
      let adr = if len > 0 then malloc t ~udi len else 0 in
      if len > 0 then Space.store_string t.space adr arg;
      enter t udi;
      let r = f adr len in
      exit_domain t;
      if len > 0 then free t ~udi adr;
      destroy t udi ~heap:`Discard;
      Result.Ok r)
