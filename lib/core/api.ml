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

open Keys

type t = {
  space : Space.t;
  cost : Cost.t;
  keys : Keys.t;  (* PKRU, protection keys and the domain tables *)
  monitor_heap : Tlsf.t;
  root_heap : Tlsf.t;
  mutable root_heap_regions : int list;
  canary_value : int;
  mutable frame_counter : int;
  sanitizer : bool;
  default_heap_size : int;
  mutable subscribers : (Types.fault -> unit) list;  (* newest first *)
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
         if not t.keys.in_monitor then
           let tid = if Sched.in_thread () then Sched.self () else -1 in
           match Hashtbl.find_opt t.keys.threads tid with
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
    ?(sanitizer = false) ?(verify_policy = false) ?metrics ?tracer space =
  let metrics =
    match metrics with Some m -> m | None -> Telemetry.Metrics.create ()
  in
  let tracer =
    match tracer with Some tr -> tr | None -> Telemetry.Trace.create ()
  in
  let root_heap = Tlsf.create space ~name:"sdrad-root" in
  let keys =
    Keys.create ~stack_reuse ~verify_policy ~metrics ~tracer ~root_heap space
  in
  let monitor_region =
    Space.mmap space ~len:monitor_size ~prot:Prot.rw ~pkey:keys.monitor_pkey
  in
  let monitor_heap = Tlsf.create space ~name:"sdrad-monitor" in
  if sanitizer then Tlsf.set_sanitize monitor_heap true;
  Tlsf.add_region monitor_heap ~addr:monitor_region ~len:monitor_size;
  let root_region =
    Space.mmap space ~len:root_heap_size ~prot:Prot.rw ~pkey:keys.root_pkey
  in
  if sanitizer then Tlsf.set_sanitize root_heap true;
  Tlsf.add_region root_heap ~addr:root_region ~len:root_heap_size;
  (* The rewind transaction log lives in the monitor data domain, next to
     the domain records and saved contexts it audits. *)
  let audit = Rewind_log.create space ~heap:monitor_heap ~cap:audit_log_cap in
  (* The flight recorder shares the monitor data domain: its rings must
     survive the rewinds of the domains they describe. *)
  let flight = Flight.create space ~heap:monitor_heap ~cap:flight_log_cap () in
  let rng = Simkern.Rng.create seed in
  let module M = Telemetry.Metrics in
  let t =
  {
    space;
    cost = Space.cost space;
    keys;
    monitor_heap;
    root_heap;
    root_heap_regions = [ root_region ];
    canary_value = Int64.to_int (Simkern.Rng.int64 rng) land max_int;
    frame_counter = 0;
    sanitizer;
    default_heap_size;
    subscribers = [];
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
        (Hashtbl.fold (fun _ ts n -> n + ts.insts.len) t.keys.threads 0));
  M.gauge_fn metrics "sdrad_data_domains" ~help:"Live data domains" (fun () ->
      float_of_int t.keys.datas.len);
  M.gauge_fn metrics "sdrad_pkeys_in_use" ~help:"Allocated protection keys"
    (fun () -> float_of_int (Space.pkeys_in_use t.space));
  M.gauge_fn metrics "sdrad_pooled_stacks"
    ~help:"Stack areas held for reuse" (fun () ->
      float_of_int t.keys.pooled);
  M.gauge_fn metrics "sdrad_threads" ~help:"Registered simulated threads"
    (fun () ->
      float_of_int
        (Hashtbl.fold
           (fun _ ts n -> if ts.constructed then n + 1 else n)
           t.keys.threads 0));
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

let current_inst ts = match ts.entered with [] -> None | i :: _ -> Some i

(* {1 Thread registration} *)

(* The thread's record, made bare on first sight: a trace id may be set
   before the thread's first domain call, and setting one must not run
   the constructor (its root stack and WRPKRU are simulated work). *)
let thread_record t tid =
  match Hashtbl.find t.keys.threads tid with
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
      Hashtbl.replace t.keys.threads tid ts;
      ts

let thread_state t =
  let ts = thread_record t (cur_tid ()) in
  if not ts.constructed then begin
    (* Thread constructor (§IV-B): set up a per-thread root stack and the
       initial access policy. *)
    let len = root_stack_size in
    let base = Space.mmap t.space ~len ~prot:Prot.rw ~pkey:t.keys.root_pkey in
    ts.root_sp <- base + len;
    ts.root_stack_base <- base;
    ts.root_stack_len <- len;
    ts.constructed <- true;
    Keys.start_thread t.keys ts
  end;
  ts

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
  match Hashtbl.find t.keys.threads tid with
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
    let was = Keys.enter_monitor t.keys ts in
    match record_event t ~udi ~tid ~trace ~arg kind with
    | () -> Keys.leave_monitor t.keys ts was
    | exception e ->
        Keys.leave_monitor t.keys ts was;
        raise e
  end

let record_flight t ~udi ~trace ~arg kind =
  let tid = cur_tid () in
  match Hashtbl.find t.keys.threads tid with
  | exception Not_found -> record_event t ~udi ~tid ~trace ~arg kind
  | ts -> record_on t ts ~udi ~tid ~trace ~arg kind

(* [udi] defaults to the thread's current domain, [trace] to the
   thread's trace id. *)
let flight_event t ?udi ?trace ?(arg = 0) kind =
  let tid = cur_tid () in
  match Hashtbl.find t.keys.threads tid with
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
      err (if By_udi.mem t.keys.datas udi then Wrong_kind else Unknown_domain)

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
  let was = Keys.enter_monitor t.keys ts in
  match
    if fresh then begin
      inst.meta_addr <- Tlsf.malloc t.monitor_heap meta_block_size;
      write_meta t inst
    end;
    save_context t ts inst;
    Keys.update_policy t.keys ts
  with
  | () -> Keys.leave_monitor t.keys ts was
  | exception e ->
      Keys.leave_monitor t.keys ts was;
      raise e

let reinit t ts inst opts =
  if inst.parent <> current_udi_of ts then err Not_a_child;
  Keys.unpark t.keys inst;
  Keys.touch t.keys inst;
  if opts.stack_size = inst.opts.stack_size then inst.opts <- opts
  else inst.opts <- { opts with stack_size = inst.opts.stack_size };
  inst.state <- Ready;
  inst.frame <- fresh_frame t;
  establish t ts inst ~fresh:false

let create_instance t ts udi opts =
  let inst =
    {
      udi;
      tid = ts.t_tid;
      opts;
      parent = current_udi_of ts;
      pkey = -1;
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
  Keys.seat t.keys inst;
  inst.frame <- fresh_frame t;
  By_udi.add ts.insts inst;
  establish t ts inst ~fresh:true;
  inst

let init_exec t ts udi opts =
  if udi = root_udi then err Root_operation;
  if By_udi.mem t.keys.datas udi then err Wrong_kind;
  let inst =
    match find_inst ts udi with
    | exception Not_found -> create_instance t ts udi opts
    | inst -> (
        match inst.state with
        | Dormant ->
            reinit t ts inst opts;
            inst
        | Ready | Entered -> err Already_initialized)
  in
  Telemetry.Metrics.inc t.c_inits;
  Keys.assert_policy t.keys;
  inst

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
  Keys.release_stack t.keys inst;
  drop_context t inst;
  if inst.meta_addr <> 0 then begin
    Tlsf.free t.monitor_heap inst.meta_addr;
    inst.meta_addr <- 0
  end;
  Keys.free_key t.keys inst.pkey;
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
        Keys.update_policy t.keys ts)
  end
  else begin
    charge t.cost.stack_switch;
    charge t.cost.switch_work;
    Keys.update_policy t.keys ts
  end

(* The gates below open-code the [with_monitor] bracket (same restore on
   every exit) so that a switch builds no closure. *)
let switch_in t ts inst udi =
  let was = Keys.enter_monitor t.keys ts in
  (match
     inst.state <- Entered;
     inst.sp <- inst.stack_base + inst.stack_len;
     push_entered ts inst;
     switch_steps t ts;
     record_event t ~udi ~tid:ts.t_tid ~trace:ts.trace ~arg:0 Flight.Switch_in
   with
  | () -> Keys.leave_monitor t.keys ts was
  | exception e ->
      Keys.leave_monitor t.keys ts was;
      raise e);
  (* Push the return address of the call gate onto the new stack — done
     after the policy switch, with the domain's own rights. *)
  inst.sp <- inst.sp - 16;
  Space.store64 t.space inst.sp inst.frame

let switch_out t ts inst rest =
  let was = Keys.enter_monitor t.keys ts in
  match
    ts.entered <- rest;
    inst.state <- Ready;
    switch_steps t ts;
    record_event t ~udi:inst.udi ~tid:ts.t_tid ~trace:ts.trace ~arg:0
      Flight.Switch_out
  with
  | () -> Keys.leave_monitor t.keys ts was
  | exception e ->
      Keys.leave_monitor t.keys ts was;
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
  Keys.touch t.keys inst;
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
  let was = Keys.enter_monitor t.keys ts in
  match
    drop_context t inst;
    inst.frame <- 0;
    inst.state <- Dormant
  with
  | () -> Keys.leave_monitor t.keys ts was
  | exception e ->
      Keys.leave_monitor t.keys ts was;
      raise e

(* Hand [regions] and the blocks of [from] to the current domain:
   re-key the regions to it, record them with it, and merge [from] into
   its heap. *)
let merge_into_current t ts regions ~from =
  let target = current_heap t ts in
  Keys.rekey_to_current t.keys ts regions;
  List.iter (track_current_region t ts) regions;
  Tlsf.merge target ~from

let merge_refusal = "corrupted sub-heap discarded instead of merged"

let destroy t udi ~heap =
  let ts = thread_state t in
  match By_udi.find t.keys.datas udi with
  | dd ->
      Keys.with_monitor t.keys ts (fun () ->
          (match heap with
          | `Discard -> List.iter (fun r -> Space.munmap t.space r) dd.d_regions
          | `Merge -> merge_into_current t ts dd.d_regions ~from:dd.d_heap);
          Tlsf.free t.monitor_heap dd.d_meta_addr;
          Keys.free_key t.keys dd.d_pkey;
          Hashtbl.iter (fun _ ts -> forget_gate_buffers ts udi) t.keys.threads;
          By_udi.remove t.keys.datas udi;
          Keys.update_policy t.keys ts);
      race_emit t (Types.Rv_unshared { udi; pkey = dd.d_pkey });
      Telemetry.Metrics.inc t.c_destroys
  | exception Not_found ->
      let inst = get_exec t ts udi in
      if inst.state = Entered then err Domain_entered;
      if inst.parent <> current_udi_of ts then err Not_a_child;
      let merge_refused = ref false in
      Keys.with_monitor t.keys ts (fun () ->
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
          Keys.update_policy t.keys ts);
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
  Keys.sanctioned t.keys @@ fun () ->
  if udi = root_udi then err Root_operation;
  let ts = thread_state t in
  if By_udi.mem t.keys.datas udi then err Already_initialized;
  if mem_inst ts udi then err Wrong_kind;
  let heap_size = Option.value heap_size ~default:t.default_heap_size in
  let pkey = Keys.acquire t.keys in
  let len = max heap_size Tlsf.min_region_len in
  let region = Space.mmap t.space ~len ~prot:Prot.rw ~pkey in
  let h = Tlsf.create t.space ~name:(Printf.sprintf "data%d" udi) in
  if t.sanitizer then Tlsf.set_sanitize h true;
  Tlsf.add_region h ~addr:region ~len;
  let perms = Hashtbl.create 4 in
  (* The creating domain gets read-write access by default so it can
     populate the data domain. *)
  Hashtbl.replace perms (current_udi_of ts) Prot.rw;
  Keys.with_monitor t.keys ts (fun () ->
      let meta = Tlsf.malloc t.monitor_heap meta_block_size in
      Space.store64 t.space meta udi;
      Space.store64 t.space (meta + 8) pkey;
      By_udi.add t.keys.datas
        {
          d_udi = udi;
          d_pkey = pkey;
          d_heap = h;
          d_pool = heap_size;
          d_regions = [ region ];
          d_perms = perms;
          d_meta_addr = meta;
        };
      Keys.update_policy t.keys ts);
  race_emit t (Types.Rv_shared { udi; pkey });
  Keys.assert_policy t.keys

let dprotect t ~udi ~tddi prot =
  let ts = thread_state t in
  match By_udi.find t.keys.datas tddi with
  | exception Not_found ->
      err (if mem_inst ts tddi then Wrong_kind else Unknown_domain)
  | dd ->
      Keys.with_monitor t.keys ts (fun () ->
          if prot = 0 then Hashtbl.remove dd.d_perms udi
          else Hashtbl.replace dd.d_perms udi prot;
          Keys.update_policy t.keys ts)

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
    match By_udi.find t.keys.datas udi with
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
    match By_udi.find t.keys.datas udi with
    | dd -> dd.d_heap
    | exception Not_found -> inst_heap t (find_inst ts udi)

(* [heap], [udi]'s, has no block for [size]: map a region of the
   owner's pool size (at least [size] plus headers) under the owner's
   key and record it with the owner. A space with no room for the
   region is the heap's out of memory. *)
let grow_heap t ts udi heap size =
  let add ~pkey ~pool =
    let len = max pool (size + (2 * Tlsf.block_overhead) + 64) in
    let region =
      match Space.mmap t.space ~len ~prot:Prot.rw ~pkey with
      | r -> r
      | exception Space.Exhausted -> raise Tlsf.Out_of_memory
    in
    Tlsf.add_region heap ~addr:region ~len;
    region
  in
  if udi = current_udi_of ts then
    match ts.entered with
    | [] ->
        let r = add ~pkey:t.keys.root_pkey ~pool:t.default_heap_size in
        t.root_heap_regions <- r :: t.root_heap_regions
    | inst :: _ ->
        let r = add ~pkey:inst.pkey ~pool:inst.opts.heap_size in
        inst.heap_regions <- r :: inst.heap_regions
  else
    match By_udi.find t.keys.datas udi with
    | dd ->
        let r = add ~pkey:dd.d_pkey ~pool:dd.d_pool in
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
  let was = Keys.enter_monitor t.keys ts in
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
        Keys.leave_monitor t.keys ts was;
        addr
    | exception e ->
        Keys.leave_monitor t.keys ts was;
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
  let was = Keys.enter_monitor t.keys ts in
  (match Tlsf.free (target_heap t ts udi) addr with
  | () -> Keys.leave_monitor t.keys ts was
  | exception e ->
      Keys.leave_monitor t.keys ts was;
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

let open_gate t = Keys.open_gate t.keys (thread_state t)

let close_gate t =
  let ts = thread_state t in
  if ts.gate_depth = 0 then invalid_arg "Api.close_gate: no gate open";
  Keys.close_gate t.keys ts

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
  let was = Keys.enter_monitor t.keys ts in
  match
    rewind_discard t ts inst fault ~record ~at;
    rewind_commit t inst ~record;
    Keys.update_policy t.keys ts
  with
  | () -> Keys.leave_monitor t.keys ts was
  | exception e ->
      Keys.leave_monitor t.keys ts was;
      raise e

(* The same steps inside the rewind's spans. *)
let traced_rewind t ts inst fault ~record ~at =
  Telemetry.Trace.with_span t.tracer "rewind"
    ~args:[ ("udi", string_of_int inst.udi) ]
    (fun () ->
      Telemetry.Trace.with_span t.tracer "rewind.context_restore" (fun () ->
          charge t.cost.context_restore);
      Keys.with_monitor t.keys ts (fun () ->
          rewind_discard t ts inst fault ~record ~at;
          rewind_commit t inst ~record;
          Telemetry.Trace.with_span t.tracer "rewind.policy_update" (fun () ->
              Keys.update_policy t.keys ts)))

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
    Keys.with_monitor t.keys ts (fun () ->
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
          Keys.update_policy t.keys ts
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
  match Hashtbl.find t.keys.threads (cur_tid ()) with
  | ts -> ts.rewound
  | exception Not_found -> false

(* {1 Introspection} *)

let is_initialized t udi =
  let ts = thread_state t in
  By_udi.mem t.keys.datas udi
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
  match Hashtbl.find t.keys.threads (cur_tid ()) with
  | ts when ts.constructed -> Keys.with_monitor t.keys ts f
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
  match By_udi.find t.keys.datas udi with
  | dd -> Some dd.d_pkey
  | exception Not_found -> (
      let ts = thread_state t in
      match find_inst ts udi with
      | inst -> Some inst.pkey
      | exception Not_found -> None)

let monitor_bytes t = Tlsf.used_bytes t.monitor_heap
let monitor_pkey t = t.keys.monitor_pkey
let root_pkey t = t.keys.root_pkey
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
  Keys.iter_insts t.keys (fun inst ->
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
    t.keys.datas;
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
