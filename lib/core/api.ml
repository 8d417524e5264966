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
}

type data_inst = {
  d_udi : udi;
  d_pkey : int;
  d_heap : Tlsf.t;
  mutable d_regions : int list;
  d_perms : (udi, Prot.t) Hashtbl.t;  (* viewer execution domain -> rights *)
  d_meta_addr : int;
}

type thread_state = {
  t_tid : int;
  mutable entered : exec_inst list;  (* innermost first; [] = in root *)
  mutable root_sp : int;
  root_stack_base : int;
  root_stack_len : int;
  mutable cur_pkru : int;
  mutable monitor_depth : int;  (* nested [with_monitor] brackets *)
  mutable gate_depth : int;  (* open batched-gate sections *)
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
  exec_insts : (int * udi, exec_inst) Hashtbl.t;  (* (tid, udi) *)
  data_insts : (udi, data_inst) Hashtbl.t;
  threads : (int, thread_state) Hashtbl.t;
  mutable stack_pool : (int * int) list;
  stack_reuse : bool;
  virtual_keys : bool;
  sanitizer : bool;
  verify_policy : bool;
  mutable key_clock : int;  (* LRU tick for key virtualization *)
  default_stack_size : int;
  default_heap_size : int;
  incident_cap : int;
  incident_q : Types.fault Queue.t;  (* bounded ring, oldest at front *)
  mutable incident_handler : (Types.fault -> unit) option;
  mutable in_monitor : bool;
  audit : Rewind_log.t;  (* durable rewind intent + incident audit log *)
  flight : Flight.t;  (* per-domain event rings in monitor memory *)
  flight_snap : int;  (* events snapshotted per victim at rewind intent *)
  trace_ctx : (int, int64) Hashtbl.t;  (* tid -> active causal trace id *)
  gate_bufs : (int * udi * udi * int, int * int) Hashtbl.t;
      (* (tid, caller, callee, slot) -> (addr, size): cached
         argument-marshalling buffers in the callee's heap, surviving
         deinit (persistent-domain pattern) until the domain is
         discarded or destroyed *)
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
  c_incidents : Telemetry.Metrics.counter;
  c_dropped_incidents : Telemetry.Metrics.counter;
  c_enters : Telemetry.Metrics.counter;
  c_exits : Telemetry.Metrics.counter;
  c_gate_batched : Telemetry.Metrics.counter;
  c_inits : Telemetry.Metrics.counter;
  c_destroys : Telemetry.Metrics.counter;
  h_switch_cycles : Telemetry.Metrics.histogram;
  h_rewind_cycles : Telemetry.Metrics.histogram;
}

let log_src = Logs.Src.create "sdrad.core" ~doc:"SDRaD reference monitor"

module Log = (val Logs.src_log log_src : Logs.LOG)

let err e = raise (Error e)

(* API calls are usable outside a simulated thread (setup code in tests);
   time is only charged when a thread clock exists. *)
let charge c = if Sched.in_thread () then Sched.charge c
let now () = if Sched.in_thread () then Sched.now () else 0.0

let set_race_observer t o = t.race_observer <- o

let race_emit t ev =
  match t.race_observer with Some f -> f ev | None -> ()

let record_incident t fault =
  Queue.push fault t.incident_q;
  if Queue.length t.incident_q > t.incident_cap then begin
    ignore (Queue.pop t.incident_q);
    Telemetry.Metrics.inc t.c_dropped_incidents
  end;
  Telemetry.Metrics.inc t.c_incidents;
  Telemetry.Trace.instant t.tracer "incident"
    ~args:[ ("udi", string_of_int fault.failed_udi) ];
  Log.info (fun m ->
      m "incident: %a" (fun ppf f -> Types.pp_fault ppf f) fault);
  match t.incident_handler with Some h -> h fault | None -> ()

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

let create ?(seed = 1) ?(monitor_size = 256 * 1024)
    ?(root_heap_size = 4 * 1024 * 1024) ?(default_stack_size = 64 * 1024)
    ?(default_heap_size = 256 * 1024) ?(stack_reuse = true)
    ?(virtual_keys = false) ?(sanitizer = false) ?(verify_policy = false)
    ?metrics ?tracer ?(incident_log_cap = 1024) ?(audit_log_cap = 256)
    ?(flight_log_cap = 32) ?(flight_snap = 8) space =
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
    exec_insts = Hashtbl.create 32;
    data_insts = Hashtbl.create 8;
    threads = Hashtbl.create 8;
    stack_pool = [];
    stack_reuse;
    virtual_keys;
    sanitizer;
    verify_policy;
    key_clock = 0;
    default_stack_size;
    default_heap_size;
    incident_cap = max 1 incident_log_cap;
    incident_q = Queue.create ();
    incident_handler = None;
    in_monitor = false;
    audit;
    flight;
    flight_snap = max 0 flight_snap;
    trace_ctx = Hashtbl.create 8;
    gate_bufs = Hashtbl.create 16;
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
    c_incidents =
      M.counter metrics "sdrad_incidents_total"
        ~help:"Faults reported to the incident log";
    c_dropped_incidents =
      M.counter metrics "sdrad_dropped_incidents_total"
        ~help:"Incidents evicted from the bounded incident log";
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
    h_switch_cycles =
      M.histogram metrics "sdrad_switch_cycles"
        ~help:"Virtual cycles per domain switch (one enter or one exit)";
    h_rewind_cycles =
      M.histogram metrics "sdrad_rewind_cycles"
        ~help:"Virtual cycles per abnormal exit (context restore + discard)";
  }
  in
  (* Structural gauges and hardware counters are sampled at exposition
     time, so vmem/tlsf stay free of any telemetry dependency. *)
  M.gauge_fn metrics "sdrad_execution_domains"
    ~help:"Live execution-domain instances" (fun () ->
      float_of_int (Hashtbl.length t.exec_insts));
  M.gauge_fn metrics "sdrad_data_domains" ~help:"Live data domains" (fun () ->
      float_of_int (Hashtbl.length t.data_insts));
  M.gauge_fn metrics "sdrad_pkeys_in_use" ~help:"Allocated protection keys"
    (fun () -> float_of_int (Space.pkeys_in_use t.space));
  M.gauge_fn metrics "sdrad_pooled_stacks"
    ~help:"Stack areas held for reuse" (fun () ->
      float_of_int (List.length t.stack_pool));
  M.gauge_fn metrics "sdrad_threads" ~help:"Registered simulated threads"
    (fun () -> float_of_int (Hashtbl.length t.threads));
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

let compute_pkru t ts =
  let cur = current_inst ts in
  let cur_udi = current_udi_of ts in
  let v = ref (Pkru.deny Pkru.all_access ~key:t.monitor_pkey) in
  (* The root domain is read-only from nested domains (global data). *)
  (match cur with
  | None -> ()
  | Some _ -> v := Pkru.allow_read !v ~key:t.root_pkey);
  Hashtbl.iter
    (fun _ inst ->
      if inst.pkey >= 0 then
      let rights =
        match cur with
        | Some c when c == inst -> `Rw
        | _ ->
            if
              inst.tid = ts.t_tid && inst.parent = cur_udi
              && inst.opts.access = Accessible
              && inst.state <> Entered
            then `Rw
            else
              (* Direct parent, when the current domain opted in. *)
              let parent_readable =
                match cur with
                | Some c ->
                    c.opts.parent_readable && c.parent = inst.udi
                    && inst.tid = ts.t_tid
                | None -> false
              in
              if parent_readable then `Ro else `No
      in
      v :=
        (match rights with
        | `Rw -> Pkru.allow !v ~key:inst.pkey
        | `Ro -> Pkru.allow_read !v ~key:inst.pkey
        | `No -> Pkru.deny !v ~key:inst.pkey))
    t.exec_insts;
  Hashtbl.iter
    (fun _ dd ->
      let p =
        match Hashtbl.find_opt dd.d_perms cur_udi with Some p -> p | None -> 0
      in
      v :=
        (if Prot.has p Prot.write then Pkru.allow !v ~key:dd.d_pkey
         else if Prot.has p Prot.read then Pkru.allow_read !v ~key:dd.d_pkey
         else Pkru.deny !v ~key:dd.d_pkey))
    t.data_insts;
  !v

(* {1 Thread registration} *)

let thread_state t =
  let tid = cur_tid () in
  match Hashtbl.find_opt t.threads tid with
  | Some ts -> ts
  | None ->
      (* Thread constructor (§IV-B): set up a per-thread root stack and the
         initial access policy. *)
      let len = t.default_stack_size in
      let base = Space.mmap t.space ~len ~prot:Prot.rw ~pkey:t.root_pkey in
      let ts =
        {
          t_tid = tid;
          entered = [];
          root_sp = base + len;
          root_stack_base = base;
          root_stack_len = len;
          cur_pkru = Pkru.all_access;
          monitor_depth = 0;
          gate_depth = 0;
        }
      in
      Hashtbl.replace t.threads tid ts;
      ts.cur_pkru <- compute_pkru t ts;
      Space.wrpkru t.space ts.cur_pkru;
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
  Fun.protect ~finally:(fun () -> t.in_monitor <- was) f

let monitor_view t ts = Pkru.allow ts.cur_pkru ~key:t.monitor_pkey
let in_root ts = match ts.entered with [] -> true | _ -> false

let install_pkru t v =
  Telemetry.Trace.with_span t.tracer "switch.pkru_write" (fun () ->
      Space.wrpkru t.space v)

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
   byte-for-byte identical to the unbatched path. *)
let with_monitor t ts f =
  ts.monitor_depth <- ts.monitor_depth + 1;
  if ts.monitor_depth = 1 then install_pkru t (monitor_view t ts);
  let was = t.in_monitor in
  t.in_monitor <- true;
  Fun.protect
    ~finally:(fun () ->
      t.in_monitor <- was;
      ts.monitor_depth <- ts.monitor_depth - 1;
      if ts.monitor_depth = 0 then
        if ts.gate_depth > 0 && in_root ts then
          install_pkru t (monitor_view t ts)
        else install_pkru t ts.cur_pkru)
    f

(* {1 Causal trace context}

   One 62-bit trace id per thread, set by the server when it starts
   handling a request and cleared when the reply is sent. Every flight-
   recorder event and rewind audit record written on that thread in
   between carries the id, which is what links a client op to its
   server-side consequences. Plain OCaml state: the id is metadata about
   the monitor's execution, not compartment-reachable memory. *)

let current_trace t =
  match Hashtbl.find_opt t.trace_ctx (cur_tid ()) with
  | Some id -> id
  | None -> 0L

let set_trace t id =
  let tid = cur_tid () in
  if id = 0L then Hashtbl.remove t.trace_ctx tid
  else Hashtbl.replace t.trace_ctx tid id

let with_trace t id f =
  let tid = cur_tid () in
  let prev = Hashtbl.find_opt t.trace_ctx tid in
  set_trace t id;
  Fun.protect
    ~finally:(fun () ->
      match prev with
      | Some p -> Hashtbl.replace t.trace_ctx tid p
      | None -> Hashtbl.remove t.trace_ctx tid)
    f

(* Record one flight-recorder event for [udi] (default: the thread's
   current domain), stamped with the active trace context. Raises
   privileges when called from compartment context — the ring lives in
   monitor memory. *)
let flight_event t ?udi ?(arg = 0) kind =
  let tid = cur_tid () in
  let udi =
    match udi with
    | Some u -> u
    | None -> (
        match Hashtbl.find_opt t.threads tid with
        | Some ts -> current_udi_of ts
        | None -> root_udi)
  in
  let write () =
    Flight.record t.flight ~udi ~tid ~at:(now ()) ~trace:(current_trace t)
      ~arg kind
  in
  match Hashtbl.find_opt t.threads tid with
  | Some ts -> with_monitor t ts write
  | None -> write ()

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

let take_stack t ~len ~pkey =
  let rec pick acc = function
    | [] -> None
    | (base, l) :: rest when l >= len ->
        t.stack_pool <- List.rev_append acc rest;
        Some (base, l)
    | s :: rest -> pick (s :: acc) rest
  in
  match if t.stack_reuse then pick [] t.stack_pool else None with
  | Some (base, l) ->
      Space.pkey_mprotect t.space ~addr:base ~len:l ~prot:Prot.rw ~pkey;
      if Space.sanitizer_enabled t.space then
        Space.unpoison t.space ~addr:base ~len:l;
      (base, l)
  | None ->
      let base = Space.mmap t.space ~len ~prot:Prot.rw ~pkey in
      (base, len)

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
    t.stack_pool <- (base, len) :: t.stack_pool
  end
  else Space.munmap t.space base

(* {1 Protection-key virtualization (libmpk-style, §IV-B)}

   With [virtual_keys] enabled, running out of the 15 hardware keys parks
   a dormant domain instead of failing: its pages are made PROT_NONE (a
   real mprotect walk — the "much slower" fallback the paper attributes
   to libmpk) and its key is recycled. The instance is unparked — given a
   key again and re-protected — when it is re-initialized. *)

let park_instance t inst =
  List.iter
    (fun r ->
      match Space.alloc_len t.space r with
      | Some len -> Space.mprotect t.space ~addr:r ~len ~prot:Prot.none
      | None -> ())
    inst.heap_regions;
  Space.mprotect t.space ~addr:inst.stack_base ~len:inst.stack_len
    ~prot:Prot.none;
  Space.pkey_free t.space inst.pkey;
  inst.pkey <- -1;
  Telemetry.Metrics.inc t.c_key_evictions

let acquire_pkey t =
  match Space.pkey_alloc t.space with
  | Some k -> k
  | None ->
      if not t.virtual_keys then err Out_of_pkeys
      else begin
        (* Evict the least recently used dormant instance. *)
        let victim =
          Hashtbl.fold
            (fun _ inst best ->
              if inst.state = Dormant && inst.pkey >= 0 then
                match best with
                | Some b when b.last_used <= inst.last_used -> best
                | _ -> Some inst
              else best)
            t.exec_insts None
        in
        match victim with
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
    List.iter
      (fun r ->
        match Space.alloc_len t.space r with
        | Some len ->
            Space.pkey_mprotect t.space ~addr:r ~len ~prot:Prot.rw ~pkey:k
        | None -> ())
      inst.heap_regions;
    Space.pkey_mprotect t.space ~addr:inst.stack_base ~len:inst.stack_len
      ~prot:Prot.rw ~pkey:k
  end

let touch_key t inst =
  t.key_clock <- t.key_clock + 1;
  inst.last_used <- t.key_clock

(* {1 Sub-heaps} *)

let inst_heap t inst =
  match inst.heap with
  | Some h -> h
  | None ->
      let h = Tlsf.create t.space ~name:(Printf.sprintf "udi%d" inst.udi) in
      if t.sanitizer then Tlsf.set_sanitize h true;
      let len = max inst.opts.heap_size Tlsf.min_region_len in
      let region = Space.mmap t.space ~len ~prot:Prot.rw ~pkey:inst.pkey in
      Tlsf.add_region h ~addr:region ~len;
      inst.heap_regions <- region :: inst.heap_regions;
      inst.heap <- Some h;
      h

let heap_malloc t ~heap ~pkey ~pool_size ~grow size =
  match Tlsf.malloc_opt heap size with
  | Some p -> p
  | None ->
      let len = max pool_size (size + (2 * Tlsf.block_overhead) + 64) in
      let region = Space.mmap t.space ~len ~prot:Prot.rw ~pkey in
      grow region;
      Tlsf.add_region heap ~addr:region ~len;
      Tlsf.malloc heap size

(* {1 Instance lookup helpers} *)

let find_exec t ts udi = Hashtbl.find_opt t.exec_insts (ts.t_tid, udi)

let get_exec t ts udi =
  match find_exec t ts udi with
  | Some inst -> inst
  | None -> err (if Hashtbl.mem t.data_insts udi then Wrong_kind else Unknown_domain)

(* {1 Core life cycle} *)

let fresh_frame t =
  t.frame_counter <- t.frame_counter + 1;
  t.frame_counter

(* Cheap monitor-init-time policy assertion behind [verify_policy]: every
   live domain holds a key of its own, distinct from the monitor's and the
   root's. The full static verifier (stack/heap visibility, gate buffers,
   hooks, reachability) lives in [lib/analysis] and runs offline or at
   server setup. *)
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
    Hashtbl.iter (fun _ i -> claim "domain" i.udi i.pkey) t.exec_insts;
    Hashtbl.iter (fun _ d -> claim "data domain" d.d_udi d.d_pkey) t.data_insts
  end

let init_exec t ts udi opts =
  sanctioned t @@ fun () ->
  if udi = root_udi then err Root_operation;
  if Hashtbl.mem t.data_insts udi then err Wrong_kind;
  let cur = current_udi_of ts in
  match find_exec t ts udi with
  | Some inst -> (
      match inst.state with
      | Dormant ->
          if inst.parent <> cur then err Not_a_child;
          unpark_instance t inst;
          touch_key t inst;
          inst.opts <- { opts with stack_size = inst.opts.stack_size };
          inst.state <- Ready;
          inst.frame <- fresh_frame t;
          with_monitor t ts (fun () ->
              save_context t ts inst;
              ts.cur_pkru <- compute_pkru t ts);
          Telemetry.Metrics.inc t.c_inits;
          assert_policy t;
          inst
      | Ready | Entered -> err Already_initialized)
  | None ->
      let pkey = acquire_pkey t in
      let stack_base, stack_len = take_stack t ~len:opts.stack_size ~pkey in
      let inst =
        {
          udi;
          tid = ts.t_tid;
          opts;
          parent = cur;
          pkey;
          state = Ready;
          stack_base;
          stack_len;
          sp = stack_base + stack_len;
          heap = None;
          heap_regions = [];
          frame = fresh_frame t;
          ctx_addr = 0;
          meta_addr = 0;
          last_used = 0;
          cleanups = [];
        }
      in
      Hashtbl.replace t.exec_insts (ts.t_tid, udi) inst;
      with_monitor t ts (fun () ->
          inst.meta_addr <- Tlsf.malloc t.monitor_heap meta_block_size;
          write_meta t inst;
          save_context t ts inst;
          ts.cur_pkru <- compute_pkru t ts);
      Telemetry.Metrics.inc t.c_inits;
      assert_policy t;
      inst

(* Fully remove an instance's memory and identity (used by destroy with
   [`Discard] and by abnormal exits: "subheaps are never merged back after
   abnormal exits, as the data must be considered corrupted"). *)
(* Drop cached marshalling buffers referencing a domain about to lose its
   heap (callee side) or to stop calling (caller side). The allocations
   themselves go away with the callee's regions; no free needed. Exec
   instances are per-thread, so their discard passes [tid] and leaves the
   other threads' caches (whose instances — and heaps — survive) alone;
   a data-domain destroy is global and purges every thread's entries. *)
let forget_gate_buffers ?tid t udi =
  let stale =
    Hashtbl.fold
      (fun ((btid, caller, callee, _) as k) _ acc ->
        if
          (match tid with Some w -> btid = w | None -> true)
          && (caller = udi || callee = udi)
        then k :: acc
        else acc)
      t.gate_bufs []
  in
  List.iter (Hashtbl.remove t.gate_bufs) stale

let discard_instance t ts inst =
  let bypass f =
    if Space.sanitizer_enabled t.space then Space.sanitizer_bypass t.space f
    else f ()
  in
  if inst.opts.scrub_on_discard then
    (* The scrub sweeps whole regions, redzones and freed blocks included;
       it must not trip the poison scan it co-exists with. *)
    bypass (fun () ->
        List.iter
          (fun r ->
            match Space.alloc_len t.space r with
            | Some len -> Space.fill t.space ~addr:r ~len '\000'
            | None -> ())
          inst.heap_regions;
        Space.fill t.space ~addr:inst.stack_base ~len:inst.stack_len '\000');
  (* Poison-on-discard: mark everything the domain could address poisoned
     before the mappings go away, so any access racing the teardown — and
     pooled-stack ghosts until reissue — is a detected POISON fault, not a
     silent read. A later mmap over the same range clears the marks. *)
  if t.sanitizer then begin
    List.iter
      (fun r ->
        match Space.alloc_len t.space r with
        | Some len -> Space.poison t.space ~addr:r ~len
        | None -> ())
      inst.heap_regions;
    Space.poison t.space ~addr:inst.stack_base ~len:inst.stack_len
  end;
  List.iter (fun r -> Space.munmap t.space r) inst.heap_regions;
  inst.heap_regions <- [];
  inst.heap <- None;
  release_stack t ~base:inst.stack_base ~len:inst.stack_len;
  drop_context t inst;
  if inst.meta_addr <> 0 then begin
    Tlsf.free t.monitor_heap inst.meta_addr;
    inst.meta_addr <- 0
  end;
  if inst.pkey >= 0 then Space.pkey_free t.space inst.pkey;
  forget_gate_buffers ~tid:ts.t_tid t inst.udi;
  Hashtbl.remove t.exec_insts (ts.t_tid, inst.udi)

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

let descendants_post t ts udi ~except =
  let children u =
    Hashtbl.fold
      (fun (tid, _) i acc ->
        if tid = ts.t_tid && i.parent = u && not (List.memq i except) then
          i :: acc
        else acc)
      t.exec_insts []
    |> List.sort (fun a b -> compare a.udi b.udi)
  in
  let rec go u = List.concat_map (fun k -> go k.udi @ [ k ]) (children u) in
  go udi

(* The audit-log view of a domain about to be discarded, captured while
   everything is still mapped. *)
let extent_of t inst =
  {
    Rewind_log.x_udi = inst.udi;
    x_was =
      (match inst.state with
      | Entered -> `Entered
      | Ready -> `Ready
      | Dormant -> `Dormant);
    x_stack = (inst.stack_base, inst.stack_len);
    x_regions =
      List.map
        (fun r ->
          (r, match Space.alloc_len t.space r with Some l -> l | None -> 0))
        inst.heap_regions;
  }

let trigger_of_cause = function
  | Segv { addr; code; access } ->
      ( `Segv,
        Format.asprintf "%a" Space.pp_si_code code,
        addr,
        Format.asprintf "%a" Space.pp_access access )
  | Stack_smash -> (`Stack_smash, "-", 0, "")
  | Explicit msg -> (`Explicit, "-", 0, msg)

let journal_replays t =
  List.fold_left (fun acc probe -> acc + probe ()) 0 t.journal_probes

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
  let t0 = now () in
  Telemetry.Trace.with_span t.tracer "switch.enter"
    ~args:[ ("udi", string_of_int udi) ]
    (fun () ->
      with_monitor t ts (fun () ->
          inst.state <- Entered;
          inst.sp <- inst.stack_base + inst.stack_len;
          ts.entered <- inst :: ts.entered;
          Telemetry.Trace.with_span t.tracer "switch.stack_swap" (fun () ->
              charge t.cost.stack_switch);
          Telemetry.Trace.with_span t.tracer "switch.bookkeeping" (fun () ->
              charge t.cost.switch_work;
              ts.cur_pkru <- compute_pkru t ts);
          Flight.record t.flight ~udi ~tid:ts.t_tid ~at:(now ())
            ~trace:(current_trace t) Flight.Switch_in);
      (* Push the return address of the call gate onto the new stack — done
         after the policy switch, with the domain's own rights. *)
      inst.sp <- inst.sp - 16;
      Space.store64 t.space inst.sp inst.frame);
  (match t.race_observer with
  | Some f -> f (Types.Rv_domain { tid = ts.t_tid; udi; enter = true })
  | None -> ());
  Telemetry.Metrics.inc t.c_enters;
  if ts.gate_depth > 0 then Telemetry.Metrics.inc t.c_gate_batched;
  Telemetry.Metrics.observe t.h_switch_cycles (now () -. t0)

let exit_domain t =
  let ts = thread_state t in
  match ts.entered with
  | [] -> err Not_entered
  | inst :: rest ->
      let t0 = now () in
      Telemetry.Trace.with_span t.tracer "switch.exit"
        ~args:[ ("udi", string_of_int inst.udi) ]
        (fun () ->
          with_monitor t ts (fun () ->
              ts.entered <- rest;
              inst.state <- Ready;
              Telemetry.Trace.with_span t.tracer "switch.stack_swap"
                (fun () -> charge t.cost.stack_switch);
              Telemetry.Trace.with_span t.tracer "switch.bookkeeping"
                (fun () ->
                  charge t.cost.switch_work;
                  ts.cur_pkru <- compute_pkru t ts);
              Flight.record t.flight ~udi:inst.udi ~tid:ts.t_tid
                ~at:(now ()) ~trace:(current_trace t) Flight.Switch_out));
      (match t.race_observer with
      | Some f ->
          f (Types.Rv_domain { tid = ts.t_tid; udi = inst.udi; enter = false })
      | None -> ());
      Telemetry.Metrics.inc t.c_exits;
      Telemetry.Metrics.observe t.h_switch_cycles (now () -. t0)

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
  with_monitor t ts (fun () ->
      drop_context t inst;
      inst.frame <- 0;
      inst.state <- Dormant)

(* The heap (and its region bookkeeping) of the current domain. *)
let current_heap t ts =
  match current_inst ts with
  | None ->
      ( t.root_heap,
        t.root_pkey,
        (fun r -> t.root_heap_regions <- r :: t.root_heap_regions),
        t.default_heap_size )
  | Some inst ->
      ( inst_heap t inst,
        inst.pkey,
        (fun r -> inst.heap_regions <- r :: inst.heap_regions),
        inst.opts.heap_size )

let destroy t udi ~heap =
  let ts = thread_state t in
  match Hashtbl.find_opt t.data_insts udi with
  | Some dd ->
      with_monitor t ts (fun () ->
          (match heap with
          | `Discard -> List.iter (fun r -> Space.munmap t.space r) dd.d_regions
          | `Merge ->
              let target, pkey, track, _ = current_heap t ts in
              List.iter
                (fun r ->
                  (match Space.alloc_len t.space r with
                  | Some len ->
                      Space.pkey_mprotect t.space ~addr:r ~len ~prot:Prot.rw ~pkey
                  | None -> ());
                  track r)
                dd.d_regions;
              Tlsf.merge target ~from:dd.d_heap);
          Tlsf.free t.monitor_heap dd.d_meta_addr;
          Space.pkey_free t.space dd.d_pkey;
          forget_gate_buffers t udi;
          Hashtbl.remove t.data_insts udi;
          ts.cur_pkru <- compute_pkru t ts);
      race_emit t (Types.Rv_unshared { udi; pkey = dd.d_pkey });
      Telemetry.Metrics.inc t.c_destroys
  | None ->
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
          List.iter
            (fun d ->
              run_cleanups d;
              discard_instance t ts d)
            (descendants_post t ts udi ~except:[]);
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
                    let target, pkey, track, _ = current_heap t ts in
                    List.iter
                      (fun r ->
                        (match Space.alloc_len t.space r with
                        | Some len ->
                            Space.pkey_mprotect t.space ~addr:r ~len
                              ~prot:Prot.rw ~pkey
                        | None -> ());
                        track r)
                      inst.heap_regions;
                    Tlsf.merge target ~from:child_heap;
                    inst.heap_regions <- [];
                    inst.heap <- None
                  end));
          discard_instance t ts inst;
          ts.cur_pkru <- compute_pkru t ts);
      Telemetry.Metrics.inc t.c_destroys;
      if !merge_refused then
        record_incident t
          {
            failed_udi = udi;
            cause = Explicit "corrupted sub-heap discarded instead of merged";
            tid = ts.t_tid;
            at = now ();
          }

(* {1 Data domains} *)

let init_data t ~udi ?heap_size () =
  sanctioned t @@ fun () ->
  if udi = root_udi then err Root_operation;
  let ts = thread_state t in
  if Hashtbl.mem t.data_insts udi then err Already_initialized;
  if find_exec t ts udi <> None then err Wrong_kind;
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
      Hashtbl.replace t.data_insts udi
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
  match Hashtbl.find_opt t.data_insts tddi with
  | None ->
      err (if Hashtbl.mem t.exec_insts (ts.t_tid, tddi) then Wrong_kind
           else Unknown_domain)
  | Some dd ->
      with_monitor t ts (fun () ->
          if prot = 0 then Hashtbl.remove dd.d_perms udi
          else Hashtbl.replace dd.d_perms udi prot;
          ts.cur_pkru <- compute_pkru t ts)

(* {1 Memory management} *)

type heap_target =
  | In_current
  | In_child of exec_inst
  | In_data of data_inst

let resolve_heap t ts udi =
  let cur = current_udi_of ts in
  if udi = cur then In_current
  else
    match Hashtbl.find_opt t.data_insts udi with
    | Some dd ->
        let p =
          match Hashtbl.find_opt dd.d_perms cur with Some p -> p | None -> 0
        in
        if Prot.has p Prot.write then In_data dd else err Not_accessible
    | None -> (
        match find_exec t ts udi with
        | None -> err Unknown_domain
        | Some inst ->
            if inst.parent <> cur then err Not_a_child;
            if inst.opts.access <> Accessible then err Not_accessible;
            In_child inst)

let malloc t ~udi size =
  let ts = thread_state t in
  let target = resolve_heap t ts udi in
  let addr =
    with_monitor t ts (fun () ->
        (* Under the sanitizer every allocation (un)poisons redzones — a
           forensically interesting act, so it lands in the flight ring. *)
        if t.sanitizer then
          Flight.record t.flight ~udi ~tid:ts.t_tid ~at:(now ())
            ~trace:(current_trace t) ~arg:size Flight.Alloc_poison;
        match target with
        | In_current ->
            let heap, pkey, track, pool = current_heap t ts in
            heap_malloc t ~heap ~pkey ~pool_size:pool ~grow:track size
        | In_child inst ->
            let heap = inst_heap t inst in
            heap_malloc t ~heap ~pkey:inst.pkey ~pool_size:inst.opts.heap_size
              ~grow:(fun r -> inst.heap_regions <- r :: inst.heap_regions)
              size
        | In_data dd ->
            heap_malloc t ~heap:dd.d_heap ~pkey:dd.d_pkey
              ~pool_size:t.default_heap_size
              ~grow:(fun r -> dd.d_regions <- r :: dd.d_regions)
              size)
  in
  (* Reuse boundary for shadow-cell observers: the block's previous
     occupant's access history must not leak onto the new one. *)
  (match t.race_observer with
  | Some f -> f (Types.Rv_alloc { udi; addr; len = size })
  | None -> ());
  addr

let free t ~udi addr =
  let ts = thread_state t in
  let target = resolve_heap t ts udi in
  with_monitor t ts (fun () ->
      match target with
      | In_current ->
          let heap, _, _, _ = current_heap t ts in
          Tlsf.free heap addr
      | In_child inst -> Tlsf.free (inst_heap t inst) addr
      | In_data dd -> Tlsf.free dd.d_heap addr);
  match t.race_observer with
  | Some f -> f (Types.Rv_free { udi; addr })
  | None -> ()

let usable_size t ~udi addr =
  let ts = thread_state t in
  match resolve_heap t ts udi with
  | In_current ->
      let heap, _, _, _ = current_heap t ts in
      Tlsf.usable_size heap addr
  | In_child inst -> Tlsf.usable_size (inst_heap t inst) addr
  | In_data dd -> Tlsf.usable_size dd.d_heap addr

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
  Fun.protect ~finally:(fun () -> close_gate t) f

let gate_open t = (thread_state t).gate_depth > 0

(* Cached per-(caller, callee) argument-marshalling buffer in the
   callee's heap. Persistent-domain pattern (Figure 3): the callee's heap
   survives [deinit], so the buffer is reused across requests instead of
   a malloc/free pair per call; it is forgotten when the callee is
   discarded or destroyed. *)
let gate_buffer t ?(slot = 0) ~udi size =
  let ts = thread_state t in
  let key = (ts.t_tid, current_udi_of ts, udi, slot) in
  match Hashtbl.find_opt t.gate_bufs key with
  | Some (addr, cap) when cap >= size -> addr
  | prev ->
      (match prev with
      | Some (addr, _) -> free t ~udi addr
      | None -> ());
      let addr = malloc t ~udi size in
      Hashtbl.replace t.gate_bufs key (addr, size);
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
let rewind_victims t ts inst =
  let chain, remainder =
    if List.memq inst ts.entered then
      let rec split acc = function
        | top :: rest when top == inst -> (List.rev (top :: acc), rest)
        | top :: rest -> split (top :: acc) rest
        | [] -> assert false
      in
      split [] ts.entered
    else ([ inst ], ts.entered)
  in
  ts.entered <- remainder;
  List.concat_map
    (fun e -> descendants_post t ts e.udi ~except:chain @ [ e ])
    chain

(* Phase 2: the discard driver. Every iteration re-reads the durable
   progress counter, so after an interrupt the loop resumes exactly where
   the intent record says the last completed step was — on hardware this
   is the trap handler re-entering the monitor and finding the in-flight
   intent. *)
let drive_discards t ts ~audited victims =
  let arr = Array.of_list victims in
  let total = Array.length arr in
  let local_p = ref 0 in
  let progress () =
    if audited then Rewind_log.progress t.audit else !local_p
  in
  (* Bound the faults honored per rewind so an always-firing chaos rule
     cannot keep the monitor in the discard loop forever. *)
  let interrupt_budget = ref (total + 8) in
  let check_interrupt () =
    match t.rewind_fault_hook with
    | Some hook when !interrupt_budget > 0 && hook () ->
        decr interrupt_budget;
        Telemetry.Metrics.inc t.c_rewind_interrupts;
        raise Rewind_interrupted
    | _ -> ()
  in
  let rec drive () =
    let p = progress () in
    if p < total then begin
      (try
         check_interrupt ();
         (if audited then
            (* Resume cross-check: the live tree must agree with the
               durable intent at every step. *)
            match Rewind_log.domain_at t.audit p with
            | Some u -> assert (u = arr.(p).udi)
            | None -> ());
         run_cleanups arr.(p);
         discard_instance t ts arr.(p);
         if audited then Rewind_log.mark_discarded t.audit (p + 1)
         else incr local_p
       with Rewind_interrupted ->
         t.pending_interrupted <- true;
         if audited then Rewind_log.note_interrupt t.audit);
      drive ()
    end
  in
  drive ()

let abnormal_exit ?(record = true) t ts inst fault =
  if record then Telemetry.Metrics.inc t.c_rewinds;
  let t0 = now () in
  Telemetry.Trace.with_span t.tracer "rewind"
    ~args:[ ("udi", string_of_int inst.udi) ]
    (fun () ->
      Telemetry.Trace.with_span t.tracer "rewind.context_restore" (fun () ->
          charge t.cost.context_restore);
      with_monitor t ts (fun () ->
          let victims = rewind_victims t ts inst in
          (match t.race_observer with
          | Some f ->
              f
                (Types.Rv_rewind
                   {
                     tid = ts.t_tid;
                     victims = List.map (fun v -> v.udi) victims;
                   })
          | None -> ());
          (* Phase 1 — intent. A fresh incident first finalizes any stale
             in-flight record (a grandparent rewind whose outer frame
             never ran), so the log cannot wedge. A [~record:false] exit
             is the collateral parent level of a grandparent rewind: its
             subtree chains onto the in-flight incident instead of
             opening a second one. *)
          if record && Rewind_log.pending t.audit then
            Rewind_log.commit t.audit ~at:t0
              ~journal_replays:(journal_replays t);
          let kind, si, fault_addr, msg = trigger_of_cause fault.cause in
          (* The fault lands in the target's flight ring first, so the
             snapshot below — the black-box excerpt frozen into the
             audit record — ends on the event that triggered it. *)
          if record then
            Flight.record t.flight ~udi:fault.failed_udi ~tid:ts.t_tid
              ~at:t0 ~trace:(current_trace t) ~arg:fault_addr Flight.Fault;
          let events =
            List.concat_map
              (fun v -> Flight.snapshot t.flight ~udi:v.udi ~n:t.flight_snap)
              victims
          in
          let audited =
            Rewind_log.begin_incident t.audit ~continue:(not record)
              ~target:fault.failed_udi ~tid:ts.t_tid ~kind ~si ~fault_addr
              ~msg ~at:t0 ~events
              ~subtree:(List.map (extent_of t) victims)
              ()
          in
          Telemetry.Trace.with_span t.tracer "rewind.heap_discard" (fun () ->
              drive_discards t ts ~audited victims);
          (* Phase 3 — commit. A [Grandparent] domain's own exit leaves
             the incident in flight: the collateral exit at the parent
             level (or, failing that, the next incident) completes it. *)
          if (not record) || inst.opts.rewind = Parent then begin
            Rewind_log.commit t.audit ~at:(now ())
              ~journal_replays:(journal_replays t);
            if t.pending_interrupted then begin
              Telemetry.Metrics.inc t.c_incidents_resumed;
              t.pending_interrupted <- false
            end
          end;
          Telemetry.Trace.with_span t.tracer "rewind.policy_update" (fun () ->
              ts.cur_pkru <- compute_pkru t ts)));
  Telemetry.Metrics.observe t.h_rewind_cycles (now () -. t0);
  (* Report the incident (e.g. to a SIEM, §VI "Applicability") outside the
     monitor bracket, in the parent's context. *)
  if record then record_incident t fault

(* Clean up our instance when a foreign exception unwinds through the
   init frame: force-exit if entered, then discard everything, subtree
   included. Descendants' abnormal cleanups run (their last chance);
   [inst]'s own do not — a foreign exception is not this domain's
   abnormal exit, and its resources unwind with the OCaml stack. If a
   grandparent rewind is passing through, the discarded subtree is
   chained onto its in-flight audit record. *)
let teardown_passthrough t ts inst frame_id =
  if inst.frame = frame_id && Hashtbl.mem t.exec_insts (ts.t_tid, inst.udi)
  then
    with_monitor t ts (fun () ->
        ts.entered <- List.filter (fun i -> not (i == inst)) ts.entered;
        let victims = descendants_post t ts inst.udi ~except:[] @ [ inst ] in
        (match t.race_observer with
        | Some f ->
            f
              (Types.Rv_rewind
                 {
                   tid = ts.t_tid;
                   victims = List.map (fun v -> v.udi) victims;
                 })
        | None -> ());
        let audited =
          Rewind_log.pending t.audit
          && Rewind_log.begin_incident t.audit ~continue:true
               ~target:inst.udi ~tid:ts.t_tid ~kind:`Explicit ~si:"-"
               ~fault_addr:0 ~msg:"collateral teardown" ~at:(now ())
               ~events:
                 (List.concat_map
                    (fun v ->
                      Flight.snapshot t.flight ~udi:v.udi ~n:t.flight_snap)
                    victims)
               ~subtree:(List.map (extent_of t) victims)
               ()
        in
        List.iteri
          (fun idx d ->
            if not (d == inst) then run_cleanups d;
            discard_instance t ts d;
            if audited then Rewind_log.mark_discarded t.audit (idx + 1))
          victims;
        ts.cur_pkru <- compute_pkru t ts)

let cause_of_exn = function
  | Space.Fault { addr; code; access; _ } -> Some (Segv { addr; code; access })
  | Stack_check_failure -> Some Stack_smash
  | Attack_detected msg -> Some (Explicit msg)
  | _ -> None

let run t ~udi ?(opts = default_options) ~on_rewind body =
  let ts = thread_state t in
  let inst = init_exec t ts udi opts in
  let frame_id = inst.frame in
  (* The whole protected execution is one span: a fault unwinding
     through it leaves an [aborted:true] trace event (and bumps
     [trace_aborted_spans_total]), so rewound requests are
     distinguishable from clean returns in Chrome exports. *)
  let body () =
    Telemetry.Trace.with_span t.tracer "domain.body"
      ~args:
        (let tr = current_trace t in
         ("udi", string_of_int udi)
         ::
         (if tr = 0L then []
          else [ ("trace", Printf.sprintf "%016Lx" tr) ]))
      body
  in
  match body () with
  | v ->
      (* Convention: the domain must be destroyed or deinitialized before
         the initializing function returns; deinitialize if the user did
         not, so the saved context never dangles. *)
      if
        inst.frame = frame_id
        && Hashtbl.mem t.exec_insts (ts.t_tid, inst.udi)
        && inst.state <> Dormant
      then begin
        while inst.state = Entered do
          exit_domain t
        done;
        deinit t udi
      end;
      v
  | exception Rewind_to_grandparent fault ->
      (* A descendant configured with [Grandparent] was discarded; the
         rewind consumes this frame: this domain aborts as well. *)
      if current_udi_of ts = udi && inst.frame = frame_id then begin
        (* The fault was recorded when the failing descendant was
           discarded; this level is collateral, not a second incident. *)
        abnormal_exit ~record:false t ts inst fault;
        on_rewind fault
      end
      else begin
        teardown_passthrough t ts inst frame_id;
        raise (Rewind_to_grandparent fault)
      end
  | exception e -> (
      match cause_of_exn e with
      | Some cause when current_udi_of ts = udi && inst.frame = frame_id ->
          (* The failure happened while executing in our domain: this is
             the abnormal domain exit for this rewind point. *)
          let fault = { failed_udi = udi; cause; tid = ts.t_tid; at = now () } in
          abnormal_exit t ts inst fault;
          (match inst.opts.rewind with
          | Parent -> on_rewind fault
          | Grandparent -> raise (Rewind_to_grandparent fault))
      | _ ->
          teardown_passthrough t ts inst frame_id;
          raise e)

(* {1 Introspection} *)

let is_initialized t udi =
  let ts = thread_state t in
  match Hashtbl.find_opt t.data_insts udi with
  | Some _ -> true
  | None -> (
      match find_exec t ts udi with
      | Some inst -> inst.state <> Dormant
      | None -> false)

let rewind_count t = Telemetry.Metrics.counter_value t.c_rewinds
let incidents t = List.of_seq (Queue.to_seq t.incident_q)
let dropped_incidents t = Telemetry.Metrics.counter_value t.c_dropped_incidents

(* {2 Rewind audit log}

   Reading the log back dereferences monitor-protected memory, so raise
   privileges when called from a registered simulated thread; outside the
   scheduler the default all-access policy applies. *)
let with_audit_read t f =
  match Hashtbl.find_opt t.threads (cur_tid ()) with
  | Some ts -> with_monitor t ts f
  | None -> f ()

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
let set_incident_handler t h = t.incident_handler <- Some h

(* Compose instead of clobber: the new handler runs first, then whatever
   was installed before it. Lets a supervisor subscribe without stealing
   the slot from application reporting (and vice versa). *)
let add_incident_handler t h =
  let prev = t.incident_handler in
  t.incident_handler <-
    Some
      (fun f ->
        h f;
        match prev with Some p -> p f | None -> ())

let on_abnormal_cleanup t f =
  let ts = thread_state t in
  match current_inst ts with
  | None -> err Root_operation
  | Some inst ->
      let token = ref true in
      inst.cleanups <- (fun () -> if !token then f ()) :: inst.cleanups;
      fun () -> token := false

let domain_pkey t udi =
  match Hashtbl.find_opt t.data_insts udi with
  | Some dd -> Some dd.d_pkey
  | None -> (
      let ts = thread_state t in
      match find_exec t ts udi with
      | Some inst -> Some inst.pkey
      | None -> None)

let monitor_bytes t = Tlsf.used_bytes t.monitor_heap
let monitor_pkey t = t.monitor_pkey
let root_pkey t = t.root_pkey
let has_incident_handler t = t.incident_handler <> None
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
  let region_len r =
    match Space.alloc_len t.space r with Some l -> l | None -> 0
  in
  let execs =
    Hashtbl.fold
      (fun _ inst acc ->
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
        :: acc)
      t.exec_insts []
  in
  let datas =
    Hashtbl.fold
      (fun _ dd acc ->
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
        :: acc)
      t.data_insts []
  in
  List.sort
    (fun a b -> compare (a.di_udi, a.di_tid) (b.di_udi, b.di_tid))
    (execs @ datas)

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
      (match cause_of_exn e with
      | Some _ -> ()
      | None -> exit_domain t);
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

type switch_profile = {
  total_cycles : float;
  wrpkru_cycles : float;
  stack_cycles : float;
  bookkeeping_cycles : float;
  wrpkru_writes : int;
  wrpkru_elided : int;
}

let profile_switch t =
  let probe_udi = 0x7FFF_FF00 in
  run t ~udi:probe_udi
    ~on_rewind:(fun _ -> assert false)
    (fun () ->
      (* Warm-up pair: exclude first-touch page faults from the profile. *)
      enter t probe_udi;
      exit_domain t;
      (* The WRPKRU share is derived from the writes the measured window
         actually executed — not a hardcoded 4x — so the profile stays
         honest when elision or an open gate thins the gate path. *)
      let w0 = Space.wrpkru_writes t.space in
      let e0 = Space.pkru_elided t.space in
      let t0 = Sched.now () in
      enter t probe_udi;
      exit_domain t;
      let total = Sched.now () -. t0 in
      let writes = Space.wrpkru_writes t.space - w0 in
      let elided = Space.pkru_elided t.space - e0 in
      destroy t probe_udi ~heap:`Discard;
      let wrpkru = float_of_int writes *. t.cost.wrpkru in
      let stack =
        (2.0 *. t.cost.stack_switch) +. t.cost.mem_access
      in
      {
        total_cycles = total;
        wrpkru_cycles = wrpkru;
        stack_cycles = stack;
        bookkeeping_cycles = total -. wrpkru -. stack;
        wrpkru_writes = writes;
        wrpkru_elided = elided;
      })
