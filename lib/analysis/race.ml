module Sched = Simkern.Sched
module Space = Vmem.Space
module Api = Sdrad.Api
module Types = Sdrad.Types

(* Rewind-aware data-race and rewind-atomicity detector.

   The deterministic simulation makes dynamic race detection exact for
   the schedule it observes: every checked memory access, every lock
   transfer and every domain gate passes through a hook, so the detector
   maintains FastTrack-style vector clocks over simkern fibers and
   Eraser-style per-granule locksets as pure host-side state. Nothing it
   does touches simulated memory or charges virtual time — an attached
   detector is invisible to the run it watches (the differential test in
   test_races.ml holds a 5-seed chaos run byte-for-byte identical with
   the detector on and off).

   Three finding classes (rule names in {!Rules}):
   - shared-race:      HB-unordered conflicting accesses to a shared
                       granule (vector clocks decide; the common lockset
                       decorates the report, Eraser-style).
   - rewind-atomicity: a write to shared memory from inside a nested
                       domain with no Dlock held — a rewind of that
                       domain discards its execution but not the shared
                       write, publishing torn state that lock poisoning
                       never flags.
   - lock-discipline:  a Dlock acquired in one domain and released in
                       another, or a poisoned Dlock cleared without a
                       guarding write to the state it protects.

   "Shared" memory is data-domain memory (every data domain is shared by
   construction; the detector learns their pkeys from Rv_shared events)
   plus, optionally, the root heap. *)

type finding = {
  rule : string;
  severity : Policy.severity;
  udi : int option;
  addr : int option;  (* granule base address, when address-shaped *)
  tid : int;  (* acting thread; -1 when not thread-shaped *)
  message : string;
}

(* {1 Vector clocks} *)

type vc = { mutable a : int array }

let vc_create () = { a = [||] }
let vc_get v i = if i >= 0 && i < Array.length v.a then v.a.(i) else 0

let vc_set v i x =
  if i >= Array.length v.a then begin
    let a' = Array.make (max (i + 1) ((2 * Array.length v.a) + 4)) 0 in
    Array.blit v.a 0 a' 0 (Array.length v.a);
    v.a <- a'
  end;
  v.a.(i) <- x

let vc_join dst src =
  Array.iteri (fun i x -> if x > vc_get dst i then vc_set dst i x) src.a

(* {1 Per-entity shadow state} *)

type tstate = {
  tvc : vc;
  mutable held : int list;  (* exclusive locks held, innermost first *)
  mutable rheld : int list;  (* read-side rwlocks held *)
  mutable dheld : int list;  (* held Dlocks (by scheduler lock id) *)
  mutable dstack : int list;  (* entered nested domains, innermost first *)
}

type lstate = { lvc : vc }

type dlstate = {
  mutable acq_udi : int;
  mutable guard_writes : int;  (* shared writes made while held *)
  mutable dpoisoned : bool;
}

(* Shadow cell per granule. Read state is adaptive as in FastTrack: a
   single (tid, clock) epoch until two concurrent readers force a full
   read vector ([r_tid = -2]). *)
type cell = {
  mutable w_tid : int;  (* -1 = never written *)
  mutable w_clk : int;
  mutable w_udi : int;  (* domain context of last write; -1 = root *)
  mutable r_tid : int;  (* -1 = none, -2 = vector mode *)
  mutable r_clk : int;
  mutable r_vc : int array;  (* tid -> clock, vector mode only *)
  mutable ls : int list option;  (* common lockset; None until first access *)
}

type t = {
  sd : Api.t;
  space : Space.t;
  granule_shift : int;
  max_findings : int;
  mutable tracked : int;  (* bitmask of shared pkeys *)
  pkey_udi : int array;  (* pkey -> owning data-domain udi; -1 = root *)
  cells : (int, cell) Hashtbl.t;  (* granule index -> cell *)
  tstates : (int, tstate) Hashtbl.t;  (* tid -> thread shadow state *)
  locks : (int, lstate) Hashtbl.t;  (* scheduler lock id -> lock clock *)
  dlocks : (int, dlstate) Hashtbl.t;  (* Dlocks, by scheduler lock id *)
  allocs : (int, int) Hashtbl.t;  (* monitor-mediated blocks: addr -> len *)
  seen : (string, unit) Hashtbl.t;  (* finding dedup keys *)
  mutable findings_rev : finding list;
  mutable stored : int;
  counts : int array;  (* per class: shared-race, atomicity, discipline *)
  mutable accesses : int;  (* tracked (shared-granule) accesses *)
  mutable edges : int;  (* synchronization edges processed *)
  mutable attached : bool;
}

let class_race = 0
let class_atom = 1
let class_disc = 2

(* {1 Helpers} *)

let tstate t tid =
  match Hashtbl.find_opt t.tstates tid with
  | Some ts -> ts
  | None ->
      let ts =
        { tvc = vc_create (); held = []; rheld = []; dheld = []; dstack = [] }
      in
      vc_set ts.tvc tid 1;
      Hashtbl.replace t.tstates tid ts;
      ts

let lstate t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some l -> l
  | None ->
      let l = { lvc = vc_create () } in
      Hashtbl.replace t.locks lock l;
      l

let tick ts tid = vc_set ts.tvc tid (vc_get ts.tvc tid + 1)
let remove_id id l = List.filter (fun x -> x <> id) l

let inter a b = List.filter (fun x -> List.mem x b) a

let add_finding t key cls f =
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    t.counts.(cls) <- t.counts.(cls) + 1;
    if t.stored < t.max_findings then begin
      t.findings_rev <- f :: t.findings_rev;
      t.stored <- t.stored + 1
    end
  end

let lockset_text c =
  match c.ls with
  | Some (_ :: _ as ls) ->
      Printf.sprintf "common locks {%s}"
        (String.concat "," (List.map string_of_int (List.sort compare ls)))
  | Some [] | None -> "no common lock"

(* {1 The access path (shadow cells)} *)

let report_race t c g ~owner ~prev_kind ~prev_tid ~tid ~is_w =
  let addr = g lsl t.granule_shift in
  add_finding t
    (Printf.sprintf "r:%d" g)
    class_race
    {
      rule = "shared-race";
      severity = Policy.Error;
      udi = (if owner >= 0 then Some owner else None);
      addr = Some addr;
      tid;
      message =
        Printf.sprintf
          "0x%x: %s by t%d is unordered with earlier %s by t%d (%s)" addr
          (if is_w then "write" else "read")
          tid prev_kind prev_tid (lockset_text c);
    }

let report_atomicity t g ~udi ~tid =
  let addr = g lsl t.granule_shift in
  (* One report per (domain, page): a torn structure spans granules. *)
  add_finding t
    (Printf.sprintf "a:%d:%d" udi (addr lsr 12))
    class_atom
    {
      rule = "rewind-atomicity";
      severity = Policy.Error;
      udi = Some udi;
      addr = Some addr;
      tid;
      message =
        Printf.sprintf
          "0x%x: write to shared memory inside nested domain %d with no \
           Dlock held - a rewind of the domain publishes the torn write"
          addr udi;
    }

let cell_of t g =
  match Hashtbl.find_opt t.cells g with
  | Some c -> c
  | None ->
      let c =
        {
          w_tid = -1;
          w_clk = 0;
          w_udi = -1;
          r_tid = -1;
          r_clk = 0;
          r_vc = [||];
          ls = None;
        }
      in
      Hashtbl.replace t.cells g c;
      c

let process t ts tid g ~owner ~is_w =
  let c = cell_of t g in
  let myclk = vc_get ts.tvc tid in
  (* Eraser refinement: intersect the lockset the accessor holds into the
     cell's candidate set. Read-held rwlocks count for reads only. *)
  let lsnow = if is_w then ts.held else ts.held @ ts.rheld in
  (match c.ls with
  | None -> c.ls <- Some lsnow
  | Some prev -> c.ls <- Some (inter prev lsnow));
  if is_w then begin
    if c.w_tid >= 0 && c.w_tid <> tid && c.w_clk > vc_get ts.tvc c.w_tid then
      report_race t c g ~owner ~prev_kind:"write" ~prev_tid:c.w_tid ~tid ~is_w;
    (match c.r_tid with
    | -2 ->
        let n = Array.length c.r_vc in
        let rec scan k =
          if k < n then
            if k <> tid && c.r_vc.(k) > 0 && c.r_vc.(k) > vc_get ts.tvc k
            then report_race t c g ~owner ~prev_kind:"read" ~prev_tid:k ~tid ~is_w
            else scan (k + 1)
        in
        scan 0
    | rt when rt >= 0 && rt <> tid && c.r_clk > vc_get ts.tvc rt ->
        report_race t c g ~owner ~prev_kind:"read" ~prev_tid:rt ~tid ~is_w
    | _ -> ());
    (match ts.dstack with
    | udi :: _ when ts.dheld = [] -> report_atomicity t g ~udi ~tid
    | _ -> ());
    List.iter
      (fun lid ->
        match Hashtbl.find_opt t.dlocks lid with
        | Some d -> d.guard_writes <- d.guard_writes + 1
        | None -> ())
      ts.dheld;
    c.w_tid <- tid;
    c.w_clk <- myclk;
    c.w_udi <- (match ts.dstack with u :: _ -> u | [] -> -1);
    (* The reads just checked are ordered before this write; the write
       epoch now dominates them (FastTrack's exclusive transition). *)
    c.r_tid <- -1;
    c.r_clk <- 0;
    c.r_vc <- [||]
  end
  else begin
    if c.w_tid >= 0 && c.w_tid <> tid && c.w_clk > vc_get ts.tvc c.w_tid then
      report_race t c g ~owner ~prev_kind:"write" ~prev_tid:c.w_tid ~tid ~is_w;
    match c.r_tid with
    | -1 ->
        c.r_tid <- tid;
        c.r_clk <- myclk
    | -2 ->
        if tid >= Array.length c.r_vc then begin
          let a' = Array.make (tid + 4) 0 in
          Array.blit c.r_vc 0 a' 0 (Array.length c.r_vc);
          c.r_vc <- a'
        end;
        c.r_vc.(tid) <- myclk
    | rt when rt = tid -> c.r_clk <- myclk
    | rt ->
        if c.r_clk <= vc_get ts.tvc rt then begin
          (* The previous read epoch happens-before us: still exclusive. *)
          c.r_tid <- tid;
          c.r_clk <- myclk
        end
        else begin
          (* Two concurrent readers: promote to a read vector. *)
          let a = Array.make (max rt tid + 4) 0 in
          a.(rt) <- c.r_clk;
          a.(tid) <- myclk;
          c.r_vc <- a;
          c.r_tid <- -2;
          c.r_clk <- 0
        end
  end

let on_access t addr len access =
  match access with
  | Space.Exec -> ()
  | Space.Read | Space.Write ->
      if Sched.in_thread () then begin
        let pkey = Space.pkey_of_addr t.space addr in
        if t.tracked land (1 lsl pkey) <> 0 then begin
          t.accesses <- t.accesses + 1;
          let tid = Sched.self () in
          let ts = tstate t tid in
          let is_w = access = Space.Write in
          let owner =
            if pkey < Array.length t.pkey_udi then t.pkey_udi.(pkey) else -1
          in
          for g = addr asr t.granule_shift to (addr + len - 1) asr t.granule_shift
          do
            process t ts tid g ~owner ~is_w
          done
        end
      end

(* {1 Scheduler events (happens-before skeleton)} *)

let on_sched t ev =
  t.edges <- t.edges + 1;
  match ev with
  | Sched.Spawned { parent; child } ->
      let cs = tstate t child in
      if parent >= 0 then begin
        let ps = tstate t parent in
        vc_join cs.tvc ps.tvc;
        vc_set cs.tvc child (max 1 (vc_get cs.tvc child));
        tick ps parent
      end
  | Sched.Joined { waiter; joined } ->
      vc_join (tstate t waiter).tvc (tstate t joined).tvc
  | Sched.Locked { lock; tid } ->
      let ts = tstate t tid in
      vc_join ts.tvc (lstate t lock).lvc;
      ts.held <- lock :: ts.held
  | Sched.Unlocked { lock; tid } ->
      let ts = tstate t tid in
      vc_join (lstate t lock).lvc ts.tvc;
      tick ts tid;
      ts.held <- remove_id lock ts.held
  | Sched.Rd_locked { lock; tid } ->
      let ts = tstate t tid in
      vc_join ts.tvc (lstate t lock).lvc;
      ts.rheld <- lock :: ts.rheld
  | Sched.Rd_unlocked { lock; tid } ->
      let ts = tstate t tid in
      (* Conservative: the reader's clock joins the lock, giving the next
         writer an edge over every reader that already unlocked. *)
      vc_join (lstate t lock).lvc ts.tvc;
      tick ts tid;
      ts.rheld <- remove_id lock ts.rheld

(* {1 Monitor events (gates, rewinds, Dlocks, allocation reuse)} *)

let report_discipline t ~udi ~tid message =
  add_finding t ("d:" ^ message) class_disc
    {
      rule = "lock-discipline";
      severity = Policy.Warning;
      udi = Some udi;
      addr = None;
      tid;
      message;
    }

let on_dlock t ~lock ~tid ~udi op =
  let ts = tstate t tid in
  match (op : Types.race_lock_op) with
  | Types.Rl_acquire _ ->
      let d =
        match Hashtbl.find_opt t.dlocks lock with
        | Some d -> d
        | None ->
            let d = { acq_udi = 0; guard_writes = 0; dpoisoned = false } in
            Hashtbl.replace t.dlocks lock d;
            d
      in
      d.acq_udi <- udi;
      d.guard_writes <- 0;
      ts.dheld <- lock :: ts.dheld
  | Types.Rl_release ->
      (match Hashtbl.find_opt t.dlocks lock with
      | Some d when d.acq_udi <> udi ->
          report_discipline t ~udi ~tid
            (Printf.sprintf
               "dlock %d: acquired in domain %d but released in domain %d - \
                the critical section spans a rewind boundary"
               lock d.acq_udi udi)
      | Some _ | None -> ());
      ts.dheld <- remove_id lock ts.dheld
  | Types.Rl_poison ->
      (match Hashtbl.find_opt t.dlocks lock with
      | Some d -> d.dpoisoned <- true
      | None -> ());
      ts.dheld <- remove_id lock ts.dheld
  | Types.Rl_clear -> (
      match Hashtbl.find_opt t.dlocks lock with
      | Some d ->
          if d.dpoisoned && d.guard_writes = 0 then
            report_discipline t ~udi ~tid
              (Printf.sprintf
                 "dlock %d: poison cleared with no guarding write to the \
                  protected state since reacquisition"
                 lock);
          d.dpoisoned <- false
      | None -> ())

let track_key t ~pkey ~udi =
  if pkey >= 0 && pkey < Array.length t.pkey_udi then begin
    t.tracked <- t.tracked lor (1 lsl pkey);
    t.pkey_udi.(pkey) <- udi
  end

let clear_range t addr len =
  if len > 0 then
    for g = addr asr t.granule_shift to (addr + len - 1) asr t.granule_shift
    do
      Hashtbl.remove t.cells g
    done

let on_api t ev =
  t.edges <- t.edges + 1;
  match (ev : Types.race_event) with
  | Types.Rv_domain { tid; udi; enter } ->
      let ts = tstate t tid in
      (if enter then ts.dstack <- udi :: ts.dstack
       else
         match ts.dstack with
         | u :: rest when u = udi -> ts.dstack <- rest
         | _ -> ts.dstack <- remove_id udi ts.dstack);
      (* Gate edge: a fresh epoch per atomicity scope, so reports can tie
         accesses to the scope they happened in. *)
      tick ts tid
  | Types.Rv_rewind { tid; victims } ->
      let ts = tstate t tid in
      ts.dstack <- List.filter (fun u -> not (List.mem u victims)) ts.dstack;
      (* Rewind edge: post-rewind execution is a new epoch. *)
      tick ts tid
  | Types.Rv_shared { udi; pkey } -> track_key t ~pkey ~udi
  | Types.Rv_unshared { udi = _; pkey } ->
      if pkey >= 0 && pkey < Array.length t.pkey_udi then begin
        t.tracked <- t.tracked land lnot (1 lsl pkey);
        t.pkey_udi.(pkey) <- -1
      end
  | Types.Rv_alloc { addr; len; _ } ->
      (* Address-reuse boundary: the previous occupant's history must not
         race with the new one's. *)
      Hashtbl.replace t.allocs addr len;
      clear_range t addr len
  | Types.Rv_free { addr; _ } -> (
      match Hashtbl.find_opt t.allocs addr with
      | Some len ->
          Hashtbl.remove t.allocs addr;
          clear_range t addr len
      | None -> ())
  | Types.Rv_lock { lock; tid; udi; op } -> on_dlock t ~lock ~tid ~udi op

(* {1 Attach / detach} *)

(* All live detectors share the single scheduler trace-hook slot; each
   keeps its own clocks (tids are global across one process's runs). *)
let live : t list ref = ref []
let sched_dispatch ev = List.iter (fun d -> on_sched d ev) !live

let findings t = List.rev t.findings_rev

let class_count t cls =
  match cls with
  | `Shared_race -> t.counts.(class_race)
  | `Rewind_atomicity -> t.counts.(class_atom)
  | `Lock_discipline -> t.counts.(class_disc)

let total t = t.counts.(class_race) + t.counts.(class_atom) + t.counts.(class_disc)

let register_metrics t =
  let m = Api.metrics t.sd in
  let module M = Telemetry.Metrics in
  List.iter
    (fun (cls, label) ->
      M.counter_fn m "race_findings_total"
        ~help:"Race-detector findings by class"
        ~labels:[ ("class", label) ]
        (fun () -> t.counts.(cls)))
    [
      (class_race, "shared-race");
      (class_atom, "rewind-atomicity");
      (class_disc, "lock-discipline");
    ];
  M.counter_fn m "race_tracked_accesses_total"
    ~help:"Checked accesses that touched tracked shared memory" (fun () ->
      t.accesses);
  M.counter_fn m "race_sync_edges_total"
    ~help:"Happens-before edges fed to the race detector" (fun () -> t.edges);
  M.gauge_fn m "race_shadow_cells"
    ~help:"Live shadow cells (tracked granules with access history)"
    (fun () -> float_of_int (Hashtbl.length t.cells))

let attach ?(granule = 8) ?(track_root = false) ?(max_findings = 64) sd =
  let shift =
    match granule with
    | 1 -> 0
    | 2 -> 1
    | 4 -> 2
    | 8 -> 3
    | 16 -> 4
    | _ -> invalid_arg "Race.attach: granule must be 1, 2, 4, 8 or 16"
  in
  let t =
    {
      sd;
      space = Api.space sd;
      granule_shift = shift;
      max_findings;
      tracked = 0;
      pkey_udi = Array.make 16 (-1);
      cells = Hashtbl.create 4096;
      tstates = Hashtbl.create 16;
      locks = Hashtbl.create 16;
      dlocks = Hashtbl.create 8;
      allocs = Hashtbl.create 256;
      seen = Hashtbl.create 64;
      findings_rev = [];
      stored = 0;
      counts = Array.make 3 0;
      accesses = 0;
      edges = 0;
      attached = true;
    }
  in
  (* Data domains that already exist are shared memory too. *)
  List.iter
    (fun (di : Api.domain_info) ->
      match di.di_kind with
      | `Data when di.di_pkey >= 0 -> track_key t ~pkey:di.di_pkey ~udi:di.di_udi
      | _ -> ())
    (Api.domains_info sd);
  if track_root then track_key t ~pkey:(Api.root_pkey sd) ~udi:(-1);
  Api.set_race_observer sd (Some (on_api t));
  Space.set_access_hook t.space (Some (on_access t));
  live := !live @ [ t ];
  Sched.set_trace_hook (Some sched_dispatch);
  register_metrics t;
  t

let detach t =
  if t.attached then begin
    t.attached <- false;
    Space.set_access_hook t.space None;
    Api.set_race_observer t.sd None;
    live := List.filter (fun d -> d != t) !live;
    if !live = [] then Sched.set_trace_hook None
  end

let attached t = t.attached

(* {1 Reporting} *)

let errors t =
  List.length
    (List.filter (fun f -> f.severity = Policy.Error) (findings t))

let warnings t =
  List.length
    (List.filter (fun f -> f.severity = Policy.Warning) (findings t))

let to_text t =
  let fs = findings t in
  if fs = [] then "races OK: no findings\n"
  else begin
    let b = Buffer.create 256 in
    List.iter
      (fun f ->
        Buffer.add_string b
          (Printf.sprintf "%-7s %-16s %s %s\n"
             (String.uppercase_ascii (Policy.severity_to_string f.severity))
             f.rule
             (match f.udi with
             | Some u -> Printf.sprintf "udi=%d" u
             | None -> "udi=-")
             f.message))
      fs;
    Buffer.add_string b
      (Printf.sprintf
         "%d shared-race, %d rewind-atomicity, %d lock-discipline \
          (%d access(es) checked, %d sync edge(s))\n"
         t.counts.(class_race)
         t.counts.(class_atom)
         t.counts.(class_disc)
         t.accesses t.edges);
    Buffer.contents b
  end

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"rule\":\"%s\",\"severity\":\"%s\",\"udi\":%s,\"addr\":%s,\"tid\":%d,\"message\":\"%s\"}"
           (json_escape f.rule)
           (Policy.severity_to_string f.severity)
           (match f.udi with Some u -> string_of_int u | None -> "null")
           (match f.addr with Some a -> string_of_int a | None -> "null")
           f.tid (json_escape f.message)))
    (findings t);
  Buffer.add_string b
    (Printf.sprintf
       "],\"shared_race\":%d,\"rewind_atomicity\":%d,\"lock_discipline\":%d,\"accesses\":%d,\"sync_edges\":%d}"
       t.counts.(class_race)
       t.counts.(class_atom)
       t.counts.(class_disc)
       t.accesses t.edges);
  Buffer.contents b

(* Publication is deliberately separate from detection: recording a
   flight event writes monitor memory through checked accesses and
   charges virtual time, which would perturb the run. Call this from
   inside the simulation once the workload is done. *)
let publish t =
  List.iter
    (fun f ->
      Api.flight_event t.sd ?udi:f.udi
        ?arg:(match f.addr with Some a -> Some a | None -> None)
        Checkpoint.Flight.Race)
    (findings t)
