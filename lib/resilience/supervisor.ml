(* Domain supervisor (the layer §VI of the paper leaves open): consumes
   the incident stream of an [Sdrad.Api.t] and enforces per-udi policy so
   that unlimited rollback cannot be turned into a denial-of-service
   amplifier by an attacker who faults the same domain in a loop.

   Each supervised udi moves through a circuit breaker:

     Closed --fault--> Backoff --budget exhausted--> Quarantined
       ^                  |                               |
       |   success        | fault (budget left)           | cooldown
       +------------------+                               v
       ^                                             Half_open (probe)
       |        probe succeeds                            |
       +--------------------------------------------------+
                                     probe faults -> Quarantined again

   In [Backoff] the next admission is delayed exponentially (the wait is
   charged through the virtual clock, like a real supervisor sleeping
   before a restart). In [Quarantined] admissions are rejected outright
   with a distinguishable verdict so callers can degrade (serve busy /
   503) instead of burning re-initialization time. After [cooldown] a
   single half-open probe is admitted; its fate decides between closing
   the breaker and a fresh quarantine. *)

module Api = Sdrad.Api
module Types = Sdrad.Types
module Sched = Simkern.Sched

let log_src = Logs.Src.create "sdrad.supervisor" ~doc:"domain supervisor"

module Log = (val Logs.src_log log_src : Logs.LOG)

type breaker = Closed | Backoff | Quarantined | Half_open

(* The breaker's wire name: metric labels, trace arguments and the
   fleet's heartbeat lines all carry it. *)
let breaker_to_string = function
  | Closed -> "closed"
  | Backoff -> "backoff"
  | Quarantined -> "quarantined"
  | Half_open -> "half-open"

let breaker_of_string = function
  | "backoff" -> Backoff
  | "quarantined" -> Quarantined
  | "half-open" -> Half_open
  | _ -> Closed

type policy = {
  budget_max : int;  (* rewinds within [budget_window] that trip the breaker *)
  budget_window : float;  (* sliding window, virtual cycles *)
  backoff_base : float;  (* first re-init delay *)
  backoff_factor : float;  (* delay multiplier per consecutive fault *)
  backoff_max : float;  (* delay ceiling *)
  cooldown : float;  (* quarantine duration before a half-open probe *)
}

let default_policy =
  {
    budget_max = 3;
    budget_window = 5.0e6;
    backoff_base = 20_000.0;
    backoff_factor = 2.0;
    backoff_max = 1.0e6;
    cooldown = 2.0e6;
  }

(* A float-only record is laid out flat, so setting a field boxes
   nothing. *)
type times = {
  mutable retry_at : float;  (* Backoff: earliest next admission *)
  mutable quarantined_at : float;
}

type dstate = {
  d_udi : Types.udi;
  mutable breaker : breaker;
  mutable recent : Float.Array.t;
      (* the rewind times within the window, [0, n_recent), unordered *)
  mutable n_recent : int;
  mutable strikes : int;  (* consecutive faults since last success *)
  tm : times;
  mutable d_rewinds : int;
  mutable d_quarantines : int;
  mutable d_probes : int;
  mutable d_rejections : int;
}

module M = Telemetry.Metrics
module Trace = Telemetry.Trace

type t = {
  sd : Api.t;
  policy : policy;
  domains : (Types.udi, dstate) Hashtbl.t;
  mutable all : dstate list;  (* [domains]' values, newest first *)
  metrics : M.t;
  tracer : Trace.t;
  edges : M.counter option array;
      (* [supervisor_transitions_total{from,to}] by edge, made on the
         edge's first use *)
  c_rewinds_seen : M.counter;
  c_quarantines : M.counter;
  c_rejections : M.counter;
  c_backoff_waits : M.counter;
  c_probes : M.counter;
  c_probe_successes : M.counter;
}

type verdict = Admitted | Probe | Busy of { until : float }

(* Read from the clock cell: [Sched.now ()] returns a boxed float. *)
let[@inline] now () =
  if Sched.in_thread () then (Sched.clock_cell ()).clock else 0.0

(* [Log.info]'s message closure is built whatever the level: build it
   only when the source reports at [Info]. *)
let info_enabled () =
  match Logs.Src.level log_src with
  | Some (Logs.Info | Logs.Debug) -> true
  | Some (Logs.App | Logs.Error | Logs.Warning) | None -> false

(* [Hashtbl.find], which builds no option on a hit. *)
let dstate t udi =
  match Hashtbl.find t.domains udi with
  | d -> d
  | exception Not_found ->
      let d =
        {
          d_udi = udi;
          breaker = Closed;
          recent = Float.Array.make 4 0.0;
          n_recent = 0;
          strikes = 0;
          tm = { retry_at = 0.0; quarantined_at = 0.0 };
          d_rewinds = 0;
          d_quarantines = 0;
          d_probes = 0;
          d_rejections = 0;
        }
      in
      Hashtbl.replace t.domains udi d;
      t.all <- d :: t.all;
      d

let index = function
  | Closed -> 0
  | Backoff -> 1
  | Quarantined -> 2
  | Half_open -> 3

(* The counter of the edge [from] -> [target], registered on the edge's
   first use and kept. *)
let edge_counter t from target =
  let i = (4 * index from) + index target in
  match t.edges.(i) with
  | Some c -> c
  | None ->
      let c =
        M.counter t.metrics "supervisor_transitions_total"
          ~help:"Breaker edges taken, by (from, to) state"
          ~labels:
            [
              ("from", breaker_to_string from);
              ("to", breaker_to_string target);
            ]
      in
      t.edges.(i) <- Some c;
      c

(* Move the breaker one edge, counting the edge under
   [supervisor_transitions_total{from,to}] and dropping a trace marker —
   the observable contract the breaker tests assert on. *)
let transition t d target =
  let from = d.breaker in
  if from <> target then begin
    M.inc (edge_counter t from target);
    if Trace.enabled t.tracer then
      Trace.instant t.tracer "supervisor.transition"
        ~args:
          [
            ("udi", string_of_int d.d_udi);
            ("from", breaker_to_string from);
            ("to", breaker_to_string target);
          ];
    d.breaker <- target
  end

let quarantine t d ~at =
  transition t d Quarantined;
  d.tm.quarantined_at <- at;
  d.d_quarantines <- d.d_quarantines + 1;
  M.inc t.c_quarantines;
  Log.warn (fun m ->
      m "domain %d quarantined until %.0f (%d rewinds in window)" d.d_udi
        (at +. t.policy.cooldown) d.n_recent)

(* Keep the rewind times within [window] of [at], in place, and add
   [at]. *)
let note_rewind d at window =
  let r = d.recent in
  let kept = ref 0 in
  for i = 0 to d.n_recent - 1 do
    let ts = Float.Array.unsafe_get r i in
    if at -. ts <= window then begin
      Float.Array.unsafe_set r !kept ts;
      incr kept
    end
  done;
  if !kept = Float.Array.length r then begin
    let g = Float.Array.make (2 * !kept) 0.0 in
    Float.Array.blit r 0 g 0 !kept;
    d.recent <- g
  end;
  Float.Array.unsafe_set d.recent !kept at;
  d.n_recent <- !kept + 1

let on_incident t (f : Types.fault) =
  let d = dstate t f.failed_udi in
  let at = f.at in
  M.inc t.c_rewinds_seen;
  d.d_rewinds <- d.d_rewinds + 1;
  note_rewind d at t.policy.budget_window;
  d.strikes <- d.strikes + 1;
  match d.breaker with
  | Half_open ->
      (* The probe itself faulted: straight back to quarantine. *)
      quarantine t d ~at
  | Closed | Backoff ->
      if d.n_recent >= t.policy.budget_max then quarantine t d ~at
      else begin
        transition t d Backoff;
        let delay =
          Float.min t.policy.backoff_max
            (t.policy.backoff_base
            *. (t.policy.backoff_factor ** float_of_int (d.strikes - 1)))
        in
        d.tm.retry_at <- at +. delay;
        if info_enabled () then
          Log.info (fun m ->
              m "domain %d backing off %.0f cycles (strike %d)" d.d_udi delay
                d.strikes)
      end
  | Quarantined ->
      (* A rewind while quarantined means the caller bypassed [admit];
         restart the cooldown so repeat offenders stay fenced. *)
      d.tm.quarantined_at <- at

let attach ?(policy = default_policy) sd =
  let metrics = Api.metrics sd in
  let t =
    {
      sd;
      policy;
      domains = Hashtbl.create 16;
      all = [];
      metrics;
      tracer = Api.tracer sd;
      edges = Array.make 16 None;
      c_rewinds_seen =
        M.counter metrics "supervisor_rewinds_seen_total"
          ~help:"Incidents consumed from the monitor's stream";
      c_quarantines =
        M.counter metrics "supervisor_quarantines_total"
          ~help:"Breaker trips into quarantine";
      c_rejections =
        M.counter metrics "supervisor_rejections_total"
          ~help:"Admissions rejected while quarantined or probing";
      c_backoff_waits =
        M.counter metrics "supervisor_backoff_waits_total"
          ~help:"Admissions delayed by exponential backoff";
      c_probes =
        M.counter metrics "supervisor_probes_total"
          ~help:"Half-open probes admitted after cooldown";
      c_probe_successes =
        M.counter metrics "supervisor_probe_successes_total"
          ~help:"Probes that closed the breaker";
    }
  in
  M.gauge_fn metrics "supervisor_supervised_domains"
    ~help:"Domains with supervision state" (fun () ->
      float_of_int (Hashtbl.length t.domains));
  Api.on_incident sd (on_incident t);
  t

let admit t ~udi =
  let d = dstate t udi in
  match d.breaker with
  | Closed -> Admitted
  | Backoff ->
      (* The exponential re-init delay is real virtual time: the caller
         sleeps until the retry point, exactly like a supervisor pausing
         before restarting a crashing child. The test reads the clock
         cell; only a wait boxes the retry time. *)
      if Sched.in_thread () && (Sched.clock_cell ()).clock < d.tm.retry_at
      then begin
        M.inc t.c_backoff_waits;
        if Trace.enabled t.tracer then
          Trace.with_span t.tracer "supervisor.backoff_wait"
            ~args:[ ("udi", string_of_int d.d_udi) ]
            (fun () -> Sched.wait_until d.tm.retry_at)
        else Sched.wait_until d.tm.retry_at
      end;
      Admitted
  | Half_open ->
      (* One probe in flight at a time. *)
      d.d_rejections <- d.d_rejections + 1;
      M.inc t.c_rejections;
      Busy { until = d.tm.quarantined_at +. t.policy.cooldown }
  | Quarantined ->
      let release = d.tm.quarantined_at +. t.policy.cooldown in
      if now () >= release then begin
        transition t d Half_open;
        d.d_probes <- d.d_probes + 1;
        M.inc t.c_probes;
        if Trace.enabled t.tracer then
          Trace.instant t.tracer "supervisor.probe"
            ~args:[ ("udi", string_of_int d.d_udi) ];
        if info_enabled () then
          Log.info (fun m -> m "domain %d: half-open probe admitted" d.d_udi);
        Probe
      end
      else begin
        d.d_rejections <- d.d_rejections + 1;
        M.inc t.c_rejections;
        Busy { until = release }
      end

let succeed t ~udi =
  let d = dstate t udi in
  d.strikes <- 0;
  match d.breaker with
  | Half_open ->
      transition t d Closed;
      d.n_recent <- 0;
      M.inc t.c_probe_successes;
      if info_enabled () then
        Log.info (fun m ->
            m "domain %d: probe succeeded, breaker closed" d.d_udi)
  | Backoff -> transition t d Closed
  | Closed | Quarantined -> ()

(* {1 Wrappers} *)

(* Supervised [Api.run]: quarantined udis are rejected with [on_busy]
   before any domain state is touched, so the caller can degrade instead
   of crash; a normally completing body counts as a success, recorded
   once [Api.run] has returned its value — [Api.rewound] tells it from
   [on_rewind]'s — so no closure is built around [body]. The rewind path
   needs no bookkeeping here — the incident handler already saw it. *)
let run t ~udi ?opts ~on_rewind ~on_busy body =
  match admit t ~udi with
  | Busy { until } -> on_busy ~until
  | Admitted | Probe ->
      let v = Api.run t.sd ~udi ?opts ~on_rewind body in
      if not (Api.rewound t.sd) then succeed t ~udi;
      v

type 'a outcome =
  | Ok of 'a
  | Faulted of Types.fault
  | Rejected of { udi : Types.udi; until : float }

(* Supervised [Api.protect_call] with a distinguishable rejection. *)
let protect_call t ~udi ?opts ~arg f =
  match admit t ~udi with
  | Busy { until } ->
      Rejected { udi; until }
  | Admitted | Probe -> (
      match Api.protect_call t.sd ~udi ?opts ~arg f with
      | Result.Ok v ->
          succeed t ~udi;
          Ok v
      | Result.Error fault -> Faulted fault)

(* {1 Introspection} *)

let breaker_state t ~udi =
  match Hashtbl.find_opt t.domains udi with
  | Some d -> d.breaker
  | None -> Closed

let states t =
  Hashtbl.fold (fun udi d acc -> (udi, d.breaker) :: acc) t.domains []
  |> List.sort compare

let rank = function Closed -> 0 | Half_open -> 1 | Backoff -> 2 | Quarantined -> 3

(* A fold with no list built: [rank] is injective, so the worst breaker
   does not depend on the order the domains are visited in. *)
let worst_breaker t =
  List.fold_left
    (fun acc d -> if rank d.breaker > rank acc then d.breaker else acc)
    Closed t.all

let domain_counters t ~udi =
  let d = dstate t udi in
  [
    ("rewinds", d.d_rewinds);
    ("quarantines", d.d_quarantines);
    ("probes", d.d_probes);
    ("rejections", d.d_rejections);
  ]

let stats t =
  [
    ("supervised_domains", Hashtbl.length t.domains);
    ("rewinds_seen", M.counter_value t.c_rewinds_seen);
    ("quarantines", M.counter_value t.c_quarantines);
    ("rejections", M.counter_value t.c_rejections);
    ("backoff_waits", M.counter_value t.c_backoff_waits);
    ("probes", M.counter_value t.c_probes);
    ("probe_successes", M.counter_value t.c_probe_successes);
  ]

let transition_count t ~from ~target =
  M.counter_value
    (M.counter t.metrics "supervisor_transitions_total"
       ~labels:
         [ ("from", breaker_to_string from); ("to", breaker_to_string target) ])

