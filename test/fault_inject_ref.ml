(* The fault-injection decider as it was before [Fault_inject.decide]
   became a top-level loop drawing through [Rng.below]: a [visit]
   closure per consult and a boxed [Rng.float] per draw. Kept as the
   reference the differential test in [test_resilience] holds the
   engine to — same fired kinds, same event log, same draws. *)

module Rng = Simkern.Rng
module Sched = Simkern.Sched
module Fi = Resilience.Fault_inject

type armed = { r : Fi.rule; mutable fired : int }

type t = {
  rng : Rng.t;
  plan : armed list;
  mutable events : Fi.event list;  (* newest first *)
  mutable next_seq : int;
}

let create ~seed plan =
  {
    rng = Rng.create seed;
    plan = List.map (fun r -> { r; fired = 0 }) plan;
    events = [];
    next_seq = 0;
  }

let record t ~site kind =
  let at = if Sched.in_thread () then Sched.now () else 0.0 in
  t.events <-
    { Fi.e_seq = t.next_seq; e_site = site; e_kind = kind; e_at = at }
    :: t.events;
  t.next_seq <- t.next_seq + 1

let decide t ~site =
  let rec visit = function
    | [] -> None
    | a :: rest ->
        if a.r.Fi.site = site && a.fired < a.r.Fi.max_fires then
          if Rng.float t.rng < a.r.Fi.prob then begin
            a.fired <- a.fired + 1;
            record t ~site a.r.Fi.kind;
            Some a.r.Fi.kind
          end
          else visit rest
        else visit rest
  in
  visit t.plan

let log_to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%04d %-16s %-14s @%.0f\n" e.Fi.e_seq e.Fi.e_site
           (Fi.kind_to_string e.Fi.e_kind) e.Fi.e_at))
    (List.rev t.events);
  Buffer.contents buf
