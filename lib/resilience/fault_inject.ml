(* Deterministic fault-injection engine.

   A plan is an ordered list of rules, each bound to a stable site label
   ("kv.alloc", "httpd.parse", "net.c2s", ...). Substrates consult the
   engine at their injection points ([decide], or one of the [arm_*]
   adapters that plug directly into the Tlsf / Netsim hooks); every
   eligible rule visit costs exactly one draw from a private splitmix64
   stream, so with a deterministic scheduler the whole fault sequence is
   a pure function of [(seed, plan)] — a failing chaos run is replayable
   bit-for-bit, and two runs of the same experiment must produce
   byte-identical event logs ([log_to_string]). *)

module Rng = Simkern.Rng
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Space = Vmem.Space

type kind =
  | Alloc_fail  (* Tlsf malloc returns OOM *)
  | Bit_flip  (* single-event upset in a mapped byte *)
  | Wild_write  (* stray store into an unmapped page *)
  | Stack_smash  (* clobber the canary of a stack frame *)
  | Net_drop  (* message silently lost *)
  | Net_truncate  (* message cut short at a random offset *)
  | Net_delay of float  (* latency spike, extra cycles *)
  | Kill_thread  (* scheduler-level loss of a thread *)
  | Heap_overflow  (* write one byte past an allocation's usable size *)
  | Use_after_free  (* read a block after freeing it *)
  | Rewind_interrupt  (* second fault arriving mid-rewind (two-phase path) *)
  | Shard_crash  (* whole monitor instance lost (cluster tier) *)
  | Net_partition of float  (* shard unreachable for this many cycles *)

let kind_to_string = function
  | Alloc_fail -> "alloc-fail"
  | Bit_flip -> "bit-flip"
  | Wild_write -> "wild-write"
  | Stack_smash -> "stack-smash"
  | Net_drop -> "net-drop"
  | Net_truncate -> "net-truncate"
  | Net_delay d -> Printf.sprintf "net-delay(%.0f)" d
  | Kill_thread -> "kill-thread"
  | Heap_overflow -> "heap-overflow"
  | Use_after_free -> "use-after-free"
  | Rewind_interrupt -> "rewind-interrupt"
  | Shard_crash -> "shard-crash"
  | Net_partition d -> Printf.sprintf "net-partition(%.0f)" d

type rule = {
  site : string;
  kind : kind;
  prob : float;  (* per-visit firing probability *)
  max_fires : int;  (* total firing budget for this rule *)
}

let rule ?(prob = 1.0) ?(max_fires = max_int) ~site kind =
  { site; kind; prob; max_fires }

type event = { e_seq : int; e_site : string; e_kind : kind; e_at : float }

(* [fires] is [Some r.kind], made once: a firing consult returns it. *)
type armed = { r : rule; fires : kind option; mutable fired : int }

type t = {
  seed : int;
  rng : Rng.t;
  plan : armed list;
  mutable events : event list;  (* newest first *)
  mutable next_seq : int;
}

let create ~seed plan =
  {
    seed;
    rng = Rng.create seed;
    plan = List.map (fun r -> { r; fires = Some r.kind; fired = 0 }) plan;
    events = [];
    next_seq = 0;
  }

let seed t = t.seed

let record t ~site kind =
  let at = if Sched.in_thread () then Sched.now () else 0.0 in
  t.events <-
    { e_seq = t.next_seq; e_site = site; e_kind = kind; e_at = at } :: t.events;
  t.next_seq <- t.next_seq + 1

(* One draw per eligible (site-matching, budget-remaining) rule, in plan
   order; the first rule whose draw lands under its probability fires.
   A top-level loop with the draw compared inside [Rng]: a consult that
   fires nothing builds no closure and boxes no float. *)
let rec decide_from t site = function
  | [] -> None
  | a :: rest ->
      if a.r.site = site && a.fired < a.r.max_fires && Rng.below t.rng a.r.prob
      then begin
        a.fired <- a.fired + 1;
        record t ~site a.r.kind;
        a.fires
      end
      else decide_from t site rest

let decide t ~site = decide_from t site t.plan

(* {1 Firing helpers} *)

let wild_write space =
  (* Page 0 is never mapped: any store there is the canonical stray
     pointer dereference and raises [Space.Fault (MAPERR)]. *)
  Space.store64 space 64 0x41414141

let flip_random_bit t space ~addr ~len =
  if len > 0 then
    Space.flip_bit space
      ~addr:(addr + Rng.int t.rng len)
      ~bit:(Rng.int t.rng 8)
  else false

let smash_canary sd =
  Api.with_stack_frame sd 16 (fun buf ->
      Space.store64 (Api.space sd) (buf + 16) 0x41414141)

(* The classic off-by-one: one byte past the usable size. On a sanitized
   heap that byte is the redzone (POISON fault, rewound); unsanitized it
   silently nicks the next block's header — exactly the gap the sanitizer
   exists to close. [buf] must be a live allocation of the current
   domain's heap. *)
let heap_overflow sd ~buf ~len =
  let udi = Api.current sd in
  let n = try Api.usable_size sd ~udi buf with _ -> len in
  Space.store8 (Api.space sd) (buf + n) 0xFD

(* Allocate, free, read: the freed payload is poisoned on a sanitized
   heap (POISON fault); unsanitized the dangling read silently returns
   free-list metadata. *)
let use_after_free sd =
  let udi = Api.current sd in
  let p = Api.malloc sd ~udi 24 in
  Api.free sd ~udi p;
  ignore (Space.load8 (Api.space sd) p)

(* Inject inside a domain body: corrupts state appropriate to the decided
   kind and lets the substrate raise whatever it raises. Network and
   scheduler kinds are ignored here — they belong to the [arm_*]
   adapters. Returns the kind fired, for callers that log. *)
let fire_in_domain t ~site ~sd ~buf ~len =
  match decide t ~site with
  | None -> None
  | Some k ->
      (match k with
      | Bit_flip -> ignore (flip_random_bit t (Api.space sd) ~addr:buf ~len)
      | Wild_write -> wild_write (Api.space sd)
      | Stack_smash -> smash_canary sd
      | Heap_overflow -> heap_overflow sd ~buf ~len
      | Use_after_free -> use_after_free sd
      | Alloc_fail | Net_drop | Net_truncate | Net_delay _ | Kill_thread
      | Rewind_interrupt | Shard_crash | Net_partition _ ->
          ());
      Some k

(* {1 Substrate adapters} *)

let arm_tlsf t heap ~site =
  Tlsf.set_inject_failure heap
    (Some
       (fun _request ->
         match decide t ~site with Some Alloc_fail -> true | _ -> false))

let arm_netsim t net ~site =
  Netsim.set_fault_hook net
    (Some
       (fun ~len ->
         match decide t ~site with
         | Some Net_drop -> Netsim.Drop
         | Some Net_truncate -> Netsim.Truncate (Rng.int t.rng (max 1 len))
         | Some (Net_delay d) -> Netsim.Delay d
         | Some _ | None -> Netsim.Deliver))

(* Inject faults into the rewind path itself: the monitor consults the
   hook before every discard step of an in-flight rewind, exercising the
   two-phase intent/commit protocol (resume from the durable intent
   record). Budget the rule with [max_fires] — an unbounded always-fire
   rule would stall every rewind against its internal interrupt cap. *)
let arm_rewind t sd ~site =
  Api.set_rewind_fault_hook sd
    (Some
       (fun () ->
         match decide t ~site with Some Rewind_interrupt -> true | _ -> false))

let maybe_kill t ~site ~sched ~tid =
  match decide t ~site with
  | Some Kill_thread ->
      Sched.kill sched tid;
      true
  | _ -> false

(* {1 Introspection} *)

let events t = List.rev t.events
let fires t = t.next_seq

let log_to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%04d %-16s %-14s @%.0f\n" e.e_seq e.e_site
           (kind_to_string e.e_kind) e.e_at))
    (events t);
  Buffer.contents buf
