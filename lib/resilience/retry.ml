(* Deadline-driven client retry policies over virtual time.

   Everything here runs on the simulated clock: per-attempt deadlines are
   virtual timestamps read in place by [Netsim.recv_buf_deadline],
   backoff sleeps go through [Sched.wait_until], and the jitter draws
   from a caller-provided [Simkern.Rng] stream — no wall clock anywhere,
   so a retried run replays bit-for-bit.

   Backoff uses decorrelated jitter: each delay is uniform in
   [base, min(cap, 3 * previous delay)], which decorrelates client herds
   after a shared outage faster than plain exponential-with-jitter.

   The retry *budget* is a token bucket shared by all calls of one
   client: every first attempt deposits [deposit] tokens, every retry
   withdraws [withdraw]. With the defaults (1 in, 10 out, cap 100) a
   client can retry at most ~10% of its traffic in steady state, so a
   server outage degrades into fast failures instead of a retry storm
   that amplifies the overload. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng
module M = Telemetry.Metrics

type policy = {
  max_attempts : int;
  attempt_timeout : float;
  overall_timeout : float;
  backoff_base : float;
  backoff_cap : float;
}

let default_policy =
  {
    max_attempts = 4;
    attempt_timeout = 400_000.0;
    overall_timeout = 8.0e6;
    backoff_base = 10_000.0;
    backoff_cap = 640_000.0;
  }

type budget = {
  mutable tokens : float;
  b_cap : float;
  deposit : float;
  withdraw : float;
}

let budget ?(cap = 100.0) ?(deposit = 1.0) ?(withdraw = 10.0) () =
  if cap <= 0.0 || withdraw <= 0.0 || deposit < 0.0 then
    invalid_arg "Retry.budget: cap/withdraw must be positive";
  { tokens = cap; b_cap = cap; deposit; withdraw }

let budget_tokens b = b.tokens

type error =
  | Attempts_exhausted of string  (** last retryable failure's reason *)
  | Deadline_exceeded  (** the overall call deadline passed *)
  | Budget_exhausted  (** the client's retry budget ran dry *)

let error_to_string = function
  | Attempts_exhausted reason -> "attempts exhausted: " ^ reason
  | Deadline_exceeded -> "deadline exceeded"
  | Budget_exhausted -> "retry budget exhausted"

type t = {
  policy : policy;
  bgt : budget option;
  rng : Rng.t;
  rid : Bytes.t;  (* the call's "<prefix>-<n>", in its first [rid_len] bytes *)
  prefix_len : int;
  mutable rid_len : int;
  mutable trace : int;
  mutable attempt : int;
  deadline : Float.Array.t;  (* the attempt's deadline, slot 0 *)
  mutable next_rid : int;
  mutable n_calls : int;
  mutable n_retries : int;
  mutable n_budget_exhausted : int;
  c_retries : M.counter option;
  c_budget_exhausted : M.counter option;
  h_latency : M.histogram option;
}

(* Digits of [n >= 0] in decimal. *)
let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* [n >= 0] in decimal into [b], ending just before [stop]. *)
let rec put_digits b stop n =
  Bytes.set b (stop - 1) (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits b (stop - 1) (n / 10)

let create ?metrics ?budget:bgt ?(name = "client") ?id policy ~rng =
  if policy.max_attempts < 1 then
    invalid_arg "Retry.create: max_attempts must be >= 1";
  let name_len = String.length name in
  let prefix_len =
    match id with
    | None -> name_len
    | Some i when i >= 0 -> name_len + digits i
    | Some _ -> invalid_arg "Retry.create: negative id"
  in
  (* Room for the prefix, the dash and any int's digits. *)
  let rid = Bytes.create (prefix_len + 21) in
  Bytes.blit_string name 0 rid 0 name_len;
  (match id with Some i -> put_digits rid prefix_len i | None -> ());
  Bytes.set rid prefix_len '-';
  (* An engine without a registry registers nothing and builds no
     closure. *)
  let c_retries, c_budget_exhausted, h_latency =
    match metrics with
    | None -> (None, None, None)
    | Some m ->
        ( Some
            (M.counter m "client_retries_total"
               ~help:"Request attempts beyond the first"),
          Some
            (M.counter m "client_retry_budget_exhausted_total"
               ~help:"Calls failed because the retry budget ran dry"),
          Some
            (M.histogram m "client_op_latency_cycles"
               ~help:"Whole-call latency of logical client operations") )
  in
  {
    policy;
    bgt;
    rng;
    rid;
    prefix_len;
    rid_len = 0;
    trace = 0;
    attempt = 0;
    deadline = Float.Array.make 1 0.0;
    next_rid = 0;
    n_calls = 0;
    n_retries = 0;
    n_budget_exhausted = 0;
    c_retries;
    c_budget_exhausted;
    h_latency;
  }

(* The next call's "<prefix>-<n>", written over the last one's digits,
   and the trace id [Telemetry.Context.root] would mint from it. *)
let next_call t =
  let n = t.next_rid in
  t.next_rid <- n + 1;
  t.rid_len <- t.prefix_len + 1 + digits n;
  put_digits t.rid t.rid_len n;
  t.trace <-
    Telemetry.Context.root_trace (Bytes.unsafe_to_string t.rid) 0 t.rid_len

let rid t = Bytes.sub_string t.rid 0 t.rid_len
let rid_bytes t = t.rid
let rid_length t = t.rid_len
let trace t = t.trace
let deadline_slot t = t.deadline

let context t =
  match Telemetry.Context.of_trace t.trace with
  | Some c -> Telemetry.Context.child c t.attempt
  | None -> invalid_arg "Retry.context: no call"

(* One deposit per logical call, capped. *)
let deposit t =
  match t.bgt with
  | Some b -> b.tokens <- Float.min b.b_cap (b.tokens +. b.deposit)
  | None -> ()

let try_withdraw t =
  match t.bgt with
  | None -> true
  | Some b ->
      if b.tokens >= b.withdraw then begin
        b.tokens <- b.tokens -. b.withdraw;
        true
      end
      else false

(* [Float.min] and [Float.max] for the clocks and delays here, which are
   never NaN; the stdlib functions take boxed arguments. *)
let[@inline] fmin (x : float) y = if y < x then y else x
let[@inline] fmax (x : float) y = if y > x then y else x

(* One loop over the attempts, reading the clock through the caller's
   clock cell: the deadlines, delays and clock reads stay unboxed, and
   what an attempt needs of its call — the rid, the trace id, its
   ordinal and deadline — it reads from the engine, so a call builds
   nothing per attempt. *)
let execute t f =
  let k = Sched.clock_cell () in
  let start = k.clock in
  let hard = start +. t.policy.overall_timeout in
  (* The whole logical call shares one trace id, minted deterministically
     from the idempotency key; each attempt is a distinct span ordinal.
     Every retry, journal replay and server-side consequence of this op
     is linked by the id. *)
  next_call t;
  t.n_calls <- t.n_calls + 1;
  deposit t;
  t.attempt <- 0;
  let prev_delay = ref t.policy.backoff_base in
  let result = ref (Error Deadline_exceeded) and go = ref true in
  while !go do
    Float.Array.set t.deadline 0
      (fmin hard (k.clock +. t.policy.attempt_timeout));
    match f t with
    | Ok () ->
        result := Ok ();
        go := false
    | Error (`Retry reason) ->
        if t.attempt + 1 >= t.policy.max_attempts then begin
          result := Error (Attempts_exhausted reason);
          go := false
        end
        else if k.clock >= hard then go := false (* [Deadline_exceeded] *)
        else if not (try_withdraw t) then begin
          t.n_budget_exhausted <- t.n_budget_exhausted + 1;
          Option.iter M.inc t.c_budget_exhausted;
          result := Error Budget_exhausted;
          go := false
        end
        else begin
          (* Decorrelated jitter, clipped so the backoff sleep cannot
             itself blow the overall deadline. *)
          let hi =
            fmin t.policy.backoff_cap
              (fmax t.policy.backoff_base (!prev_delay *. 3.0))
          in
          let d =
            t.policy.backoff_base
            +. float_of_int (Rng.bits53 t.rng)
               *. 0x1.0p-53
               *. fmax 0.0 (hi -. t.policy.backoff_base)
          in
          let left = hard -. k.clock in
          let clipped = d >= left in
          let d = fmin d left in
          if d > 0.0 then Sched.wait_until (k.clock +. d);
          prev_delay := d;
          (* A backoff that reaches the overall deadline leaves no time
             for another attempt. *)
          if clipped || k.clock >= hard then go := false
            (* [Deadline_exceeded] *)
          else begin
            t.n_retries <- t.n_retries + 1;
            Option.iter M.inc t.c_retries;
            t.attempt <- t.attempt + 1
          end
        end
  done;
  (match t.h_latency with
  | Some h ->
      M.observe_exemplar h (k.clock -. start)
        ~exemplar:(Telemetry.Context.trace_hex (context t))
  | None -> ());
  !result

let calls t = t.n_calls
let retries t = t.n_retries
let budget_exhaustions t = t.n_budget_exhausted
