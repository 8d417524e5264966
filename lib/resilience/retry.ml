(* Deadline-driven client retry policies over virtual time.

   Everything here runs on the simulated clock: per-attempt deadlines are
   virtual timestamps handed to [Netsim.recv_deadline]-style calls,
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
  rid_prefix : string;
  mutable next_rid : int;
  mutable n_calls : int;
  mutable n_retries : int;
  mutable n_budget_exhausted : int;
  c_retries : M.counter option;
  c_budget_exhausted : M.counter option;
  h_latency : M.histogram option;
}

let create ?metrics ?budget:bgt ?(name = "client") policy ~rng =
  if policy.max_attempts < 1 then
    invalid_arg "Retry.create: max_attempts must be >= 1";
  let counter metric help =
    Option.map (fun m -> M.counter m metric ~help) metrics
  in
  {
    policy;
    bgt;
    rng;
    rid_prefix = name;
    next_rid = 0;
    n_calls = 0;
    n_retries = 0;
    n_budget_exhausted = 0;
    c_retries =
      counter "client_retries_total" "Request attempts beyond the first";
    c_budget_exhausted =
      counter "client_retry_budget_exhausted_total"
        "Calls failed because the retry budget ran dry";
    h_latency =
      Option.map
        (fun m ->
          M.histogram m "client_op_latency_cycles"
            ~help:"Whole-call latency of logical client operations")
        metrics;
  }

(* "<prefix>-<n>", written into one buffer. *)
let fresh_rid t =
  let n = t.next_rid in
  t.next_rid <- n + 1;
  let p = String.length t.rid_prefix in
  let digits = ref 1 and rest = ref (n / 10) in
  while !rest > 0 do
    incr digits;
    rest := !rest / 10
  done;
  let b = Bytes.create (p + 1 + !digits) in
  Bytes.blit_string t.rid_prefix 0 b 0 p;
  Bytes.set b p '-';
  let v = ref n in
  for i = Bytes.length b - 1 downto p + 1 do
    Bytes.set b i (Char.unsafe_chr (Char.code '0' + (!v mod 10)));
    v := !v / 10
  done;
  Bytes.unsafe_to_string b

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
   clock cell: no closure, and the deadlines, delays and clock reads
   stay unboxed. *)
let execute_ctx t f =
  let k = Sched.clock_cell () in
  let start = k.clock in
  let hard = start +. t.policy.overall_timeout in
  let rid = fresh_rid t in
  (* The whole logical call shares one trace id, minted deterministically
     from the idempotency key; each attempt is a distinct span ordinal.
     Every retry, journal replay and server-side consequence of this op
     is linked by the id. *)
  let ctx = Telemetry.Context.root rid in
  t.n_calls <- t.n_calls + 1;
  deposit t;
  let n = ref 0 and prev_delay = ref t.policy.backoff_base in
  let result = ref (Error Deadline_exceeded) and go = ref true in
  while !go do
    let deadline = fmin hard (k.clock +. t.policy.attempt_timeout) in
    match f ~ctx:(Telemetry.Context.child ctx !n) ~rid ~attempt:!n ~deadline with
    | Ok v ->
        result := Ok v;
        go := false
    | Error (`Retry reason) ->
        if !n + 1 >= t.policy.max_attempts then begin
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
          t.n_retries <- t.n_retries + 1;
          Option.iter M.inc t.c_retries;
          (* Decorrelated jitter, clipped so the backoff sleep cannot
             itself blow the overall deadline. *)
          let hi =
            fmin t.policy.backoff_cap
              (fmax t.policy.backoff_base (!prev_delay *. 3.0))
          in
          let d =
            t.policy.backoff_base
            +. (Rng.float t.rng *. fmax 0.0 (hi -. t.policy.backoff_base))
          in
          let d = fmin d (hard -. k.clock) in
          if d > 0.0 then Sched.wait_until (k.clock +. d);
          prev_delay := d;
          incr n
        end
  done;
  (match t.h_latency with
  | Some h ->
      M.observe_exemplar h (k.clock -. start)
        ~exemplar:(Telemetry.Context.trace_hex ctx)
  | None -> ());
  !result

let execute t f =
  execute_ctx t (fun ~ctx:_ ~rid ~attempt ~deadline ->
      f ~rid ~attempt ~deadline)

let calls t = t.n_calls
let retries t = t.n_retries
let budget_exhaustions t = t.n_budget_exhausted
