(** The NGINX-like web server of §V-B: a master thread accepts
    connections, hands them to worker "processes", and restarts any worker
    that dies. Workers serve keep-alive HTTP over a readiness waitset.

    Variants mirror Figure 5:
    - {!Baseline}: plain server; a parser fault kills the worker. The
      master respawns it (costing roughly the paper's ~1 ms), and {e all}
      of that worker's connections are lost.
    - {!Tlsf_alloc}: request pools draw from TLSF instead of the glibc
      model.
    - {!Sdrad}: the HTTP parser runs in an accessible persistent nested
      domain; request data is copied in, results copied back, and each
      parser phase is its own domain transition. A parser fault rewinds
      and closes only the offending connection.

    The CVE-2009-2629 analogue (URI "../" underflow) is armed with
    [vulnerable = true]. With [verify_certs = true], requests carrying an
    [X-Client-Cert] header run the toy X.509 verifier of
    {!Crypto.X509} — whose punycode overflow (CVE-2022-3786) is caught by
    the stack canary — inside its own domain under SDRaD (§V-C). *)

type variant = Serve.variant = Baseline | Tlsf_alloc | Sdrad

type config = {
  variant : variant;
  workers : int;
  port : int;
  vulnerable : bool;
  verify_certs : bool;
  parser_udi : int;
  rewind_limit : int option;
      (** §VI side-channel mitigation: "force an application restart after
          a configurable number of rewindings" — a worker that has rewound
          this many times voluntarily re-execs (restoring address-space
          randomization), at the cost of one worker restart *)
  per_worker_domains : bool;
      (** {!Sdrad} variant only: worker [i] parses in udi
          [parser_udi + i] instead of all workers sharing [parser_udi],
          so the supervisor can quarantine one worker's parser without
          fencing the others. [parser_udi] must leave [workers]
          consecutive udis free of other uses. Off by default. *)
  shed_queue_limit : int;
      (** shed (answer 503) when a worker's waitset backlog exceeds this
          many queued messages; 0 disables shedding *)
  race_detector : bool;
      (** {!Sdrad} variant only: attach an {!Analysis.Race} detector at
          start. Detection is host-side — it never perturbs the
          simulated run. Off by default. *)
}

val default_config : config

type t

val start :
  Simkern.Sched.t ->
  Vmem.Space.t ->
  ?sdrad:Sdrad.Api.t ->
  ?supervisor:Resilience.Supervisor.t ->
  ?faults:Resilience.Fault_inject.t ->
  Netsim.t ->
  fs:Fs.t ->
  config ->
  t
(** [supervisor] (attached to the same [sdrad]) gates the parser domains:
    requests hitting a quarantined parser udi are answered with [503
    Service Unavailable] instead of being parsed. [faults] arms the
    deterministic injection sites — ["httpd.alloc"] (buffer-allocator
    failure), ["httpd.parse"] (corruption inside the parser domain, one
    visit per parse phase) and ["httpd.worker"] (kill the worker thread
    between requests). *)

val stop : t -> unit

(** {1 Introspection} *)

val requests_served : t -> int
val rewinds : t -> int
val rewind_latencies : t -> float list
val worker_restarts : t -> int

val proactive_restarts : t -> int
(** Restarts initiated by the rewind-limit policy rather than a crash. *)

val restart_latencies : t -> float list
(** Cycles from a worker's death to its replacement accepting work. *)

val dropped_connections : t -> int

val shed_count : t -> int
(** Requests answered 503 by overload admission control — before any
    parsing or domain switch was spent on them. *)

val replay_hits : t -> int
(** Retried POSTs answered from the replay journal instead of being
    applied a second time. *)

val post_count : t -> int
(** Value of the [POST /count] counter — the observable non-idempotent
    state the replay journal protects. *)

val alive : t -> bool

val race_detector : t -> Analysis.Race.t option
(** The race detector attached at start when [config.race_detector] was
    set ([None] otherwise). *)
