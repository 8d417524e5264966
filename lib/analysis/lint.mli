(** Repo lint: banned patterns that would break the simulation's
    determinism and isolation story.

    Rules:
    - [obj-magic]: [Obj.magic] (unsafe casts).
    - [wall-clock]: any [Unix.*] or [Sys.time] use — virtual time only.
    - [raw-bytes]: kernel-mode simulated-memory access
      ([unsafe_load_bytes]/[unsafe_store_bytes]) outside [vmem] and
      [checkpoint].
    - [pkey-gate]: a call of [Space.wrpkru], [pkey_alloc], [pkey_free]
      or [pkey_mprotect] outside [core/keys.ml] and [vmem] — ERIM's rule
      that protection keys are written only in call gates. Names match whole:
      [Space.wrpkru_writes] and [pkey_of_addr] are not calls of them.
    - [missing-mli]: a [.ml] under the scanned tree without a sibling
      [.mli].
    - [metric-naming]: a literal series name at a
      [Metrics.counter]/[gauge]/[histogram] (or [_fn]) call site without
      a known subsystem prefix, a counter not ending in [_total] (or a
      gauge/histogram that does), or a name ending in one of the
      suffixes the histogram exposition reserves ([_bucket], [_sum],
      [_count]).
    - [finding-rule-doc]: a finding constructor in [lib/analysis] (a
      [rule] record field bound to a string literal) whose rule-name
      literal is not registered in {!Rules.all} — i.e. a finding users
      can hit but [sdrad_cli analyze --help] never documents.
    - [unused-export]: a [val] in a [lib/**/*.mli] whose name appears, as
      a whole word, in no [.ml]/[.mli] outside its own module under the
      [lib], [bin], [bench], [test], [examples] and [perfsuite] trees
      beside the scanned one — an export nothing calls.
    - [unused-option]: an optional parameter [?l:] of a [val] in a
      [lib/**/*.mli] that no source outside its own module under the
      same trees passes as [~l] or [?l] — a knob nothing sets, so its
      default is the only behaviour in use.

    Matching runs on a comment- and string-stripped view of each source,
    so banned names in docstrings or error messages do not trip rules
    ([metric-naming] and [finding-rule-doc] read the raw source — the
    names they judge {e are} string literals — and [unused-export] and
    [unused-option] count a word anywhere in a referencing file, comments
    included). *)

type violation = {
  v_file : string;
  v_line : int;  (** 1-based *)
  v_rule : string;
  v_text : string;  (** offending source line, trimmed; empty for
                        tree-level rules *)
}

val rule_names : string list

val scan_source : file:string -> string -> violation list
(** Pattern rules only (no [missing-mli]) over one source text. *)

val metric_prefixes : string list
(** Subsystem prefixes the [metric-naming] rule accepts. *)

val scan_metric_names : file:string -> string -> violation list
(** The [metric-naming] rule alone over one source text. *)

val scan_tree :
  ?allow:(rule:string -> file:string -> bool) -> string -> violation list
(** Recursively scan every [.ml]/[.mli] under a directory, apply all
    rules including [missing-mli], [unused-export] and [unused-option]
    (whose reference trees are the directory's siblings that exist),
    drop violations the [allow] predicate accepts, and return the rest
    sorted by (file, line, rule). *)

val parse_allowlist : string -> rule:string -> file:string -> bool
(** Parse allowlist text — one [<rule> <path>] entry per line, [#]
    comments, [*] as a wildcard rule — into an [allow] predicate.
    @raise Failure on malformed lines or unknown rule names. *)

val load_allowlist : string -> rule:string -> file:string -> bool

val to_text : violation list -> string
(** [file:line: [rule] text] lines plus a count, or ["lint OK"]. *)
