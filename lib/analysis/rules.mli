(** Registry of every finding rule the analysis layer can emit.

    One list keeps three surfaces in sync: the [rule] field of
    {!Policy.finding} and {!Race.finding} values, the rule catalogue
    rendered into [sdrad_cli analyze --help], and the repo lint's
    [finding-rule-doc] rule, which rejects any finding constructor in
    [lib/analysis] whose rule-name literal is not registered here. *)

type rule = { name : string; doc : string }

val all : rule list
(** Policy rules first (PR 5), then the race detector's classes, in
    reporting order. *)

val find : string -> rule option
val known : string -> bool

val help_text : unit -> string
(** The catalogue as indented ["name doc"] lines — embedded verbatim in
    the CLI's [analyze] man page. *)
