type rule = { name : string; doc : string }

(* One registry for every finding rule the analysis layer can emit. The
   CLI renders `sdrad_cli analyze --help` from this list and the repo
   lint (finding-rule-doc) checks every finding constructor in
   lib/analysis against it, so a rule cannot ship undocumented. *)
let all =
  [
    {
      name = "key-overlap";
      doc =
        "two live domains share a protection key, or a domain holds the \
         monitor's/root's reserved key (error)";
    };
    {
      name = "cross-visibility";
      doc =
        "a domain's stack or sub-heap is visible under another domain's \
         PKRU view beyond the declared relationship (error)";
    };
    {
      name = "gate-buffer";
      doc =
        "a gate argument/return buffer is unreadable by its callee or \
         outside every declared domain (error)";
    };
    {
      name = "no-abort-hook";
      doc =
        "an execution domain whose rewinds nobody observes - no cleanup \
         hook, no incident handler (warning)";
    };
    {
      name = "unreachable";
      doc =
        "an execution domain whose parent chain never reaches the root \
         domain (warning)";
    };
    {
      name = "shared-race";
      doc =
        "two threads access the same shared granule with no \
         happens-before edge between them, at least one a write (error)";
    };
    {
      name = "rewind-atomicity";
      doc =
        "a nested domain wrote shared memory without holding a Dlock - a \
         rewind of the domain publishes the torn write (error)";
    };
    {
      name = "lock-discipline";
      doc =
        "a Dlock acquired in one domain was released in another, or its \
         poison flag was cleared without a guarding write (warning)";
    };
  ]

let find name = List.find_opt (fun r -> r.name = name) all
let known name = List.exists (fun r -> r.name = name) all

let help_text () =
  String.concat "\n"
    (List.map (fun r -> Printf.sprintf "  %-16s %s" r.name r.doc) all)
