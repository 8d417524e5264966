(* Static compartment-policy verifier.

   The model is pure data: what the reference monitor *declares* about its
   domains (keys, stacks, sub-heap regions, gates, hooks). The verifier
   re-derives every execution domain's PKRU view exactly the way
   [Sdrad.Api] computes it at switch time, then checks that what each
   viewer can actually reach (determined by the keys the pages really
   carry) never exceeds what the declared domain relationships allow.
   Fixtures build models by hand; [of_api] snapshots a live monitor. *)

type region = { base : int; len : int; rkey : int }

type kind = Exec | Data
type state = Dormant | Ready | Entered

type domain = {
  udi : int;
  kind : kind;
  tid : int;
  parent : int;
  pkey : int;
  state : state;
  stack : region option;
  heap : region list;
  accessible : bool;
  parent_readable : bool;
  has_cleanup : bool;
  perms : (int * int) list;
}

type gate = {
  g_name : string;
  g_caller : int;
  g_callee : int;
  g_buffers : (string * int) list;
}

type model = {
  monitor_pkey : int;
  root_pkey : int;
  domains : domain list;
  gates : gate list;
  global_handler : bool;
}

let exec_domain ?(tid = 0) ?(parent = 0) ?(state = Ready) ?stack ?(heap = [])
    ?(accessible = true) ?(has_cleanup = false) ~udi ~pkey () =
  {
    udi;
    kind = Exec;
    tid;
    parent;
    pkey;
    state;
    stack;
    heap;
    accessible;
    parent_readable = false;
    has_cleanup;
    perms = [];
  }

let data_domain ?(heap = []) ?(perms = []) ~udi ~pkey () =
  {
    udi;
    kind = Data;
    tid = -1;
    parent = 0;
    pkey;
    state = Ready;
    stack = None;
    heap;
    accessible = false;
    parent_readable = false;
    has_cleanup = false;
    perms;
  }

(* {1 Findings} *)

type severity = Error | Warning

type finding = {
  rule : string;
  severity : severity;
  udi : int option;
  message : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

(* {1 Rights derivation}

   Mirrors [Api.compute_pkru] with the viewer as the current domain: the
   monitor key is denied, the root key is read-only, the viewer's own key
   is read-write, an accessible non-entered child on the viewer's thread
   is read-write, the direct parent is read-only iff the viewer opted in,
   and data-domain keys follow the dprotect table. Hardware grants by
   {e key}, so when several domains hold the same key the view is the
   union — which is exactly why key overlap is a policy error. *)

let rank = function `No -> 0 | `Ro -> 1 | `Rw -> 2
let max_rights a b = if rank a >= rank b then a else b

let rights_to_string = function
  | `No -> "inaccessible"
  | `Ro -> "readable"
  | `Rw -> "writable"

(* What the declared relationship between viewer [v] and owner [o]
   entitles [v] to. *)
let rel_rights (v : domain) (o : domain) =
  if v.udi = o.udi && v.tid = o.tid && o.kind = Exec then `Rw
  else
    match o.kind with
    | Data -> (
        match List.assoc_opt v.udi o.perms with
        | Some p when Vmem.Prot.has p Vmem.Prot.write -> `Rw
        | Some p when Vmem.Prot.has p Vmem.Prot.read -> `Ro
        | Some _ | None -> `No)
    | Exec ->
        if o.tid = v.tid && o.parent = v.udi && o.accessible && o.state <> Entered
        then `Rw
        else if v.parent_readable && v.parent = o.udi && o.tid = v.tid then `Ro
        else `No

(* Rights viewer [v] holds over protection key [key] — the PKRU view. *)
let view m v key =
  if key < 0 then `No
  else if key = m.monitor_pkey then `No
  else if key = m.root_pkey then `Ro
  else
    List.fold_left
      (fun acc o -> if o.pkey = key then max_rights acc (rel_rights v o) else acc)
      `No m.domains

(* {1 Rules} *)

let live d = d.pkey >= 0

(* R1: protection-key disjointness. Every live domain must hold a key of
   its own; reserved (monitor/root) keys must never back a domain. A
   shared key makes the MPK hardware grant one domain's rights to the
   other — compartmentalization in name only. *)
let rule_key_overlap m =
  let findings = ref [] in
  let emit udi message =
    findings := { rule = "key-overlap"; severity = Error; udi = Some udi; message } :: !findings
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if live d then begin
        if d.pkey = m.monitor_pkey then
          emit d.udi
            (Printf.sprintf "domain %d holds the monitor's key %d" d.udi d.pkey)
        else if d.pkey = m.root_pkey then
          emit d.udi
            (Printf.sprintf "domain %d holds the root domain's key %d" d.udi
               d.pkey);
        (match Hashtbl.find_opt seen d.pkey with
        | Some other ->
            emit d.udi
              (Printf.sprintf "domains %d and %d share protection key %d" other
                 d.udi d.pkey)
        | None -> Hashtbl.replace seen d.pkey d.udi)
      end)
    m.domains;
  List.rev !findings

(* R2: cross-domain visibility. For every viewer, the rights the page
   keys actually grant over another domain's stack and sub-heap must not
   exceed what the declared relationship allows — a region carrying the
   wrong key (e.g. a stack left on the root key, or a sub-heap page
   re-keyed to a sibling) is readable or writable memory the policy says
   is sealed. *)
let rule_cross_visibility m =
  let findings = ref [] in
  let viewers = List.filter (fun d -> d.kind = Exec && live d) m.domains in
  List.iter
    (fun (v : domain) ->
      List.iter
        (fun (o : domain) ->
          if not (o.udi = v.udi && o.tid = v.tid && o.kind = v.kind) then begin
            let allowed = rel_rights v o in
            let check what r =
              let actual = view m v r.rkey in
              if rank actual > rank allowed then
                findings :=
                  {
                    rule = "cross-visibility";
                    severity = Error;
                    udi = Some o.udi;
                    message =
                      Printf.sprintf
                        "%s of domain %d (key %d) is %s under domain %d's \
                         view, policy allows %s"
                        what o.udi r.rkey (rights_to_string actual) v.udi
                        (rights_to_string allowed);
                  }
                  :: !findings
            in
            (match o.stack with Some r -> check "stack" r | None -> ());
            List.iter (check "sub-heap") o.heap
          end)
        m.domains)
    viewers;
  List.rev !findings

(* R3: gate buffers. Every argument/return buffer a gate passes must live
   in memory its callee can at least read — otherwise the call faults on
   entry (or worse, the gate widens access to compensate). *)
let rule_gate_buffers m =
  let owner_of addr =
    List.find_opt
      (fun d ->
        let inside r = addr >= r.base && addr < r.base + r.len in
        (match d.stack with Some r -> inside r | None -> false)
        || List.exists inside d.heap)
      m.domains
  in
  let callee_of g =
    List.find_opt (fun d -> d.kind = Exec && d.udi = g.g_callee) m.domains
  in
  List.concat_map
    (fun g ->
      match callee_of g with
      | None ->
          [
            {
              rule = "gate-buffer";
              severity = Error;
              udi = Some g.g_callee;
              message =
                Printf.sprintf "gate %s targets unknown callee domain %d"
                  g.g_name g.g_callee;
            };
          ]
      | Some callee ->
          List.filter_map
            (fun (bname, addr) ->
              match owner_of addr with
              | None ->
                  Some
                    {
                      rule = "gate-buffer";
                      severity = Error;
                      udi = Some g.g_callee;
                      message =
                        Printf.sprintf
                          "gate %s: buffer %s (0x%x) lies outside every \
                           declared domain"
                          g.g_name bname addr;
                    }
              | Some owner ->
                  let r =
                    let inside r = addr >= r.base && addr < r.base + r.len in
                    match owner.stack with
                    | Some r when inside r -> r
                    | _ -> List.find (fun r -> inside r) owner.heap
                  in
                  if view m callee r.rkey = `No then
                    Some
                      {
                        rule = "gate-buffer";
                        severity = Error;
                        udi = Some g.g_callee;
                        message =
                          Printf.sprintf
                            "gate %s: buffer %s (0x%x) lives in domain %d, \
                             inaccessible to callee %d"
                            g.g_name bname addr owner.udi g.g_callee;
                      }
                  else None)
            g.g_buffers)
    m.gates

(* R4: every execution domain's rewinds must be observed somewhere — a
   per-domain cleanup hook or a monitor-wide incident handler (the
   supervisor counts). A silent rewind loses the security signal the
   whole mechanism exists to produce. *)
let rule_abort_hooks m =
  if m.global_handler then []
  else
    List.filter_map
      (fun d ->
        if d.kind = Exec && not d.has_cleanup then
          Some
            {
              rule = "no-abort-hook";
              severity = Warning;
              udi = Some d.udi;
              message =
                Printf.sprintf
                  "domain %d has no cleanup hook and no incident handler is \
                   installed"
                  d.udi;
            }
        else None)
      m.domains

(* R5: reachability. Every execution domain's parent chain must reach the
   root; an orphan (missing parent, or a parent cycle) can never be
   entered again and its key and memory are leaked. *)
let rule_reachability m =
  let execs = List.filter (fun d -> d.kind = Exec) m.domains in
  let find_parent (d : domain) =
    List.find_opt (fun (p : domain) -> p.udi = d.parent && p.tid = d.tid) execs
  in
  List.filter_map
    (fun d ->
      let rec walk cur hops =
        if cur.parent = 0 then true
        else if hops > List.length execs then false (* cycle *)
        else
          match find_parent cur with
          | Some p -> walk p (hops + 1)
          | None -> false
      in
      if walk d 0 then None
      else
        Some
          {
            rule = "unreachable";
            severity = Warning;
            udi = Some d.udi;
            message =
              Printf.sprintf
                "domain %d is unreachable: its parent chain (parent %d) never \
                 reaches the root"
                d.udi d.parent;
          })
    execs

let check m =
  rule_key_overlap m @ rule_cross_visibility m @ rule_gate_buffers m
  @ rule_abort_hooks m @ rule_reachability m

let errors fs = List.length (List.filter (fun f -> f.severity = Error) fs)
let warnings fs = List.length (List.filter (fun f -> f.severity = Warning) fs)

(* {1 Reports} *)

let line f =
  Printf.sprintf "%-7s %-16s %s %s\n"
    (String.uppercase_ascii (severity_to_string f.severity))
    f.rule
    (match f.udi with Some u -> Printf.sprintf "udi=%d" u | None -> "udi=-")
    f.message

let to_text fs =
  if fs = [] then "policy OK: no findings\n"
  else begin
    let b = Buffer.create 256 in
    List.iter (fun f -> Buffer.add_string b (line f)) fs;
    Buffer.add_string b
      (Printf.sprintf "%d error(s), %d warning(s)\n" (errors fs) (warnings fs));
    Buffer.contents b
  end

let to_json fs =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"rule\":\"%s\",\"severity\":\"%s\",\"udi\":%s,\"message\":\"%s\"}"
           (Telemetry.json_escape f.rule)
           (severity_to_string f.severity)
           (match f.udi with Some u -> string_of_int u | None -> "null")
           (Telemetry.json_escape f.message)))
    fs;
  Buffer.add_string b
    (Printf.sprintf "],\"errors\":%d,\"warnings\":%d}" (errors fs)
       (warnings fs));
  Buffer.contents b

exception Rejected of finding list

let assert_ok m =
  let fs = check m in
  if errors fs > 0 then raise (Rejected fs)

(* {1 Live-monitor snapshot}

   Region keys are read back from the page tables ([pkey_of_addr]), not
   from the domain records, so a region whose pages were re-keyed behind
   the monitor's back is caught too. *)

let of_api ?(gates = []) sd =
  let space = Sdrad.Api.space sd in
  let key_of base = Vmem.Space.pkey_of_addr space base in
  let conv (i : Sdrad.Api.domain_info) =
    {
      udi = i.di_udi;
      kind = (match i.di_kind with `Exec -> Exec | `Data -> Data);
      tid = i.di_tid;
      parent = i.di_parent;
      pkey = i.di_pkey;
      state =
        (match i.di_state with
        | `Dormant -> Dormant
        | `Ready -> Ready
        | `Entered -> Entered);
      stack =
        Option.map
          (fun (base, len) -> { base; len; rkey = key_of base })
          i.di_stack;
      heap =
        List.map (fun (base, len) -> { base; len; rkey = key_of base })
          i.di_regions;
      accessible = i.di_accessible;
      parent_readable = i.di_parent_readable;
      has_cleanup = i.di_has_cleanup;
      perms = i.di_perms;
    }
  in
  {
    monitor_pkey = Sdrad.Api.monitor_pkey sd;
    root_pkey = Sdrad.Api.root_pkey sd;
    domains = List.map conv (Sdrad.Api.domains_info sd);
    gates;
    global_handler = Sdrad.Api.has_incident_handler sd;
  }
