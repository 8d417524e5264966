(* Repo lint: banned patterns that break the simulation's determinism and
   isolation story.

   The scanner works on a comment- and string-stripped view of each
   source, so a banned name mentioned in a docstring or an error message
   does not trip the rule. The banned patterns below are assembled by
   concatenation so this file does not flag itself. *)

type violation = {
  v_file : string;
  v_line : int;
  v_rule : string;
  v_text : string;  (* the offending source line, trimmed *)
}

type rule = {
  r_name : string;
  r_patterns : string list;
  r_exempt_dirs : string list;  (* directory components where allowed *)
  r_help : string;
}

let rules =
  [
    {
      r_name = "obj-magic";
      r_patterns = [ "Obj" ^ ".magic" ];
      r_exempt_dirs = [];
      r_help = "unsafe casts undermine every invariant the simulation checks";
    };
    {
      r_name = "wall-clock";
      r_patterns = [ "Unix" ^ "."; "Sys" ^ ".time" ];
      r_exempt_dirs = [];
      r_help =
        "wall-clock time breaks determinism; use Simkern.Sched virtual time";
    };
    {
      r_name = "raw-bytes";
      r_patterns = [ "unsafe_load" ^ "_bytes"; "unsafe_store" ^ "_bytes" ];
      r_exempt_dirs = [ "vmem"; "checkpoint" ];
      r_help =
        "simulated memory must go through checked Vmem.Space accesses \
         (kernel-mode access is for vmem/checkpoint only)";
    };
  ]

let rule_names =
  List.map (fun r -> r.r_name) rules
  @ [ "missing-mli"; "metric-naming"; "finding-rule-doc"; "unused-export" ]

(* Replace comment bodies — and, when [strings], string and char
   literals — with spaces (newlines preserved, so line numbers
   survive). Literals are always parsed either way, so a comment opener
   inside a string is never treated as one. *)
let strip_gen ~strings src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let blank_lit i = if strings then blank i in
  let i = ref 0 in
  let depth = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if !depth > 0 then
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        blank !i;
        blank (!i + 1);
        incr depth;
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        blank !i;
        blank (!i + 1);
        decr depth;
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      blank !i;
      blank (!i + 1);
      depth := 1;
      i := !i + 2
    end
    else if c = '"' then begin
      blank_lit !i;
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        match src.[!i] with
        | '\\' when !i + 1 < n ->
            blank_lit !i;
            blank_lit (!i + 1);
            i := !i + 2
        | '"' ->
            blank_lit !i;
            incr i;
            fin := true
        | _ ->
            blank_lit !i;
            incr i
      done
    end
    else if
      (* char literals ('x', '\n'); type variables ('a) are left alone *)
      c = '\''
      && !i + 2 < n
      && (src.[!i + 1] = '\\' || src.[!i + 2] = '\'')
    then
      if src.[!i + 1] = '\\' then begin
        blank_lit !i;
        incr i;
        while !i < n && src.[!i] <> '\'' do
          blank_lit !i;
          incr i
        done;
        if !i < n then begin
          blank_lit !i;
          incr i
        end
      end
      else begin
        blank_lit !i;
        blank_lit (!i + 1);
        blank_lit (!i + 2);
        i := !i + 3
      end
    else incr i
  done;
  Bytes.to_string out

let strip = strip_gen ~strings:true

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb > 0 && go 0

(* Does [file]'s path contain [dir] as a component? *)
let in_dir file dir =
  let parts = String.split_on_char '/' file in
  List.mem dir parts

let split_lines s = String.split_on_char '\n' s

let scan_source ~file src =
  let stripped = strip src in
  let raw_lines = Array.of_list (split_lines src) in
  let out = ref [] in
  List.iter
    (fun r ->
      if not (List.exists (in_dir file) r.r_exempt_dirs) then
        List.iteri
          (fun idx line ->
            if List.exists (fun p -> contains ~sub:p line) r.r_patterns then
              out :=
                {
                  v_file = file;
                  v_line = idx + 1;
                  v_rule = r.r_name;
                  v_text =
                    (if idx < Array.length raw_lines then
                       String.trim raw_lines.(idx)
                     else "");
                }
                :: !out)
          (split_lines stripped))
    rules;
  List.rev !out

(* {1 Metric naming}

   Registered series names are an operator-facing API: dashboards and
   alerts key on them long after the code moves. Every literal name at a
   [Metrics.counter/gauge/histogram] (and [_fn]) call site must carry a
   known subsystem prefix; counters must end in [_total] (and only
   counters may); the suffixes the exposition itself appends to
   histogram series ([_bucket], [_sum], [_count]) are reserved.
   Computed names (non-literal first argument) are skipped — they are
   the caller's contract to uphold. *)

let metric_prefixes =
  [
    "sdrad_"; "vmem_"; "tlsf_"; "sanitizer_"; "supervisor_"; "kvcache_";
    "httpd_"; "client_"; "trace_"; "gate_"; "cluster_"; "race_";
  ]

let metric_ctors =
  (* longest first, so [counter_fn] is not matched as [counter] *)
  [
    ("counter_fn", `Counter); ("counter", `Counter); ("gauge_fn", `Gauge);
    ("gauge", `Gauge); ("histogram", `Histogram);
  ]

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* A word or a dotted path ([Foo.bar]). *)
let is_ident_char c = is_word_char c || c = '.'

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let starts_with ~prefix s =
  let ls = String.length s and lx = String.length prefix in
  ls > lx && String.sub s 0 lx = prefix

let check_metric_name ~kind name =
  if not (List.exists (fun p -> starts_with ~prefix:p name) metric_prefixes)
  then
    Some
      (Printf.sprintf "\"%s\": no known subsystem prefix (one of %s)" name
         (String.concat " " metric_prefixes))
  else if
    List.exists
      (fun s -> ends_with ~suffix:s name)
      [ "_bucket"; "_sum"; "_count" ]
  then
    Some
      (Printf.sprintf
         "\"%s\": suffix reserved for the histogram exposition" name)
  else
    match kind with
    | `Counter when not (ends_with ~suffix:"_total" name) ->
        Some (Printf.sprintf "\"%s\": counter names must end in _total" name)
    | (`Gauge | `Histogram) when ends_with ~suffix:"_total" name ->
        Some
          (Printf.sprintf "\"%s\": _total is for counters only" name)
    | _ -> None

(* Scan raw source for [<expr>.<ctor> <registry> "<name>"] call shapes.
   The first argument (the registry) is skipped whether it is an
   identifier path or parenthesized; anything but a string literal in
   name position means the name is computed, which this rule does not
   judge. *)
let scan_metric_names ~file src =
  let n = String.length src in
  let line_of pos =
    let l = ref 1 in
    for k = 0 to min (pos - 1) (n - 1) do
      if src.[k] = '\n' then incr l
    done;
    !l
  in
  let raw_lines = Array.of_list (split_lines src) in
  let out = ref [] in
  let skip_ws k =
    let k = ref k in
    while
      !k < n && (src.[!k] = ' ' || src.[!k] = '\n' || src.[!k] = '\t')
    do
      incr k
    done;
    !k
  in
  (* Past a string literal starting at the opening quote. *)
  let skip_string k =
    let k = ref (k + 1) in
    while !k < n && src.[!k] <> '"' do
      if src.[!k] = '\\' then k := !k + 2 else incr k
    done;
    min n (!k + 1)
  in
  let skip_parens k =
    let k = ref (k + 1) and depth = ref 1 in
    while !k < n && !depth > 0 do
      (match src.[!k] with
      | '(' -> incr depth
      | ')' -> decr depth
      | '"' -> k := skip_string !k - 1
      | _ -> ());
      incr k
    done;
    !k
  in
  let i = ref 0 in
  while !i < n do
    (if src.[!i] = '.' then
       match
         List.find_opt
           (fun (ctor, _) ->
             let lc = String.length ctor in
             !i + lc < n
             && String.sub src (!i + 1) lc = ctor
             && not (is_ident_char src.[!i + 1 + lc]))
           metric_ctors
       with
       | None -> ()
       | Some (ctor, kind) ->
           let after = !i + 1 + String.length ctor in
           (* Skip the registry argument. *)
           let k = skip_ws after in
           let k =
             if k < n && src.[k] = '(' then Some (skip_parens k)
             else if k < n && is_ident_char src.[k] then begin
               let j = ref k in
               while !j < n && is_ident_char src.[!j] do
                 incr j
               done;
               Some !j
             end
             else None
           in
           (match k with
           | None -> ()
           | Some k -> (
               let k = skip_ws k in
               if k < n && src.[k] = '"' then
                 let close = skip_string k - 1 in
                 let name = String.sub src (k + 1) (close - k - 1) in
                 match check_metric_name ~kind name with
                 | None -> ()
                 | Some msg ->
                     let line = line_of !i in
                     out :=
                       {
                         v_file = file;
                         v_line = line;
                         v_rule = "metric-naming";
                         v_text =
                           (msg
                           ^
                           if line - 1 < Array.length raw_lines then
                             "  | " ^ String.trim raw_lines.(line - 1)
                           else "");
                       }
                       :: !out));
           i := after - 1);
    incr i
  done;
  List.rev !out

(* {1 Finding rule names}

   Every finding an analysis pass can emit must be documented: the
   rule-name literal of a finding constructor (a [rule] record field
   bound to a string literal) inside lib/analysis must name a rule
   registered in {!Rules.all}, which is what [sdrad_cli analyze --help]
   renders. An unregistered literal is a finding users can hit but never
   look up. Scanning runs on a comment-stripped (string-preserving) view;
   the pattern is assembled by concatenation and requires a
   non-identifier character before it, so field names like [v_rule] (and
   this file itself) do not trip the rule. *)

let finding_rule_patterns = [ "rule" ^ " = \"" ]

let scan_finding_rules ~file raw =
  if not (in_dir file "analysis") then []
  else begin
    let src = strip_gen ~strings:false raw in
    let n = String.length src in
    let line_of pos =
      let l = ref 1 in
      for k = 0 to min (pos - 1) (n - 1) do
        if src.[k] = '\n' then incr l
      done;
      !l
    in
    let out = ref [] in
    List.iter
      (fun pat ->
        let lp = String.length pat in
        for i = 0 to n - lp - 1 do
          if
            String.sub src i lp = pat
            && (i = 0 || not (is_ident_char src.[i - 1]))
          then begin
            (* The pattern ends at the opening quote; the name runs to
               the next one. *)
            let j = ref (i + lp) in
            while !j < n && src.[!j] <> '"' do
              incr j
            done;
            let name = String.sub src (i + lp) (!j - i - lp) in
            if not (Rules.known name) then
              out :=
                {
                  v_file = file;
                  v_line = line_of i;
                  v_rule = "finding-rule-doc";
                  v_text =
                    Printf.sprintf
                      "\"%s\": finding rule not registered in Rules.all \
                       (must appear in `analyze --help`)"
                      name;
                }
                :: !out
          end
        done)
      finding_rule_patterns;
    List.sort compare !out
  end

(* {1 Tree walking} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec collect_sources dir =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.fold_left
    (fun acc e ->
      let path = Filename.concat dir e in
      if Sys.is_directory path then acc @ collect_sources path
      else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
      then acc @ [ path ]
      else acc)
    [] entries

(* {1 Unused exports}

   A [val] in a [lib/**/*.mli] must be named, as a whole word, in some
   source outside its own module's [.ml] and [.mli], under any of the
   trees below (siblings of the scanned one). A word grep, so a mention
   in a comment counts as a use; it catches exports nothing calls. *)

let reference_trees = [ "lib"; "bin"; "bench"; "test"; "examples"; "perfsuite" ]

(* Every distinct word of a source text. *)
let words src =
  let seen = Hashtbl.create 256 and n = String.length src in
  let i = ref 0 in
  while !i < n do
    if is_word_char src.[!i] then begin
      let j = ref !i in
      while !j < n && is_word_char src.[!j] do
        incr j
      done;
      Hashtbl.replace seen (String.sub src !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  Hashtbl.to_seq_keys seen

(* [(line, name)] of every [val] declared in an interface. *)
let declared_vals mli_src =
  List.concat
    (List.mapi
       (fun i line ->
         let line = String.trim line in
         if String.length line > 4 && String.sub line 0 4 = "val " then
           let rest = String.trim (String.sub line 4 (String.length line - 4)) in
           let k = ref 0 in
           while !k < String.length rest && is_word_char rest.[!k] do
             incr k
           done;
           if !k = 0 then [] else [ (i + 1, String.sub rest 0 !k) ]
         else [])
       (split_lines (strip mli_src)))

let unused_exports ~sources ~references =
  let users = Hashtbl.create 4096 in
  List.iter
    (fun file ->
      Seq.iter (fun w -> Hashtbl.add users w file) (words (read_file file)))
    references;
  List.concat_map
    (fun mli ->
      let own = [ mli; Filename.remove_extension mli ^ ".ml" ] in
      List.filter_map
        (fun (line, name) ->
          let outside f = not (List.mem f own) in
          if List.exists outside (Hashtbl.find_all users name) then None
          else
            Some
              {
                v_file = mli;
                v_line = line;
                v_rule = "unused-export";
                v_text =
                  Printf.sprintf "val %s: no reference outside its module" name;
              })
        (declared_vals (read_file mli)))
    (List.filter
       (fun f -> Filename.check_suffix f ".mli" && in_dir f "lib")
       sources)

let scan_tree ?(allow = fun ~rule:_ ~file:_ -> false) root =
  let sources = collect_sources root in
  let pattern_violations =
    List.concat_map
      (fun file ->
        let src = read_file file in
        let vs =
          scan_source ~file src
          @ scan_finding_rules ~file src
          @
          (* The registry implementation itself manipulates [counter]/
             [gauge]/[histogram] values without naming any series. *)
          if in_dir file "telemetry" then [] else scan_metric_names ~file src
        in
        List.filter (fun v -> not (allow ~rule:v.v_rule ~file:v.v_file)) vs)
      sources
  in
  (* Interface discipline: every .ml under the tree needs a sibling .mli,
     so the linkable surface of each module is deliberate. *)
  let missing_mli =
    List.filter_map
      (fun file ->
        if
          Filename.check_suffix file ".ml"
          && (not (List.mem (file ^ "i") sources))
          && not (allow ~rule:"missing-mli" ~file)
        then
          Some
            { v_file = file; v_line = 1; v_rule = "missing-mli"; v_text = "" }
        else None)
      sources
  in
  let references =
    let top = Filename.dirname root in
    sources
    @ List.concat_map
        (fun tree ->
          let dir =
            if top = Filename.current_dir_name then tree
            else Filename.concat top tree
          in
          if tree = Filename.basename root || not (Sys.file_exists dir) then []
          else collect_sources dir)
        reference_trees
  in
  let unused =
    List.filter
      (fun v -> not (allow ~rule:v.v_rule ~file:v.v_file))
      (unused_exports ~sources ~references)
  in
  List.sort compare (pattern_violations @ missing_mli @ unused)

(* {1 Allowlist}

   Format: one entry per line, [<rule> <path>]; blank lines and [#]
   comments ignored. A [*] rule allows every rule for that path. *)

let parse_allowlist src =
  let entries =
    List.filter_map
      (fun line ->
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        with
        | [] -> None
        | [ rule; path ] -> Some (rule, path)
        | _ -> failwith ("lint allowlist: malformed line: " ^ line))
      (split_lines src)
  in
  List.iter
    (fun (rule, _) ->
      if rule <> "*" && not (List.mem rule rule_names) then
        failwith ("lint allowlist: unknown rule: " ^ rule))
    entries;
  fun ~rule ~file ->
    List.exists (fun (r, p) -> (r = "*" || r = rule) && p = file) entries

let load_allowlist path = parse_allowlist (read_file path)

let to_text vs =
  if vs = [] then "lint OK: no violations\n"
  else begin
    let b = Buffer.create 256 in
    List.iter
      (fun v ->
        Buffer.add_string b
          (Printf.sprintf "%s:%d: [%s] %s\n" v.v_file v.v_line v.v_rule
             v.v_text))
      vs;
    Buffer.add_string b (Printf.sprintf "%d violation(s)\n" (List.length vs));
    Buffer.contents b
  end
