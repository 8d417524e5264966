(* Tests for lib/analysis: the compartment-policy verifier (fixture
   corpus — at least one positive and one negative per rule — plus live
   of_api snapshots), the heap-poison sanitizer end to end (redzone
   overflow and use-after-discard detected as POISON faults and rewound),
   and the repo lint rules. *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types
module P = Analysis.Policy
module L = Analysis.Lint
module FI = Resilience.Fault_inject

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let with_sdrad ?sanitizer ?verify_policy f =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create ?sanitizer ?verify_policy space in
  Sched.main (fun _ -> f space sd)

(* {1 Policy verifier fixtures}

   A well-formed base model: monitor key 1, root key 2, two sibling
   domains on distinct keys with correctly-keyed stack and sub-heap,
   cleanup hooks installed. Every positive fixture is one misconfigured
   variation of it, so each rule's test isolates exactly one defect. *)

let r base len rkey = { P.base; len; rkey }

let clean_model =
  {
    P.monitor_pkey = 1;
    root_pkey = 2;
    domains =
      [
        P.exec_domain ~udi:1 ~pkey:3 ~has_cleanup:true
          ~stack:(r 0x10000 0x4000 3)
          ~heap:[ r 0x20000 0x8000 3 ]
          ();
        P.exec_domain ~udi:2 ~pkey:4 ~has_cleanup:true
          ~stack:(r 0x30000 0x4000 4)
          ~heap:[ r 0x40000 0x8000 4 ]
          ();
      ];
    gates = [];
    global_handler = false;
  }

let rules_of findings = List.map (fun f -> f.P.rule) findings

let test_clean_model_passes () =
  let fs = P.check clean_model in
  check int "no findings" 0 (List.length fs);
  check string "text report" "policy OK: no findings\n" (P.to_text fs);
  P.assert_ok clean_model

let test_key_overlap_positive () =
  (* Same defect, two shapes: siblings sharing a key, and a domain
     squatting on the monitor's reserved key. *)
  let shared =
    {
      clean_model with
      P.domains =
        [
          P.exec_domain ~udi:1 ~pkey:3 ~has_cleanup:true ();
          P.exec_domain ~udi:2 ~pkey:3 ~has_cleanup:true ();
        ];
    }
  in
  let fs = P.check shared in
  check bool "shared key flagged" true (List.mem "key-overlap" (rules_of fs));
  check bool "error severity" true
    (List.exists (fun f -> f.P.rule = "key-overlap" && f.P.severity = P.Error) fs);
  let squatter =
    {
      clean_model with
      P.domains = [ P.exec_domain ~udi:1 ~pkey:1 ~has_cleanup:true () ];
    }
  in
  check bool "monitor key squatter flagged" true
    (List.mem "key-overlap" (rules_of (P.check squatter)));
  (match P.assert_ok shared with
  | () -> Alcotest.fail "assert_ok must reject"
  | exception P.Rejected fs -> check bool "rejected" true (P.errors fs > 0))

let test_key_overlap_negative () =
  (* Distinct keys, and a parked domain (pkey -1) next to a live one:
     parked domains hold no key, so no overlap. *)
  let parked =
    {
      clean_model with
      P.domains =
        [
          P.exec_domain ~udi:1 ~pkey:(-1) ~state:P.Dormant ~has_cleanup:true ();
          P.exec_domain ~udi:2 ~pkey:(-1) ~state:P.Dormant ~has_cleanup:true ();
        ];
    }
  in
  check bool "parked domains do not overlap" false
    (List.mem "key-overlap" (rules_of (P.check parked)))

let test_cross_visibility_positive () =
  (* Domain 2's stack pages carry domain 1's key: writable from 1. *)
  let leaky =
    {
      clean_model with
      P.domains =
        [
          P.exec_domain ~udi:1 ~pkey:3 ~has_cleanup:true
            ~stack:(r 0x10000 0x4000 3)
            ();
          P.exec_domain ~udi:2 ~pkey:4 ~has_cleanup:true
            ~stack:(r 0x30000 0x4000 3)
            ();
        ];
    }
  in
  let fs = P.check leaky in
  check bool "mis-keyed stack flagged" true
    (List.mem "cross-visibility" (rules_of fs));
  (* Sub-heap shape of the same defect. *)
  let leaky_heap =
    {
      clean_model with
      P.domains =
        [
          P.exec_domain ~udi:1 ~pkey:3 ~has_cleanup:true ();
          P.exec_domain ~udi:2 ~pkey:4 ~has_cleanup:true
            ~heap:[ r 0x40000 0x8000 3 ]
            ();
        ];
    }
  in
  check bool "mis-keyed sub-heap flagged" true
    (List.mem "cross-visibility" (rules_of (P.check leaky_heap)))

let test_cross_visibility_negative () =
  (* The clean model, plus the legitimate sharing shapes: an accessible
     child reachable from its parent, and a data domain with an explicit
     dprotect grant. Neither is a finding. *)
  let legit =
    {
      clean_model with
      P.domains =
        clean_model.P.domains
        @ [
            P.data_domain ~udi:11 ~pkey:5
              ~heap:[ r 0x50000 0x4000 5 ]
              ~perms:[ (1, Vmem.Prot.read) ]
              ();
          ];
    }
  in
  check bool "declared grants are not findings" false
    (List.mem "cross-visibility" (rules_of (P.check legit)))

let test_gate_buffer_positive () =
  (* The gate hands a sealed callee a buffer inside the caller's heap. *)
  let m =
    {
      clean_model with
      P.domains =
        [
          P.exec_domain ~udi:1 ~pkey:3 ~has_cleanup:true
            ~heap:[ r 0x20000 0x8000 3 ]
            ();
          P.exec_domain ~udi:2 ~pkey:4 ~accessible:false ~has_cleanup:true
            ~stack:(r 0x30000 0x4000 4)
            ();
        ];
      gates =
        [
          {
            P.g_name = "parse";
            g_caller = 0;
            g_callee = 2;
            g_buffers = [ ("req", 0x20010) ];
          };
        ];
    }
  in
  let fs = P.check m in
  check bool "unreadable gate buffer flagged" true
    (List.mem "gate-buffer" (rules_of fs))

let test_gate_buffer_negative () =
  (* Same gate, but the buffer lives in the callee's own sub-heap. *)
  let m =
    {
      clean_model with
      P.gates =
        [
          {
            P.g_name = "parse";
            g_caller = 0;
            g_callee = 1;
            g_buffers = [ ("req", 0x20010) ];
          };
        ];
    }
  in
  check bool "readable gate buffer passes" false
    (List.mem "gate-buffer" (rules_of (P.check m)))

let test_abort_hook_positive () =
  let m =
    {
      clean_model with
      P.domains = [ P.exec_domain ~udi:1 ~pkey:3 () ];
    }
  in
  let fs = P.check m in
  check bool "hookless domain warned" true
    (List.mem "no-abort-hook" (rules_of fs));
  check bool "warning severity" true
    (List.exists
       (fun f -> f.P.rule = "no-abort-hook" && f.P.severity = P.Warning)
       fs);
  (* Warnings alone must not reject. *)
  P.assert_ok m

let test_abort_hook_negative () =
  (* A monitor-wide incident handler observes every rewind: the same
     hookless domain stops being a finding. *)
  let m =
    {
      clean_model with
      P.domains = [ P.exec_domain ~udi:1 ~pkey:3 () ];
      global_handler = true;
    }
  in
  check bool "global handler suppresses warning" false
    (List.mem "no-abort-hook" (rules_of (P.check m)))

let test_unreachable_positive () =
  (* An orphan (parent never reaches root) and a two-domain parent
     cycle. *)
  let orphan =
    {
      clean_model with
      P.domains = [ P.exec_domain ~udi:1 ~parent:9 ~pkey:3 ~has_cleanup:true () ];
    }
  in
  check bool "orphan flagged" true
    (List.mem "unreachable" (rules_of (P.check orphan)));
  let cycle =
    {
      clean_model with
      P.domains =
        [
          P.exec_domain ~udi:1 ~parent:2 ~pkey:3 ~has_cleanup:true ();
          P.exec_domain ~udi:2 ~parent:1 ~pkey:4 ~has_cleanup:true ();
        ];
    }
  in
  check bool "cycle flagged" true
    (List.mem "unreachable" (rules_of (P.check cycle)))

let test_unreachable_negative () =
  (* A nested chain rooted at the root domain. *)
  let m =
    {
      clean_model with
      P.domains =
        [
          P.exec_domain ~udi:1 ~pkey:3 ~has_cleanup:true ();
          P.exec_domain ~udi:2 ~parent:1 ~pkey:4 ~has_cleanup:true ();
        ];
    }
  in
  check bool "nested chain passes" false
    (List.mem "unreachable" (rules_of (P.check m)))

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_report_formats () =
  let fs =
    P.check
      {
        clean_model with
        P.domains =
          [ P.exec_domain ~udi:1 ~pkey:3 (); P.exec_domain ~udi:2 ~pkey:3 () ];
      }
  in
  let text = P.to_text fs in
  check bool "text has summary line" true (contains text "error(s)");
  check bool "text names the rule" true (contains text "key-overlap");
  let json = P.to_json fs in
  check bool "json starts with findings" true
    (String.length json > 12 && String.sub json 0 12 = "{\"findings\":");
  check bool "json carries counts" true
    (contains json (Printf.sprintf "\"errors\":%d" (P.errors fs)));
  check bool "warning count consistent" true (P.warnings fs >= 1)

(* {1 Policy verifier against live monitors} *)

let test_of_api_clean () =
  with_sdrad (fun space sd ->
      (* Servers attach a supervisor (a monitor-wide incident
         subscriber); mirror that so rewinds are observed. *)
      Api.on_incident sd (fun _ -> ());
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          let p = Api.malloc sd ~udi:1 64 in
          Space.store_string space p "live";
          Api.init_data sd ~udi:11 ~heap_size:8192 ();
          Api.dprotect sd ~udi:1 ~tddi:11 Vmem.Prot.read;
          let m = P.of_api sd in
          let fs = P.check m in
          check string "live monitor is clean" "policy OK: no findings\n"
            (P.to_text fs);
          Api.destroy sd 1 ~heap:`Discard))

let test_of_api_gate_fixture () =
  (* of_api carries user-supplied gates through: hand it one whose buffer
     lives in a nested domain another sealed callee cannot read. *)
  with_sdrad (fun space sd ->
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          let p = Api.malloc sd ~udi:1 64 in
          Space.store_string space p "buf";
          let gate =
            { P.g_name = "g"; g_caller = 0; g_callee = 99; g_buffers = [ ("b", p) ] }
          in
          let fs = P.check (P.of_api ~gates:[ gate ] sd) in
          check bool "bad gate flagged on live snapshot" true
            (List.mem "gate-buffer" (rules_of fs));
          Api.destroy sd 1 ~heap:`Discard))

let test_verify_policy_flag () =
  (* ~verify_policy:true asserts key invariants at init time; a normal
     lifecycle passes. *)
  with_sdrad ~verify_policy:true (fun space sd ->
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          let p = Api.malloc sd ~udi:1 32 in
          Space.store_string space p "ok";
          Api.destroy sd 1 ~heap:`Discard))

(* {1 Heap-poison sanitizer} *)

let test_redzone_overflow_detected_and_rewound () =
  with_sdrad ~sanitizer:true (fun space sd ->
      check bool "sanitizer on" true (Api.sanitizer_enabled sd);
      let rewound = ref None in
      let faults_before = Space.poison_faults space in
      Api.run sd ~udi:1
        ~on_rewind:(fun f -> rewound := Some f)
        (fun () ->
          Api.enter sd 1;
          let p = Api.malloc sd ~udi:1 24 in
          let n = Api.usable_size sd ~udi:1 p in
          check bool "usable size covers request" true (n >= 24);
          (* One byte past the usable size lands in the redzone. *)
          Space.store8 space (p + n) 0xFD);
      (match !rewound with
      | Some { Types.cause = Types.Segv { code = Space.POISON; _ }; failed_udi; _ } ->
          check int "attributed to domain 1" 1 failed_udi
      | Some f ->
          Alcotest.fail (Format.asprintf "wrong cause: %a" Types.pp_fault f)
      | None -> Alcotest.fail "overflow not detected");
      check bool "poison fault counted" true
        (Space.poison_faults space > faults_before);
      check int "domain rewound" 1 (Api.rewind_count sd))

let test_use_after_free_detected_and_rewound () =
  with_sdrad ~sanitizer:true (fun space sd ->
      let rewound = ref false in
      Api.run sd ~udi:1
        ~on_rewind:(fun f ->
          (match f.Types.cause with
          | Types.Segv { code = Space.POISON; _ } -> rewound := true
          | _ -> Alcotest.fail "expected POISON cause"))
        (fun () ->
          Api.enter sd 1;
          let p = Api.malloc sd ~udi:1 48 in
          Space.store_string space p "secret";
          Api.free sd ~udi:1 p;
          ignore (Space.load8 space p));
      check bool "use-after-free rewound" true !rewound)

let test_use_after_discard_detected () =
  (* The lifetime bug the sanitizer exists for: a pointer into a nested
     domain's sub-heap that the domain freed, used after the domain is
     discarded and its regions merged back into the parent. Freed bytes
     stay poisoned across the merge, so the stale read is a detected
     fault, not silent reuse of recycled memory. *)
  with_sdrad ~sanitizer:true (fun space sd ->
      let stale = ref 0 in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          let p = Api.malloc sd ~udi:1 64 in
          Space.store_string space p "short-lived";
          stale := p;
          Api.free sd ~udi:1 p;
          Api.destroy sd 1 ~heap:`Merge);
      (match Space.load8 space !stale with
      | _ -> Alcotest.fail "use-after-discard went undetected"
      | exception Space.Fault { code = Space.POISON; _ } -> ());
      (* And the supervisor-visible shape: the same stale access from
         inside another domain is rewound rather than crashing. *)
      let rewound = ref false in
      Api.run sd ~udi:2
        ~on_rewind:(fun _ -> rewound := true)
        (fun () ->
          Api.enter sd 2;
          ignore (Space.load8 space !stale));
      check bool "stale access rewound" true !rewound)

let test_double_free_still_detected () =
  with_sdrad ~sanitizer:true (fun space sd ->
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          let p = Api.malloc sd ~udi:1 32 in
          Space.store8 space p 1;
          Api.free sd ~udi:1 p;
          match Api.free sd ~udi:1 p with
          | () -> Alcotest.fail "double free not detected"
          | exception _ -> Api.destroy sd 1 ~heap:`Discard))

let test_sanitizer_metrics_exported () =
  with_sdrad ~sanitizer:true (fun space sd ->
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd 1;
          let p = Api.malloc sd ~udi:1 16 in
          let n = Api.usable_size sd ~udi:1 p in
          Space.store8 space (p + n) 1);
      let sample name =
        match Telemetry.Metrics.sample (Api.metrics sd) name with
        | Some v -> v
        | None -> Alcotest.failf "%s not registered" name
      in
      check bool "poison faults sampled" true
        (sample "sanitizer_poison_faults_total" >= 1.0);
      check bool "poisoned ranges sampled" true
        (sample "sanitizer_poisoned_ranges_total" > 0.0);
      check bool "unpoisoned ranges sampled" true
        (sample "sanitizer_unpoisoned_ranges_total" > 0.0);
      (* Prometheus exposition carries the same series. *)
      let exposition = Telemetry.Metrics.expose (Api.metrics sd) in
      check bool "series on /metrics" true
        (let re = "sanitizer_poison_faults_total" in
         let rec find i =
           i + String.length re <= String.length exposition
           && (String.sub exposition i (String.length re) = re || find (i + 1))
         in
         find 0))

let test_sanitizer_off_by_default () =
  with_sdrad (fun space sd ->
      check bool "off by default" false (Api.sanitizer_enabled sd);
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          let p = Api.malloc sd ~udi:1 24 in
          Space.store8 space p 7;
          check int "payload readable" 7 (Space.load8 space p);
          Api.destroy sd 1 ~heap:`Discard))

let test_chaos_kinds_fire_and_rewind () =
  (* Seeded chaos: the two sanitizer-facing kinds, each deterministic for
     its seed, each ending in a rewind (not a crash) on a sanitized
     monitor. *)
  let run_kind kind =
    let rewound = ref 0 in
    with_sdrad ~sanitizer:true (fun space sd ->
        let fi = FI.create ~seed:7 [ FI.rule ~site:"t.site" kind ] in
        Api.run sd ~udi:1
          ~on_rewind:(fun f ->
            (match f.Types.cause with
            | Types.Segv { code = Space.POISON; _ } -> incr rewound
            | _ -> Alcotest.fail "expected POISON cause"))
          (fun () ->
            Api.enter sd 1;
            let buf = Api.malloc sd ~udi:1 64 in
            Space.store_string space buf "chaos";
            ignore (FI.fire_in_domain fi ~site:"t.site" ~sd ~buf ~len:64));
        check int (FI.kind_to_string kind ^ " fired once") 1
          (List.length (FI.events fi)));
    check int (FI.kind_to_string kind ^ " rewound") 1 !rewound
  in
  run_kind FI.Heap_overflow;
  run_kind FI.Use_after_free

(* {1 Repo lint} *)

(* Fixture sources are assembled by concatenation so this test file does
   not itself trip the rules it is testing. *)
let bad name = name ^ "" (* identity; keeps call sites symmetric *)

let test_lint_obj_magic () =
  let src = "let f x = " ^ bad "Obj" ^ ".magic x\n" in
  let vs = L.scan_source ~file:"a.ml" src in
  check int "one violation" 1 (List.length vs);
  check string "rule" "obj-magic" (List.hd vs).L.v_rule;
  check int "line" 1 (List.hd vs).L.v_line;
  let clean = "let f x = Objx.magic_number x\n" in
  check int "no false positive" 0 (List.length (L.scan_source ~file:"a.ml" clean))

let test_lint_wall_clock () =
  let src = "let now () = " ^ bad "Unix" ^ ".gettimeofday ()\n" in
  check bool "Unix use flagged" true
    (List.exists
       (fun v -> v.L.v_rule = "wall-clock")
       (L.scan_source ~file:"a.ml" src));
  let src2 = "let t = " ^ bad "Sys" ^ ".time ()\n" in
  check bool "Sys.time flagged" true
    (List.exists
       (fun v -> v.L.v_rule = "wall-clock")
       (L.scan_source ~file:"a.ml" src2));
  (* Sys.argv is not wall-clock. *)
  check int "Sys.argv passes" 0
    (List.length (L.scan_source ~file:"a.ml" "let a = Sys.argv\n"))

let test_lint_raw_bytes () =
  let src = "let b = Space." ^ bad "unsafe_load" ^ "_bytes sp p 8\n" in
  check bool "raw access flagged outside vmem" true
    (List.exists
       (fun v -> v.L.v_rule = "raw-bytes")
       (L.scan_source ~file:"lib/kvcache/server.ml" src));
  check int "exempt inside vmem" 0
    (List.length (L.scan_source ~file:"lib/vmem/space.ml" src));
  check int "exempt inside checkpoint" 0
    (List.length (L.scan_source ~file:"lib/checkpoint/snap.ml" src))

(* ERIM's rule as a source check: only the monitor's key discipline
   ([lib/core/keys.ml]) and the MPK model touch protection keys. A
   [Space.wrpkru] planted in a kvcache source is reported, and so are
   the four calls planted in [lib/core/api.ml]; the same calls in
   [keys.ml] and [lib/vmem], and the reads [lib/scenario] makes
   ([Space.wrpkru_writes], [pkey_of_addr]), are not. *)
let test_lint_pkey_gate () =
  let planted = "let f sd = Space." ^ bad "wrpkru" ^ " (Api.space sd) 0\n" in
  (match L.scan_source ~file:"lib/kvcache/server.ml" planted with
  | [ v ] ->
      check string "rule" "pkey-gate" v.L.v_rule;
      check int "line" 1 v.L.v_line
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  List.iter
    (fun call ->
      let src = "let g s = Vmem.Space." ^ call ^ "\n" in
      check bool (call ^ " flagged in lib/serve") true
        (List.exists
           (fun v -> v.L.v_rule = "pkey-gate")
           (L.scan_source ~file:"lib/serve/serve.ml" src)))
    [
      bad "pkey" ^ "_alloc s"; bad "pkey" ^ "_free s 3";
      bad "pkey" ^ "_mprotect s ~addr ~len ~prot ~pkey";
    ];
  let in_api =
    planted
    ^ "let g s = Space." ^ bad "pkey" ^ "_alloc s\n"
    ^ "let h s = Space." ^ bad "pkey" ^ "_free s 3\n"
    ^ "let i s = Space." ^ bad "pkey" ^ "_mprotect s ~addr ~len ~prot ~pkey\n"
  in
  check (Alcotest.list int) "the monitor's other modules may not" [ 1; 2; 3; 4 ]
    (List.map
       (fun v -> v.L.v_line)
       (L.scan_source ~file:"lib/core/api.ml" in_api));
  check int "the key discipline may" 0
    (List.length (L.scan_source ~file:"lib/core/keys.ml" in_api));
  check int "the model may" 0
    (List.length (L.scan_source ~file:"lib/vmem/space.ml" in_api));
  let reads =
    "let n = Space." ^ bad "wrpkru" ^ "_writes space\n"
    ^ "let k = Space." ^ bad "pkey" ^ "_of_addr space a\n"
  in
  check int "counter and key reads pass" 0
    (List.length (L.scan_source ~file:"lib/scenario/scenario.ml" reads))

let test_lint_strip_comments_and_strings () =
  (* Banned names inside comments, docstrings and string literals are
     not code. *)
  let src =
    "(* never use " ^ bad "Obj" ^ ".magic here *)\n"
    ^ "let msg = \"" ^ bad "Unix" ^ ".select is banned\"\n"
    ^ "let c = 'x'\n"
  in
  check int "comments and strings stripped" 0
    (List.length (L.scan_source ~file:"a.ml" src));
  (* ...but code after a comment on the same line still matches. *)
  let mixed = "(* cast *) let f = " ^ bad "Obj" ^ ".magic\n" in
  check int "code after comment still flagged" 1
    (List.length (L.scan_source ~file:"a.ml" mixed))

let remove_tree dir = ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

(* A disposable fixture tree [name] under the temp dir, holding [files]
   as [(relative path, contents)]; returns its root. *)
let fixture_tree name files =
  let root = Filename.concat (Filename.get_temp_dir_name ()) name in
  remove_tree root;
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  List.iter
    (fun (path, contents) ->
      let path = Filename.concat root path in
      mkdir_p (Filename.dirname path);
      let oc = open_out path in
      output_string oc contents;
      close_out oc)
    files;
  root

let test_lint_tree_missing_mli_and_allowlist () =
  let dir =
    fixture_tree "lint_fixture"
      [
        ("good.ml", "let x = 1\n");
        ("good.mli", "val x : int\n");
        ("orphan.ml", "let y = " ^ bad "Obj" ^ ".magic 1\n");
      ]
  in
  let vs = L.scan_tree dir in
  let has rule file =
    List.exists
      (fun v -> v.L.v_rule = rule && Filename.basename v.L.v_file = file)
      vs
  in
  check bool "missing mli flagged" true (has "missing-mli" "orphan.ml");
  check bool "pattern rule flagged in tree scan" true (has "obj-magic" "orphan.ml");
  check bool "good.ml clean" false
    (List.exists (fun v -> Filename.basename v.L.v_file = "good.ml") vs);
  (* Allowlist: exact rule, then wildcard. *)
  let orphan_path = Filename.concat dir "orphan.ml" in
  let allow1 = L.parse_allowlist ("missing-mli " ^ orphan_path ^ "\n") in
  let vs1 = L.scan_tree ~allow:allow1 dir in
  check bool "allowlisted rule dropped" false
    (List.exists (fun v -> v.L.v_rule = "missing-mli") vs1);
  check bool "other rule kept" true
    (List.exists (fun v -> v.L.v_rule = "obj-magic") vs1);
  let allow2 = L.parse_allowlist ("# all of it\n* " ^ orphan_path ^ "\n") in
  check int "wildcard drops everything" 0 (List.length (L.scan_tree ~allow:allow2 dir));
  (match L.parse_allowlist "no-such-rule foo.ml\n" ~rule:"obj-magic" ~file:"x" with
  | (_ : bool) -> Alcotest.fail "unknown rule accepted"
  | exception Failure _ -> ());
  remove_tree dir

(* {2 Unused-export rule} *)

let test_lint_unused_export () =
  let root =
    fixture_tree "lint_exports"
      [
        ( "lib/m/m.mli",
          "val planted : int\nval for_bench : int\n(** [val in_doc : int] *)\n"
        );
        ("lib/m/m.ml", "let planted = 1\nlet for_bench = planted\n");
        ("bench/b.ml", "let () = print_int M.for_bench\n");
      ]
  in
  let vs = L.scan_tree (Filename.concat root "lib") in
  check (Alcotest.list string) "only the unreferenced val is flagged"
    [ "val planted: no reference outside its module" ]
    (List.map (fun v -> v.L.v_text) vs);
  check int "at its declaration" 1 (List.hd vs).L.v_line;
  check bool "rule registered" true (List.mem "unused-export" L.rule_names);
  remove_tree root

let test_lint_unused_option () =
  let root =
    fixture_tree "lint_options"
      [
        ( "lib/m/m.mli",
          "val make :\n  ?size:int ->\n  ?planted:bool ->\n  unit -> int\n\
           type u = ?ignored:int -> unit\n" );
        ( "lib/m/m.ml",
          "type u = ?ignored:int -> unit\n\
           let make ?(size = 1) ?(planted = false) () =\n\
          \  if planted then 0 else size\n\
           let again = make ~planted:true ()\n" );
        ("bench/b.ml", "let () = print_int (M.make ~size:2 ())\n");
      ]
  in
  let vs = L.scan_tree (Filename.concat root "lib") in
  check (Alcotest.list string) "only the option no other module passes"
    [ "val make: no caller outside its module passes ?planted" ]
    (List.map (fun v -> v.L.v_text) vs);
  check int "at the parameter" 3 (List.hd vs).L.v_line;
  check bool "rule registered" true (List.mem "unused-option" L.rule_names);
  remove_tree root

(* {2 Metric-naming rule}

   Runs on raw source (the names it judges are string literals), so the
   fixtures here are plain strings — no [bad] concatenation needed; test/
   is outside the linted tree anyway. *)

let test_lint_metric_naming_violations () =
  let scan src = L.scan_metric_names ~file:"lib/kvcache/server.ml" src in
  let one src needle =
    match scan src with
    | [ v ] ->
        check string "rule" "metric-naming" v.L.v_rule;
        check bool (needle ^ " in message") true (contains v.L.v_text needle)
    | l ->
        Alcotest.failf "%S: expected 1 violation, got %d" src (List.length l)
  in
  one "let c = M.counter m \"kvcache_oops\"\n" "must end in _total";
  one "let c = M.counter m \"bogus_items_total\"\n" "no known subsystem prefix";
  one "let h = M.histogram m \"kvcache_lat_total\"\n" "_total is for counters only";
  one "let g = M.gauge m \"supervisor_depth_total\"\n" "_total is for counters only";
  one
    "let () =\n\
    \  M.gauge_fn m \"vmem_mapped_bytes_count\"\n\
    \    (fun () -> 0.0)\n"
    "reserved for the histogram exposition";
  one "let h = M.histogram m \"sdrad_rewind_cycles_bucket\"\n"
    "reserved for the histogram exposition";
  (* The violation is attributed to the registration line. *)
  match scan "let x = 1\nlet c = M.counter m \"kvcache_oops\"\n" with
  | [ v ] -> check int "line" 2 v.L.v_line
  | _ -> Alcotest.fail "expected 1 violation"

let test_lint_metric_naming_accepts () =
  let scan src = L.scan_metric_names ~file:"lib/kvcache/server.ml" src in
  let clean name src =
    check int name 0 (List.length (scan src))
  in
  clean "conformant counter" "let c = M.counter m \"kvcache_requests_total\"\n";
  clean "callback counter, parenthesized registry"
    "let () =\n\
    \  M.counter_fn (Api.metrics sd) \"sdrad_flight_events_total\"\n\
    \    (fun () -> 0)\n";
  clean "histogram with a unit suffix"
    "let h = M.histogram m \"client_op_latency_cycles\"\n";
  (* Computed names are the caller's contract, not the rule's. *)
  clean "computed name skipped" "let c = M.counter m (prefix ^ \"_total\")\n";
  (* Record fields and type mentions are not registration sites. *)
  clean "type position skipped"
    "type t = { served : Telemetry.Metrics.counter }\n";
  clean "field access skipped" "let n = M.counter_value st.counter\n";
  check bool "rule registered" true (List.mem "metric-naming" L.rule_names);
  check bool "every known prefix ends in underscore" true
    (List.for_all
       (fun p -> String.length p > 1 && p.[String.length p - 1] = '_')
       L.metric_prefixes);
  (* The allowlist parser accepts the rule name. *)
  check bool "allowlistable" true
    (L.parse_allowlist "metric-naming lib/foo.ml\n" ~rule:"metric-naming"
       ~file:"lib/foo.ml")

let test_lint_repo_is_clean () =
  (* The acceptance bar behind `make lint`: lib/ has no violations under
     the committed allowlist. Locate the repo root from the build dir.
     The unused-export and unused-option rules are left to @lint: they
     read every tree beside lib/, which @lint declares as deps and this
     test does not. *)
  let rec find_root d =
    if Sys.file_exists (Filename.concat d "lint.allow") then Some d
    else
      let up = Filename.dirname d in
      if up = d then None else find_root up
  in
  match find_root (Sys.getcwd ()) with
  | None -> () (* sandboxed build layout without sources; covered by @lint *)
  | Some root ->
      let allow = L.load_allowlist (Filename.concat root "lint.allow") in
      let vs =
        List.filter
          (fun v ->
            v.L.v_rule <> "unused-export" && v.L.v_rule <> "unused-option")
          (L.scan_tree ~allow (Filename.concat root "lib"))
      in
      check string "lib/ lints clean" "lint OK: no violations\n" (L.to_text vs)

let () =
  Alcotest.run "analysis"
    [
      ( "policy-fixtures",
        [
          Alcotest.test_case "clean model passes" `Quick test_clean_model_passes;
          Alcotest.test_case "key-overlap +" `Quick test_key_overlap_positive;
          Alcotest.test_case "key-overlap -" `Quick test_key_overlap_negative;
          Alcotest.test_case "cross-visibility +" `Quick test_cross_visibility_positive;
          Alcotest.test_case "cross-visibility -" `Quick test_cross_visibility_negative;
          Alcotest.test_case "gate-buffer +" `Quick test_gate_buffer_positive;
          Alcotest.test_case "gate-buffer -" `Quick test_gate_buffer_negative;
          Alcotest.test_case "no-abort-hook +" `Quick test_abort_hook_positive;
          Alcotest.test_case "no-abort-hook -" `Quick test_abort_hook_negative;
          Alcotest.test_case "unreachable +" `Quick test_unreachable_positive;
          Alcotest.test_case "unreachable -" `Quick test_unreachable_negative;
          Alcotest.test_case "report formats" `Quick test_report_formats;
        ] );
      ( "policy-live",
        [
          Alcotest.test_case "of_api clean" `Quick test_of_api_clean;
          Alcotest.test_case "of_api bad gate" `Quick test_of_api_gate_fixture;
          Alcotest.test_case "verify_policy flag" `Quick test_verify_policy_flag;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "redzone overflow" `Quick
            test_redzone_overflow_detected_and_rewound;
          Alcotest.test_case "use-after-free" `Quick
            test_use_after_free_detected_and_rewound;
          Alcotest.test_case "use-after-discard" `Quick
            test_use_after_discard_detected;
          Alcotest.test_case "double free" `Quick test_double_free_still_detected;
          Alcotest.test_case "metrics exported" `Quick
            test_sanitizer_metrics_exported;
          Alcotest.test_case "off by default" `Quick test_sanitizer_off_by_default;
          Alcotest.test_case "chaos kinds" `Quick test_chaos_kinds_fire_and_rewind;
        ] );
      ( "lint",
        [
          Alcotest.test_case "obj-magic" `Quick test_lint_obj_magic;
          Alcotest.test_case "wall-clock" `Quick test_lint_wall_clock;
          Alcotest.test_case "raw-bytes" `Quick test_lint_raw_bytes;
          Alcotest.test_case "pkey-gate" `Quick test_lint_pkey_gate;
          Alcotest.test_case "strip" `Quick test_lint_strip_comments_and_strings;
          Alcotest.test_case "tree + allowlist" `Quick
            test_lint_tree_missing_mli_and_allowlist;
          Alcotest.test_case "unused-export" `Quick test_lint_unused_export;
          Alcotest.test_case "metric-naming +" `Quick
            test_lint_metric_naming_violations;
          Alcotest.test_case "metric-naming -" `Quick
            test_lint_metric_naming_accepts;
          Alcotest.test_case "repo clean" `Quick test_lint_repo_is_clean;
          Alcotest.test_case "unused-option" `Quick test_lint_unused_option;
        ] );
    ]
