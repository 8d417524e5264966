(* Tests for the SDRaD core: domain life cycle (Figure 1), isolation
   guarantees (R3), rewind semantics (R1/R2), persistent and transient
   patterns, deep nesting (Figure 2), data domains and dprotect,
   multithreading (§III-F), and resource accounting. *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* Run [f] in one simulated thread over a fresh space + SDRaD instance. *)
let with_sdrad ?(size_mib = 32) ?stack_reuse f =
  let space = Space.create ~size_mib () in
  let sd = Api.create ?stack_reuse space in
  Sched.main (fun _ -> f space sd)

let d1 = 1
let d2 = 2


(* {1 Life cycle} *)

let test_lifecycle_normal_exit () =
  with_sdrad (fun space sd ->
      let result =
        Api.run sd ~udi:d1
          ~on_rewind:(fun _ -> Alcotest.fail "unexpected rewind")
          (fun () ->
            let p = Api.malloc sd ~udi:d1 64 in
            Space.store_string space p "argument";
            check int "still in root" Types.root_udi (Api.current sd);
            Api.enter sd d1;
            check int "inside domain" d1 (Api.current sd);
            let v = Space.read_string space p 8 in
            Api.exit_domain sd;
            check int "back in root" Types.root_udi (Api.current sd);
            Api.free sd ~udi:d1 p;
            Api.destroy sd d1 ~heap:`Discard;
            v)
      in
      check string "value out" "argument" result)

let test_run_auto_deinits () =
  with_sdrad (fun _ sd ->
      Api.run sd ~udi:d1 ~on_rewind:(fun _ -> ()) (fun () -> ());
      (* The domain was auto-deinitialized, so it is re-runnable. *)
      Api.run sd ~udi:d1 ~on_rewind:(fun _ -> ()) (fun () -> ());
      check bool "dormant counts as not initialized" false
        (Api.is_initialized sd d1))

let test_double_init_rejected () =
  with_sdrad (fun _ sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Alcotest.check_raises "second init of same udi"
            (Types.Error Types.Already_initialized) (fun () ->
              Api.run sd ~udi:d1 ~on_rewind:(fun _ -> ()) (fun () -> ()));
          Api.destroy sd d1 ~heap:`Discard))

let test_exit_from_root_rejected () =
  with_sdrad (fun _ sd ->
      Alcotest.check_raises "exit at root" (Types.Error Types.Not_entered)
        (fun () -> Api.exit_domain sd))

let test_enter_requires_child () =
  with_sdrad (fun _ sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.run sd ~udi:d2
            ~on_rewind:(fun _ -> ())
            (fun () ->
              (* d2 is a sibling of d1 (both children of root): entering d2
                 from inside d1 must be rejected. *)
              Api.enter sd d1;
              Alcotest.check_raises "sibling is not a child"
                (Types.Error Types.Not_a_child) (fun () -> Api.enter sd d2);
              Api.exit_domain sd;
              Api.destroy sd d2 ~heap:`Discard);
          Api.destroy sd d1 ~heap:`Discard))

let test_destroy_entered_rejected () =
  with_sdrad (fun _ sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd d1;
          Alcotest.check_raises "destroy while entered"
            (Types.Error Types.Domain_entered) (fun () ->
              Api.destroy sd d1 ~heap:`Discard);
          Api.exit_domain sd;
          Api.destroy sd d1 ~heap:`Discard))

(* {1 Isolation (R3)} *)

let test_nested_cannot_write_root () =
  with_sdrad (fun space sd ->
      let root_obj = Api.malloc sd ~udi:Types.root_udi 64 in
      Space.store_string space root_obj "root data";
      let fault =
        Api.run sd ~udi:d1
          ~on_rewind:(fun f -> Some f)
          (fun () ->
            Api.enter sd d1;
            (* Reading root memory is allowed (global data, §IV-C)... *)
            let v = Space.read_string space root_obj 9 in
            check string "read root ok" "root data" v;
            (* ...but writing it must fault with a PKU violation. *)
            Space.store8 space root_obj (Char.code 'X');
            Alcotest.fail "write to root did not fault")
      in
      (match fault with
      | Some { Types.failed_udi; cause = Types.Segv { code; _ }; _ } ->
          check int "failing domain" d1 failed_udi;
          check bool "pku violation" true (code = Space.PKUERR)
      | _ -> Alcotest.fail "expected a PKU fault");
      check string "root data intact" "root data"
        (Space.read_string space root_obj 9))

let test_parent_accesses_accessible_child () =
  with_sdrad (fun space sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          let p = Api.malloc sd ~udi:d1 32 in
          Space.store_string space p "from parent";
          check string "parent reads child heap" "from parent"
            (Space.read_string space p 11);
          Api.destroy sd d1 ~heap:`Discard))

let test_inaccessible_child_sealed () =
  with_sdrad (fun space sd ->
      let opts = { Types.default_options with access = Types.Inaccessible } in
      Api.run sd ~udi:d1 ~opts
        ~on_rewind:(fun _ -> ())
        (fun () ->
          (* The parent cannot even allocate in an inaccessible child. *)
          Alcotest.check_raises "malloc in inaccessible child"
            (Types.Error Types.Not_accessible) (fun () ->
              ignore (Api.malloc sd ~udi:d1 32));
          (* Memory the child allocates is sealed from the parent. *)
          Api.enter sd d1;
          let secret = Api.malloc sd ~udi:d1 32 in
          Space.store_string space secret "sealed secret";
          Api.exit_domain sd;
          (match Space.load8 space secret with
          | _ -> Alcotest.fail "parent read sealed child memory"
          | exception Space.Fault { code; _ } ->
              check bool "pkuerr" true (code = Space.PKUERR));
          Api.destroy sd d1 ~heap:`Discard))

let test_sibling_isolation () =
  with_sdrad (fun space sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.run sd ~udi:d2
            ~on_rewind:(fun _ -> ())
            (fun () ->
              let in_d2 = Api.malloc sd ~udi:d2 32 in
              Space.store_string space in_d2 "d2 data";
              Api.enter sd d1;
              (* From inside d1, d2's memory (a sibling) is unreachable. *)
              (match Space.load8 space in_d2 with
              | _ -> Alcotest.fail "sibling memory readable"
              | exception Space.Fault { code; _ } ->
                  check bool "pkuerr" true (code = Space.PKUERR));
              Api.exit_domain sd;
              Api.destroy sd d2 ~heap:`Discard);
          Api.destroy sd d1 ~heap:`Discard))

let test_parent_readable_option () =
  with_sdrad (fun space sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          let parent_obj = Api.malloc sd ~udi:d1 32 in
          Space.store_string space parent_obj "parent heap";
          Api.enter sd d1;
          let opts =
            { Types.default_options with parent_readable = true }
          in
          Api.run sd ~udi:d2 ~opts
            ~on_rewind:(fun _ -> ())
            (fun () ->
              Api.enter sd d2;
              (* Child may read (not write) the direct parent's memory. *)
              check string "reads parent" "parent heap"
                (Space.read_string space parent_obj 11);
              (match Space.store8 space parent_obj 0 with
              | () -> Alcotest.fail "child wrote parent memory"
              | exception Space.Fault { code; _ } ->
                  check bool "pkuerr" true (code = Space.PKUERR));
              Api.exit_domain sd;
              Api.destroy sd d2 ~heap:`Discard);
          Api.exit_domain sd;
          Api.destroy sd d1 ~heap:`Discard))

(* {1 Rewind and discard (R1/R2)} *)

let test_fault_triggers_rewind () =
  with_sdrad (fun space sd ->
      let outcome =
        Api.run sd ~udi:d1
          ~on_rewind:(fun f -> `Rewound f)
          (fun () ->
            Api.enter sd d1;
            let p = Api.malloc sd ~udi:d1 16 in
            (* Overflow way past the sub-heap: crosses into foreign pages. *)
            for i = 0 to 1_000_000 do
              Space.store8 space (p + i) 0xAA
            done;
            `Completed)
      in
      (match outcome with
      | `Rewound { Types.failed_udi; _ } -> check int "udi" d1 failed_udi
      | `Completed -> Alcotest.fail "overflow not caught");
      (* After the rewind the domain is gone and the thread is in root. *)
      check int "back in root" Types.root_udi (Api.current sd);
      check bool "domain discarded" false (Api.is_initialized sd d1);
      check int "one rewind recorded" 1 (Api.rewind_count sd))

let test_service_continues_after_rewind () =
  with_sdrad (fun space sd ->
      (* An event loop that hits a fault on event 3 keeps serving events —
         requirement R1. *)
      let served = ref 0 in
      for i = 1 to 10 do
        Api.run sd ~udi:d1
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd d1;
            let p = Api.malloc sd ~udi:d1 64 in
            Space.store_string space p (Printf.sprintf "event %d" i);
            if i = 3 then ignore (Space.load8 space 0);
            incr served;
            Api.exit_domain sd;
            Api.destroy sd d1 ~heap:`Discard)
      done;
      check int "nine events served" 9 !served;
      check int "one rewind" 1 (Api.rewind_count sd))

let test_abort_rewinds () =
  with_sdrad (fun _ sd ->
      let outcome =
        Api.run sd ~udi:d1
          ~on_rewind:(fun f -> Some f.Types.cause)
          (fun () ->
            Api.enter sd d1;
            Api.abort sd "CFI violation")
      in
      match outcome with
      | Some (Types.Explicit msg) -> check string "cause" "CFI violation" msg
      | _ -> Alcotest.fail "expected explicit cause")

let test_canary_detects_smash () =
  with_sdrad (fun space sd ->
      let outcome =
        Api.run sd ~udi:d1
          ~on_rewind:(fun f -> Some f.Types.cause)
          (fun () ->
            Api.enter sd d1;
            Api.with_stack_frame sd 32 (fun buf ->
                (* Write one byte past the buffer: smashes the canary but
                   stays inside the domain stack, so only the canary can
                   catch it. *)
                for i = 0 to 32 do
                  Space.store8 space (buf + i) 0x41
                done);
            None)
      in
      match outcome with
      | Some Types.Stack_smash -> ()
      | _ -> Alcotest.fail "canary did not fire")

let test_stack_frame_normal_use () =
  with_sdrad (fun space sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          Api.enter sd d1;
          let v =
            Api.with_stack_frame sd 32 (fun buf ->
                Space.store_string space buf "in-frame";
                Space.read_string space buf 8)
          in
          check string "frame works" "in-frame" v;
          Api.exit_domain sd;
          Api.destroy sd d1 ~heap:`Discard))

let test_stack_exhaustion_rewinds () =
  with_sdrad (fun _ sd ->
      let outcome =
        Api.run sd ~udi:d1
          ~opts:{ Types.default_options with stack_size = 8192 }
          ~on_rewind:(fun f -> Some f.Types.cause)
          (fun () ->
            Api.enter sd d1;
            let rec recurse () =
              ignore (Api.alloca sd 1024);
              recurse ()
            in
            recurse ())
      in
      match outcome with
      | Some (Types.Segv { code; _ }) ->
          check bool "hit the guard page" true (code = Space.MAPERR)
      | _ -> Alcotest.fail "stack exhaustion not converted to rewind")

let test_fault_in_root_kills_thread () =
  let space = Space.create ~size_mib:16 () in
  let sd = Api.create space in
  match
    Sched.main (fun _ ->
        ignore (Api.current sd);
        (* Fault outside any nested domain: unrecoverable. *)
        ignore (Space.load8 space 0))
  with
  | () -> Alcotest.fail "root fault should terminate the thread"
  | exception Space.Fault _ -> ()

let test_grandparent_rewind () =
  with_sdrad (fun space sd ->
      (* Figure 2: a transient outer domain with a nested inner domain that
         rewinds to the outer's recovery point (the root). *)
      let trace = ref [] in
      let outcome =
        Api.run sd ~udi:d1
          ~on_rewind:(fun f -> `Outer_rewind f.Types.failed_udi)
          (fun () ->
            Api.enter sd d1;
            let inner_opts =
              { Types.default_options with rewind = Types.Grandparent }
            in
            let r =
              Api.run sd ~udi:d2 ~opts:inner_opts
                ~on_rewind:(fun _ ->
                  trace := "inner handler" :: !trace;
                  `Inner_rewind)
                (fun () ->
                  Api.enter sd d2;
                  ignore (Space.load8 space 0);
                  `Inner_ok)
            in
            ignore r;
            trace := "after inner" :: !trace;
            Api.exit_domain sd;
            `Outer_ok)
      in
      (* The rewind must skip both the inner handler and the rest of the
         outer body, landing at the outer (grandparent) recovery point. *)
      check bool "outer handler ran with inner's udi" true
        (outcome = `Outer_rewind d2);
      check (Alcotest.list string) "no intermediate code ran" [] !trace;
      check bool "outer domain discarded" false (Api.is_initialized sd d1);
      check bool "inner domain discarded" false (Api.is_initialized sd d2))

let test_rewind_frees_pkeys () =
  with_sdrad (fun space sd ->
      (* Protection keys of discarded domains must be reusable: run more
         rewinds than there are keys. *)
      for _ = 1 to 40 do
        Api.run sd ~udi:d1
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd d1;
            ignore (Space.load8 space 0))
      done;
      check int "forty rewinds" 40 (Api.rewind_count sd))

let test_out_of_pkeys () =
  with_sdrad (fun _ sd ->
      (* Monitor + root consume two keys; 13 remain for domains. *)
      let rec nest i =
        if i < 100 then
          Api.run sd ~udi:(100 + i) ~on_rewind:(fun _ -> ()) (fun () -> nest (i + 1))
      in
      Alcotest.check_raises "keys exhausted" (Types.Error Types.Out_of_pkeys)
        (fun () -> nest 0))

(* {1 Persistent and transient patterns} *)

let test_persistent_domain_keeps_state () =
  with_sdrad (fun space sd ->
      (* Event 1 stores state in the domain heap and deinits (persistent
         pattern); event 2 re-initializes and finds the state intact. *)
      let ctx = ref 0 in
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          ctx := Api.malloc sd ~udi:d1 32;
          Space.store_string space !ctx "session state";
          Api.enter sd d1;
          Api.exit_domain sd;
          Api.deinit sd d1);
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd d1;
          check string "state survived deinit/reinit" "session state"
            (Space.read_string space !ctx 13);
          Api.exit_domain sd;
          Api.destroy sd d1 ~heap:`Discard))

let test_destroy_merge_preserves_allocations () =
  with_sdrad (fun space sd ->
      let p = ref 0 in
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          p := Api.malloc sd ~udi:d1 64;
          Space.store_string space !p "merged into parent";
          Api.destroy sd d1 ~heap:`Merge);
      (* The allocation now belongs to the root domain's heap. *)
      check string "data lives on" "merged into parent"
        (Space.read_string space !p 18);
      Api.free sd ~udi:Types.root_udi !p)

let test_heap_grows_on_demand () =
  with_sdrad ~size_mib:64 (fun _ sd ->
      Api.run sd ~udi:d1
        ~opts:{ Types.default_options with heap_size = 64 * 1024 }
        ~on_rewind:(fun _ -> ())
        (fun () ->
          (* Allocate far beyond the initial pool. *)
          let ps = List.init 40 (fun _ -> Api.malloc sd ~udi:d1 (64 * 1024)) in
          check bool "all allocations distinct" true
            (List.length (List.sort_uniq compare ps) = 40);
          Api.destroy sd d1 ~heap:`Discard))

let test_stack_reuse_toggle () =
  (* With reuse on, repeated init/destroy recycles the stack area (mapped
     bytes stay flat); with reuse off, each destroy unmaps. *)
  let mapped_after reuse =
    let space = Space.create ~size_mib:32 () in
    let sd = Api.create ~stack_reuse:reuse space in
    let sched = Sched.create () in
    let result = ref 0 in
    let _ =
      Sched.spawn sched (fun () ->
          for _ = 1 to 5 do
            Api.run sd ~udi:d1
              ~on_rewind:(fun _ -> ())
              (fun () -> Api.destroy sd d1 ~heap:`Discard)
          done;
          result := Space.mapped_bytes space)
    in
    Sched.run sched;
    !result
  in
  let with_reuse = mapped_after true and without = mapped_after false in
  check bool "reuse keeps one stack mapped" true (with_reuse > without)

(* {1 Data domains} *)

let test_data_domain_rw_matrix () =
  with_sdrad (fun space sd ->
      let dd = 9 in
      Api.init_data sd ~udi:dd ();
      let shared = Api.malloc sd ~udi:dd 64 in
      Space.store_string space shared "shared payload";
      (* d1 gets read-only access; d2 gets none. *)
      Api.dprotect sd ~udi:d1 ~tddi:dd Prot.read;
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> Alcotest.fail "d1 should only read")
        (fun () ->
          Api.enter sd d1;
          check string "d1 reads shared" "shared payload"
            (Space.read_string space shared 14);
          Api.exit_domain sd;
          Api.destroy sd d1 ~heap:`Discard);
      let write_attempt =
        Api.run sd ~udi:d2
          ~on_rewind:(fun f -> `Faulted f.Types.cause)
          (fun () ->
            Api.enter sd d2;
            Space.store8 space shared 0;
            `Wrote)
      in
      (match write_attempt with
      | `Faulted (Types.Segv { code; _ }) ->
          check bool "write denied by pkey" true (code = Space.PKUERR)
      | _ -> Alcotest.fail "d2 write should fault");
      check string "shared intact" "shared payload"
        (Space.read_string space shared 14);
      Api.destroy sd dd ~heap:`Discard)

let test_data_domain_write_permission () =
  with_sdrad (fun space sd ->
      let dd = 9 in
      Api.init_data sd ~udi:dd ();
      let cell = Api.malloc sd ~udi:dd 16 in
      Api.dprotect sd ~udi:d1 ~tddi:dd Prot.rw;
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> Alcotest.fail "rw domain should not fault")
        (fun () ->
          Api.enter sd d1;
          Space.store_string space cell "written by d1";
          Api.exit_domain sd;
          Api.destroy sd d1 ~heap:`Discard);
      check string "visible in root" "written by d1"
        (Space.read_string space cell 13);
      Api.destroy sd dd ~heap:`Discard)

let test_data_domain_survives_rewind () =
  with_sdrad (fun space sd ->
      let dd = 9 in
      Api.init_data sd ~udi:dd ();
      let cell = Api.malloc sd ~udi:dd 16 in
      Space.store_string space cell "durable";
      Api.dprotect sd ~udi:d1 ~tddi:dd Prot.read;
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd d1;
          ignore (Space.load8 space 0));
      check string "data domain untouched by rewind" "durable"
        (Space.read_string space cell 7);
      check bool "data domain still initialized" true (Api.is_initialized sd dd))

(* {1 protect_call (Listing 1)} *)

let test_protect_call_normal () =
  with_sdrad (fun space sd ->
      let r =
        Api.protect_call sd ~udi:d1 ~arg:"hello world" (fun adr len ->
            (* Count the 'l' characters of the copied argument. *)
            let count = ref 0 in
            for i = 0 to len - 1 do
              if Space.load8 space (adr + i) = Char.code 'l' then incr count
            done;
            !count)
      in
      check bool "result" true (r = Ok 3);
      check bool "domain cleaned up" false (Api.is_initialized sd d1))

let test_protect_call_fault () =
  with_sdrad (fun space sd ->
      let r =
        Api.protect_call sd ~udi:d1 ~arg:"boom" (fun adr _len ->
            (* Overflow the argument copy until the domain boundary. *)
            for i = 0 to 10_000_000 do
              Space.store8 space (adr + i) 0xFF
            done)
      in
      match r with
      | Error { Types.failed_udi; _ } -> check int "udi" d1 failed_udi
      | Ok _ -> Alcotest.fail "expected fault")

(* {1 Multithreading (§III-F)} *)

let test_threads_have_independent_domains () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  let sched = Sched.create () in
  let results = Array.make 2 "" in
  for i = 0 to 1 do
    ignore
      (Sched.spawn sched
         ~name:(Printf.sprintf "worker%d" i)
         (fun () ->
           (* Both threads use the same udi: instances are per-thread. *)
           Api.run sd ~udi:d1
             ~on_rewind:(fun _ -> ())
             (fun () ->
               let p = Api.malloc sd ~udi:d1 32 in
               Space.store_string space p (Printf.sprintf "thread %d" i);
               Sched.yield ();
               Api.enter sd d1;
               results.(i) <- Space.read_string space p 8;
               Api.exit_domain sd;
               Api.destroy sd d1 ~heap:`Discard)))
  done;
  Sched.run sched;
  check string "thread 0 data" "thread 0" results.(0);
  check string "thread 1 data" "thread 1" results.(1)

let test_thread_cannot_touch_other_threads_domain () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  let sched = Sched.create () in
  let secret_addr = ref 0 in
  let stolen = ref None in
  let t1 =
    Sched.spawn sched ~name:"owner" (fun () ->
        Api.run sd ~udi:d1
          ~on_rewind:(fun _ -> ())
          (fun () ->
            let p = Api.malloc sd ~udi:d1 32 in
            Space.store_string space p "private";
            secret_addr := p;
            Sched.sleep 1000.0;
            Api.destroy sd d1 ~heap:`Discard))
  in
  let _ =
    Sched.spawn sched ~name:"snoop" (fun () ->
        ignore (Api.current sd);
        Sched.sleep 100.0;
        match Space.load8 space !secret_addr with
        | v -> stolen := Some (`Read v)
        | exception Space.Fault { code; _ } -> stolen := Some (`Fault code))
  in
  Sched.run sched;
  ignore t1;
  check bool "snoop blocked by pkey" true (!stolen = Some (`Fault Space.PKUERR))

let test_rewind_on_one_thread_only () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  let sched = Sched.create () in
  let good = ref 0 in
  let _ =
    Sched.spawn sched ~name:"faulty" (fun () ->
        for _ = 1 to 5 do
          Api.run sd ~udi:d1
            ~on_rewind:(fun _ -> ())
            (fun () ->
              Api.enter sd d1;
              Sched.yield ();
              ignore (Space.load8 space 0))
        done)
  in
  let _ =
    Sched.spawn sched ~name:"healthy" (fun () ->
        for _ = 1 to 5 do
          Api.run sd ~udi:d1
            ~on_rewind:(fun _ -> Alcotest.fail "healthy thread rewound")
            (fun () ->
              Api.enter sd d1;
              Sched.yield ();
              incr good;
              Api.exit_domain sd;
              Api.destroy sd d1 ~heap:`Discard)
        done)
  in
  Sched.run sched;
  check int "healthy thread unaffected" 5 !good;
  check int "faulty thread rewound each time" 5 (Api.rewind_count sd)

(* {1 Accounting} *)

let test_monitor_bytes_track_domains () =
  with_sdrad (fun _ sd ->
      let base = Api.monitor_bytes sd in
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          check bool "monitor grew" true (Api.monitor_bytes sd > base);
          Api.destroy sd d1 ~heap:`Discard);
      check int "monitor back to baseline" base (Api.monitor_bytes sd))

(* The switch profile is the span anatomy of E7; the pair it profiles is
   what one warm enter/exit pair charges an untraced monitor. *)
let test_switch_cost_profile () =
  let a = Scenario.switch_anatomy () in
  check bool "total positive" true (a.Scenario.pair > 0.0);
  let frac = List.assoc "switch.pkru_write" a.Scenario.rows /. a.Scenario.pair in
  (* The paper attributes 30-50% of switch cost to the PKRU write. *)
  check bool "wrpkru fraction in [0.25, 0.65]" true
    (frac > 0.25 && frac < 0.65);
  with_sdrad (fun _ sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> Alcotest.fail "unexpected rewind")
        (fun () ->
          Api.enter sd d1;
          Api.exit_domain sd;
          let t0 = Sched.now () in
          Api.enter sd d1;
          Api.exit_domain sd;
          check (Alcotest.float 1e-6) "untraced pair costs the profiled pair"
            a.Scenario.pair (Sched.now () -. t0);
          Api.destroy sd d1 ~heap:`Discard))

(* Property: a random mix of successful and faulting events never breaks
   the service; after each batch the domain table is clean. *)
let random_events_prop =
  QCheck.Test.make ~name:"random faulting events always recover" ~count:30
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) bool)
    (fun events ->
      let ok = ref true in
      with_sdrad (fun space sd ->
          List.iter
            (fun should_fault ->
              Api.run sd ~udi:d1
                ~on_rewind:(fun _ -> ())
                (fun () ->
                  Api.enter sd d1;
                  let p = Api.malloc sd ~udi:d1 128 in
                  Space.store_string space p "payload";
                  if should_fault then ignore (Space.load8 space 0);
                  Api.exit_domain sd;
                  Api.destroy sd d1 ~heap:`Discard);
              if Api.current sd <> Types.root_udi then ok := false;
              if Api.is_initialized sd d1 then ok := false)
            events);
      !ok)

(* {1 Host allocation budget}

   A domain switch is on every request's path, and so is the rest of the
   monitor's gate sequence. Tracing off, as in every benchmark run; every
   closure and optional argument is built outside the measured loop.

   Neither allocates: a change that brings back a word, such as a boxed
   timestamp, a float handed to another library's function (libraries
   build [-opaque], so it is boxed) or a tuple key, fails here. *)

let enter_exit_words_budget = 0.0

let test_enter_exit_alloc_budget () =
  with_sdrad (fun _ sd ->
      Api.run sd ~udi:d1
        ~on_rewind:(fun _ -> Alcotest.fail "unexpected rewind")
        (fun () ->
          let per_pair =
            Alloc_probe.words_per_call ~n:100 (fun () ->
                Api.enter sd d1;
                Api.exit_domain sd)
          in
          check bool
            (Printf.sprintf "enter/exit pair allocates %.1f words (budget %.0f)"
               per_pair enter_exit_words_budget)
            true
            (per_pair <= enter_exit_words_budget)))

(* One warm persistent-domain request through the monitor, the way the
   servers make it: trace installed, admit event, init, marshalling
   buffer and copy-in, enter, an allocation and a free inside the
   domain, exit, deinit, trace cleared. It allocates nothing. *)
let test_request_gates_alloc_budget () =
  with_sdrad (fun space sd ->
      let udi = Some d1 in
      let src = Api.malloc sd ~udi:Types.root_udi 256 in
      let on_rewind _ = Alcotest.fail "unexpected rewind" in
      let body () =
        let buf = Api.gate_buffer sd ~udi:d1 256 in
        Space.blit space ~src ~dst:buf ~len:256;
        Api.enter sd d1;
        let p = Api.malloc sd ~udi:d1 64 in
        Api.free sd ~udi:d1 p;
        Api.exit_domain sd;
        Api.deinit sd d1
      in
      let request () =
        Api.set_trace sd 0x2fca9509bd23d4;
        Api.flight_event sd ?udi Checkpoint.Flight.Admit;
        Api.run sd ~udi:d1 ~on_rewind body;
        Api.set_trace sd 0
      in
      let words = Alloc_probe.words_per_call ~n:200 request in
      check bool
        (Printf.sprintf "a warm request's gates allocate %.1f words (budget %.0f)"
           words enter_exit_words_budget)
        true
        (words <= enter_exit_words_budget))

(* One rewind and the re-created domain's first allocation: each call
   initializes [d1] afresh (the previous call discarded it), allocates
   in it — which gives the new instance its heap — and faults on a
   stray store. The rewind writes its audit record with the victim's
   flight excerpt, discards the domain and reports the incident. What
   is left is the fault (the exception, its cause and record, the boxed
   fault time), the instance record with its entered-stack cell, heap
   option and region cells, and the boxed rewind time the histogram
   observes: 52.0 words measured, the budget that plus under 10 %.
   271.9 while the victims were lists, the discard built closures,
   [mmap] and [munmap] kept their runs in lists and tables, the stack
   pool consed and the domain table dropped its array when it emptied;
   2,263.3 while the rewind formatted its trigger with
   [Format.asprintf], read the flight ring into a list of records to
   keep its last 8, and the re-created domain allocated a fresh TLSF
   control.

   The heap's first page needs a frame: the discarded instance's frame,
   released when the next instance maps the same range, is reused, so a
   cycle allocates nothing on the major heap (0.0 words measured; 514
   while every cycle made a fresh 4 KiB frame). *)
let rewind_words_budget = 57.0
let rewind_major_words_budget = 40.0

let test_rewind_alloc_budget () =
  with_sdrad (fun space sd ->
      let rewound = ref 0 in
      let on_rewind _ = incr rewound in
      let body () =
        Api.enter sd d1;
        ignore (Api.malloc sd ~udi:d1 64);
        Space.store64 space 64 0x41414141
      in
      let rewind () = Api.run sd ~udi:d1 ~on_rewind body in
      let words = Alloc_probe.words_per_call ~n:200 rewind in
      check int "every call rewound" 300 !rewound;
      check bool
        (Printf.sprintf
           "a rewind and the next domain's first malloc allocate %.1f words \
            (budget %.0f)"
           words rewind_words_budget)
        true
        (words <= rewind_words_budget);
      let major = Alloc_probe.major_words_per_call ~n:200 rewind in
      check bool
        (Printf.sprintf
           "a rewind and the next domain's first malloc allocate %.1f words \
            on the major heap (budget %.0f)"
           major rewind_major_words_budget)
        true
        (major <= rewind_major_words_budget))

let () =
  Alcotest.run "sdrad"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "normal exit" `Quick test_lifecycle_normal_exit;
          Alcotest.test_case "auto deinit" `Quick test_run_auto_deinits;
          Alcotest.test_case "double init" `Quick test_double_init_rejected;
          Alcotest.test_case "exit from root" `Quick test_exit_from_root_rejected;
          Alcotest.test_case "enter requires child" `Quick test_enter_requires_child;
          Alcotest.test_case "destroy entered" `Quick test_destroy_entered_rejected;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "nested cannot write root" `Quick test_nested_cannot_write_root;
          Alcotest.test_case "parent accesses accessible child" `Quick
            test_parent_accesses_accessible_child;
          Alcotest.test_case "inaccessible child sealed" `Quick test_inaccessible_child_sealed;
          Alcotest.test_case "sibling isolation" `Quick test_sibling_isolation;
          Alcotest.test_case "parent readable option" `Quick test_parent_readable_option;
        ] );
      ( "rewind",
        [
          Alcotest.test_case "fault triggers rewind" `Quick test_fault_triggers_rewind;
          Alcotest.test_case "service continues" `Quick test_service_continues_after_rewind;
          Alcotest.test_case "abort" `Quick test_abort_rewinds;
          Alcotest.test_case "canary" `Quick test_canary_detects_smash;
          Alcotest.test_case "stack frame normal" `Quick test_stack_frame_normal_use;
          Alcotest.test_case "stack exhaustion" `Quick test_stack_exhaustion_rewinds;
          Alcotest.test_case "root fault kills thread" `Quick test_fault_in_root_kills_thread;
          Alcotest.test_case "grandparent rewind (fig 2)" `Quick test_grandparent_rewind;
          Alcotest.test_case "rewind frees pkeys" `Quick test_rewind_frees_pkeys;
          Alcotest.test_case "out of pkeys" `Quick test_out_of_pkeys;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "persistent domain" `Quick test_persistent_domain_keeps_state;
          Alcotest.test_case "destroy merge" `Quick test_destroy_merge_preserves_allocations;
          Alcotest.test_case "heap growth" `Quick test_heap_grows_on_demand;
          Alcotest.test_case "stack reuse toggle" `Quick test_stack_reuse_toggle;
        ] );
      ( "data domains",
        [
          Alcotest.test_case "rw matrix" `Quick test_data_domain_rw_matrix;
          Alcotest.test_case "write permission" `Quick test_data_domain_write_permission;
          Alcotest.test_case "survives rewind" `Quick test_data_domain_survives_rewind;
        ] );
      ( "protect_call",
        [
          Alcotest.test_case "normal" `Quick test_protect_call_normal;
          Alcotest.test_case "fault" `Quick test_protect_call_fault;
        ] );
      ( "threads",
        [
          Alcotest.test_case "independent domains" `Quick test_threads_have_independent_domains;
          Alcotest.test_case "cross-thread isolation" `Quick
            test_thread_cannot_touch_other_threads_domain;
          Alcotest.test_case "rewind per thread" `Quick test_rewind_on_one_thread_only;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "monitor bytes" `Quick test_monitor_bytes_track_domains;
          Alcotest.test_case "switch profile" `Quick test_switch_cost_profile;
          Alcotest.test_case "enter/exit host allocation" `Quick
            test_enter_exit_alloc_budget;
          QCheck_alcotest.to_alcotest random_events_prop;
          Alcotest.test_case "request gates host allocation" `Quick
            test_request_gates_alloc_budget;
          Alcotest.test_case "rewind host allocation" `Quick
            test_rewind_alloc_budget;
        ] );
    ]
