(* Tests for the §VI extensions of the core library: incident reporting,
   abnormal-exit cleanups, rewind-aware locks (Dlock), and discard-time
   scrubbing. *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types
module Dlock = Sdrad.Dlock

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let with_sdrad ?stack_reuse f =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create ?stack_reuse space in
  Sched.main (fun _ -> f space sd)

let fault_in_domain sd space udi =
  Api.run sd ~udi
    ~on_rewind:(fun _ -> ())
    (fun () ->
      Api.enter sd udi;
      ignore (Space.load8 space 0))

(* {1 Incidents} *)

let test_incident_log () =
  with_sdrad (fun space sd ->
      fault_in_domain sd space 1;
      fault_in_domain sd space 2;
      let log = Api.incidents sd in
      check int "two incidents" 2 (List.length log);
      check (Alcotest.list int) "ordered oldest first" [ 1; 2 ]
        (List.map (fun f -> f.Types.failed_udi) log))

let test_incident_handler_called () =
  with_sdrad (fun space sd ->
      let seen = ref [] in
      Api.set_incident_handler sd (fun f ->
          (* Handler runs back in the parent: the failing domain is gone. *)
          check bool "domain already discarded" false
            (Api.is_initialized sd f.Types.failed_udi);
          seen := f.Types.failed_udi :: !seen);
      fault_in_domain sd space 3;
      check (Alcotest.list int) "handler saw it" [ 3 ] !seen)

let test_incident_handler_can_count_and_react () =
  with_sdrad (fun space sd ->
      (* The §VI mitigation sketch: force action after N rewinds. *)
      let strikes = ref 0 in
      Api.set_incident_handler sd (fun _ -> incr strikes);
      for _ = 1 to 5 do
        fault_in_domain sd space 1
      done;
      check int "all rewinds counted" 5 !strikes)

let test_incident_handler_after_cleanups () =
  with_sdrad (fun space sd ->
      (* Ordering contract: abnormal-exit cleanups run while the domain is
         being torn down (inside the monitor), and the incident handler
         fires afterwards, back in the parent — so a handler that inspects
         shared state sees the post-cleanup view. *)
      let order = ref [] in
      Api.set_incident_handler sd (fun _ -> order := `Handler :: !order);
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> order := `On_rewind :: !order)
        (fun () ->
          Api.enter sd 1;
          let (_ : unit -> unit) =
            Api.on_abnormal_cleanup sd (fun () -> order := `Cleanup :: !order)
          in
          ignore (Space.load8 space 0));
      check bool "cleanup, then handler, then on_rewind" true
        (List.rev !order = [ `Cleanup; `Handler; `On_rewind ]))

let test_incidents_ordered_across_nested_grandparent () =
  with_sdrad (fun space sd ->
      (* Each Grandparent fault unwinds two levels but records exactly one
         incident, attributed to the inner (faulting) domain; repeated
         faults appear in the log oldest first. *)
      let grandparent_fault ~outer ~inner =
        Api.run sd ~udi:outer
          ~on_rewind:(fun f ->
            check int "outer handler attributes inner udi" inner
              f.Types.failed_udi)
          (fun () ->
            Api.enter sd outer;
            Api.run sd ~udi:inner
              ~opts:{ Types.default_options with rewind = Types.Grandparent }
              ~on_rewind:(fun _ -> Alcotest.fail "skipped by grandparent")
              (fun () ->
                Api.enter sd inner;
                ignore (Space.load8 space 0)))
      in
      grandparent_fault ~outer:1 ~inner:2;
      grandparent_fault ~outer:3 ~inner:4;
      grandparent_fault ~outer:1 ~inner:2;
      check (Alcotest.list int) "one incident per fault, oldest first"
        [ 2; 4; 2 ]
        (List.map (fun f -> f.Types.failed_udi) (Api.incidents sd)))

(* {1 Cleanups} *)

let test_cleanup_runs_on_abnormal_exit () =
  with_sdrad (fun space sd ->
      let ran = ref false in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd 1;
          let (_ : unit -> unit) = (Api.on_abnormal_cleanup sd (fun () -> ran := true)) in
          ignore (Space.load8 space 0));
      check bool "cleanup ran" true !ran)

let test_cleanup_cancelled_on_normal_exit () =
  with_sdrad (fun _ sd ->
      let ran = ref false in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          Api.enter sd 1;
          let cancel = Api.on_abnormal_cleanup sd (fun () -> ran := true) in
          cancel ();
          Api.exit_domain sd;
          Api.destroy sd 1 ~heap:`Discard);
      check bool "cancelled cleanup did not run" false !ran)

let test_cleanup_cancel_after_completion_is_noop () =
  with_sdrad (fun _ sd ->
      (* A cancel function that outlives its domain must stay safe: calling
         it after the normal completion (or twice) is a no-op, never a
         crash or a resurrection of the cleanup. *)
      let ran = ref false in
      let escaped = ref (fun () -> ()) in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          Api.enter sd 1;
          escaped := Api.on_abnormal_cleanup sd (fun () -> ran := true);
          Api.exit_domain sd;
          Api.destroy sd 1 ~heap:`Discard);
      !escaped ();
      !escaped ();
      check bool "late cancel is inert" false !ran;
      (* The slot is genuinely gone: a fresh lifecycle of the same udi must
         not re-trigger the old cleanup on its own abnormal exit. *)
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd 1;
          Api.abort sd "drill");
      check bool "old cleanup not resurrected" false !ran)

let test_cleanup_rejected_in_root () =
  with_sdrad (fun _ sd ->
      Alcotest.check_raises "root has no abnormal exit"
        (Types.Error Types.Root_operation) (fun () ->
          let (_ : unit -> unit) = (Api.on_abnormal_cleanup sd (fun () -> ())) in ()))

let test_cleanups_run_for_all_discarded_domains () =
  with_sdrad (fun space sd ->
      (* Grandparent rewind discards both nesting levels; both cleanups
         must fire, innermost domain first. *)
      let order = ref [] in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd 1;
          let (_ : unit -> unit) = (Api.on_abnormal_cleanup sd (fun () -> order := `Outer :: !order)) in
          Api.run sd ~udi:2
            ~opts:{ Types.default_options with rewind = Types.Grandparent }
            ~on_rewind:(fun _ -> Alcotest.fail "skipped by grandparent rewind")
            (fun () ->
              Api.enter sd 2;
              let (_ : unit -> unit) = (Api.on_abnormal_cleanup sd (fun () -> order := `Inner :: !order)) in
              ignore (Space.load8 space 0)));
      check bool "both ran, inner first" true (!order = [ `Outer; `Inner ]))

(* {1 Dlock} *)

let test_dlock_basic () =
  with_sdrad (fun _ sd ->
      let l = Dlock.create sd in
      check bool "clean acquire" true (Dlock.acquire l);
      check (Alcotest.option int) "holder" (Some (Sched.self ())) (Dlock.holder l);
      Dlock.release l;
      check (Alcotest.option int) "released" None (Dlock.holder l))

let test_dlock_released_by_rewind () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  let sched = Sched.create () in
  let l = Dlock.create sd in
  let second_thread_got_lock = ref false in
  let _ =
    Sched.spawn sched ~name:"crasher" (fun () ->
        Api.run sd ~udi:1
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd 1;
            ignore (Dlock.acquire l);
            (* Let the other thread start contending, then crash while
               holding the lock — the scenario of §VI. *)
            Sched.yield ();
            ignore (Space.load8 space 0)))
  in
  let _ =
    Sched.spawn sched ~name:"waiter" (fun () ->
        Sched.charge 5.0;
        let clean = Dlock.acquire l in
        second_thread_got_lock := true;
        check bool "lock arrived poisoned" false clean;
        Dlock.clear_poisoned l;
        Dlock.release l)
  in
  Sched.run sched;
  check bool "waiter not deadlocked" true !second_thread_got_lock;
  check bool "poison cleared" false (Dlock.poisoned l)

let test_dlock_normal_release_not_poisoned () =
  with_sdrad (fun _ sd ->
      let l = Dlock.create sd in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd 1;
          ignore (Dlock.acquire l);
          Dlock.release l;
          Api.exit_domain sd;
          Api.destroy sd 1 ~heap:`Discard);
      check bool "not poisoned" false (Dlock.poisoned l);
      check bool "reacquirable" true (Dlock.acquire l);
      Dlock.release l)

let test_dlock_released_from_discarded_subtree () =
  with_sdrad (fun space sd ->
      (* Regression: a lock acquired two levels below the faulting domain
         — whose holder then exited back to Ready without releasing —
         must be poison-released when the rewind discards the whole
         subtree. Before the transactional-rewind work only the faulting
         domain's own cleanups ran, so the lock stayed held forever. *)
      let l = Dlock.create sd in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd 1;
          Api.run sd ~udi:2
            ~on_rewind:(fun _ -> Alcotest.fail "no rewind at level 2")
            (fun () ->
              Api.enter sd 2;
              Api.run sd ~udi:3
                ~on_rewind:(fun _ -> Alcotest.fail "no rewind at level 3")
                (fun () ->
                  Api.enter sd 3;
                  ignore (Dlock.acquire l);
                  (* Exit upwards without releasing: udis 2 and 3 are left
                     Ready, the lock still held from udi 3. *)
                  Api.exit_domain sd);
              Api.exit_domain sd);
          ignore (Space.load8 space 0));
      check bool "ready descendants discarded" false (Api.is_initialized sd 3);
      check (Alcotest.option int) "lock released by subtree discard" None
        (Dlock.holder l);
      check bool "and poisoned" true (Dlock.poisoned l);
      check bool "reacquirable, reported dirty" false (Dlock.acquire l);
      Dlock.clear_poisoned l;
      Dlock.release l)

let test_dlock_released_by_destroy_subtree () =
  with_sdrad (fun _ sd ->
      (* The explicit-destroy path has the same obligation: destroying a
         domain force-discards its Ready descendants, and their abnormal
         cleanups (the lock release among them) must run. *)
      let l = Dlock.create sd in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          Api.enter sd 1;
          Api.run sd ~udi:2
            ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
            (fun () ->
              Api.enter sd 2;
              ignore (Dlock.acquire l);
              Api.exit_domain sd);
          Api.exit_domain sd;
          Api.destroy sd 1 ~heap:`Discard);
      check bool "descendant gone" false (Api.is_initialized sd 2);
      check (Alcotest.option int) "lock released by destroy" None
        (Dlock.holder l);
      check bool "poisoned by forced discard" true (Dlock.poisoned l);
      (* Clearing is holder-only: take the lock before clearing. *)
      check bool "reacquired dirty" false (Dlock.acquire l);
      Dlock.clear_poisoned l;
      Dlock.release l)

let test_dlock_with_lock_reports_poison () =
  with_sdrad (fun space sd ->
      let l = Dlock.create sd in
      (* Poison it via a rewind with a raw acquire. *)
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          Api.enter sd 1;
          ignore (Dlock.acquire l);
          ignore (Space.load8 space 0));
      let observed = ref None in
      Dlock.with_lock l (fun ~poisoned -> observed := Some poisoned);
      check (Alcotest.option bool) "with_lock saw poison" (Some true) !observed)

(* {1 Scrubbing} *)

let test_scrub_on_discard () =
  (* Without scrubbing, a reused stack area leaks the dead domain's data
     to the next domain that gets it; with scrubbing it reads as zero. *)
  let residue scrub =
    let out = ref "" in
    with_sdrad ~stack_reuse:true (fun space sd ->
        let opts = { Types.default_options with scrub_on_discard = scrub } in
        Api.run sd ~udi:1 ~opts
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd 1;
            let buf = Api.alloca sd 64 in
            Space.store_string space buf "TOP-SECRET-VALUE";
            Api.exit_domain sd;
            Api.destroy sd 1 ~heap:`Discard);
        (* The next domain receives the pooled stack area. *)
        Api.run sd ~udi:2
          ~on_rewind:(fun _ -> ())
          (fun () ->
            Api.enter sd 2;
            let buf = Api.alloca sd 64 in
            out := Space.read_string space buf 16;
            Api.exit_domain sd;
            Api.destroy sd 2 ~heap:`Discard));
    !out
  in
  check Alcotest.string "unscrubbed stack leaks" "TOP-SECRET-VALUE" (residue false);
  check Alcotest.string "scrubbed stack is clean" (String.make 16 '\000')
    (residue true)

let test_scrub_after_rewind () =
  (* What a kernel-level reader finds where the rewound domain's heap was
     mapped. munmap leaves the pages' contents behind, so only the scrub
     stands between the secret and that reader. *)
  let residue scrub =
    let out = ref "" in
    with_sdrad ~stack_reuse:true (fun space sd ->
        let opts = { Types.default_options with scrub_on_discard = scrub } in
        let secret_addr = ref 0 in
        Api.run sd ~udi:1 ~opts
          ~on_rewind:(fun _ -> ())
          (fun () ->
            let p = Api.malloc sd ~udi:1 32 in
            Space.store_string space p "session-key-1234";
            secret_addr := p;
            Api.enter sd 1;
            ignore (Space.load8 space 0));
        out := Bytes.to_string (Space.unsafe_load_bytes space !secret_addr 16));
    !out
  in
  check Alcotest.string "unscrubbed heap leaves the plaintext"
    "session-key-1234" (residue false);
  check bool "no plaintext residue after a scrubbed rewind" true
    (residue true <> "session-key-1234")


(* {1 Data-domain and nesting corners} *)

let test_data_domain_merge_into_root () =
  with_sdrad (fun space sd ->
      Api.init_data sd ~udi:9 ();
      let p = Api.malloc sd ~udi:9 32 in
      Space.store_string space p "survives merge";
      Api.destroy sd 9 ~heap:`Merge;
      (* The allocation now belongs to the root heap. *)
      check Alcotest.string "data intact" "survives merge"
        (Space.read_string space p 14);
      Api.free sd ~udi:Types.root_udi p)

let test_data_domain_created_by_nested_domain () =
  with_sdrad (fun space sd ->
      (* The creator (a nested domain) gets write access by default; the
         root does not until granted. *)
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "unexpected rewind")
        (fun () ->
          Api.enter sd 1;
          Api.init_data sd ~udi:9 ();
          let cell = Api.malloc sd ~udi:9 16 in
          Space.store_string space cell "from the inside";
          Api.exit_domain sd;
          (* Root has no grant yet: reading must fault. *)
          (match Space.load8 space cell with
          | _ -> Alcotest.fail "root read unguarded data domain"
          | exception Space.Fault { code; _ } ->
              check bool "pkuerr" true (code = Space.PKUERR));
          Api.dprotect sd ~udi:Types.root_udi ~tddi:9 Vmem.Prot.read;
          check Alcotest.string "granted read works" "from the inside"
            (Space.read_string space cell 15);
          Api.destroy sd 1 ~heap:`Discard);
      Api.destroy sd 9 ~heap:`Discard)

let test_protect_call_requires_accessible () =
  with_sdrad (fun _ sd ->
      let opts = { Types.default_options with access = Types.Inaccessible } in
      Alcotest.check_raises "cannot copy into a sealed domain"
        (Types.Error Types.Not_accessible) (fun () ->
          ignore (Api.protect_call sd ~udi:1 ~opts ~arg:"x" (fun _ _ -> ()))))

let test_pkeys_shared_across_exec_and_data () =
  with_sdrad (fun _ sd ->
      (* 13 keys remain after monitor+root; mixing data and execution
         domains exhausts them together. *)
      for i = 0 to 5 do
        Api.init_data sd ~udi:(100 + i) ~heap_size:4096 ()
      done;
      let rec nest i =
        if i < 100 then
          Api.run sd ~udi:(200 + i) ~on_rewind:(fun _ -> ()) (fun () -> nest (i + 1))
      in
      Alcotest.check_raises "exhausted" (Types.Error Types.Out_of_pkeys)
        (fun () -> nest 0);
      (* Destroying data domains frees keys for execution domains. *)
      for i = 0 to 5 do
        Api.destroy sd (100 + i) ~heap:`Discard
      done;
      Api.run sd ~udi:300 ~on_rewind:(fun _ -> ()) (fun () ->
          Api.destroy sd 300 ~heap:`Discard))

let test_incidents_carry_timestamps () =
  with_sdrad (fun space sd ->
      Sched.charge 12_345.0;
      fault_in_domain sd space 1;
      match Api.incidents sd with
      | [ f ] -> check bool "timestamped after the charge" true (f.Types.at >= 12_345.0)
      | _ -> Alcotest.fail "expected one incident")

let test_waitset_round_robin_fairness () =
  let sched = Sched.create () in
  let net = Netsim.create Simkern.Cost.default in
  let l = Netsim.listen net ~port:5 in
  let served = Array.make 3 0 in
  let _ =
    Sched.spawn sched ~name:"server" (fun () ->
        let ws = Netsim.Waitset.create () in
        let conns = Array.init 3 (fun _ -> Option.get (Netsim.accept l)) in
        Array.iter (Netsim.Waitset.add ws) conns;
        for _ = 1 to 30 do
          match Netsim.Waitset.wait ws with
          | Some c -> (
              match Netsim.recv c with
              | Some _ ->
                  Array.iteri (fun i x -> if x == c then served.(i) <- served.(i) + 1) conns;
                  Netsim.send c "ok"
              | None -> ())
          | None -> ()
        done)
  in
  for i = 0 to 2 do
    ignore
      (Sched.spawn sched ~name:(Printf.sprintf "c%d" i) (fun () ->
           let c = Netsim.connect net ~port:5 in
           for _ = 1 to 10 do
             Netsim.send c "ping";
             ignore (Netsim.recv c)
           done;
           Netsim.close c))
  done;
  Sched.run sched;
  Array.iteri (fun i n -> check int (Printf.sprintf "conn %d served equally" i) 10 n) served


(* {1 Syscall attack oracle (§VI)} *)

let test_syscall_from_domain_rewinds () =
  with_sdrad (fun space sd ->
      let outcome =
        Api.run sd ~udi:1
          ~on_rewind:(fun f -> `Rewound f.Types.cause)
          (fun () ->
            Api.enter sd 1;
            (* The sandboxed code tries to reach the kernel directly — the
               classic PKU-sandbox escape (map fresh key-0 memory and leak
               through it). *)
            let stash = Space.mmap space ~len:4096 ~prot:Vmem.Prot.rw ~pkey:0 in
            Space.store_string space stash "exfiltrated";
            `Escaped)
      in
      match outcome with
      | `Rewound (Types.Explicit msg) ->
          check bool "names the syscall" true
            (String.length msg > 0 && String.sub msg 0 12 = "unsanctioned")
      | _ -> Alcotest.fail "syscall escape not caught")

let test_syscall_optin_allows () =
  with_sdrad (fun space sd ->
      let opts = { Types.default_options with allow_syscalls = true } in
      Api.run sd ~udi:1 ~opts
        ~on_rewind:(fun _ -> Alcotest.fail "opted-in domain rewound")
        (fun () ->
          Api.enter sd 1;
          let m = Space.mmap space ~len:4096 ~prot:Vmem.Prot.rw ~pkey:0 in
          Space.store8 space m 1;
          Api.exit_domain sd;
          Api.destroy sd 1 ~heap:`Discard))

let test_monitor_syscalls_sanctioned () =
  with_sdrad (fun _ sd ->
      (* Heap growth far beyond the initial pool forces the monitor to
         mmap on the domain's behalf — that must never trip the oracle. *)
      Api.run sd ~udi:1
        ~opts:{ Types.default_options with heap_size = 16 * 1024 }
        ~on_rewind:(fun _ -> Alcotest.fail "monitor mmap tripped the oracle")
        (fun () ->
          Api.enter sd 1;
          let ps = List.init 12 (fun _ -> Api.malloc sd ~udi:1 (32 * 1024)) in
          check bool "all grew" true (List.length (List.sort_uniq compare ps) = 12);
          Api.exit_domain sd;
          Api.destroy sd 1 ~heap:`Discard))

let test_syscalls_fine_in_root () =
  with_sdrad (fun space sd ->
      ignore (Api.current sd);
      let m = Space.mmap space ~len:4096 ~prot:Vmem.Prot.rw ~pkey:0 in
      Space.store8 space m 1;
      Space.munmap space m)

let test_with_domain_and_metrics () =
  with_sdrad (fun space sd ->
      let sample name =
        match Telemetry.Metrics.sample (Api.metrics sd) name with
        | Some v -> int_of_float v
        | None -> Alcotest.fail (name ^ " not registered")
      in
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "no rewind expected")
        (fun () ->
          let p = Api.malloc sd ~udi:1 16 in
          Space.store_string space p "bracketed";
          let v = Api.with_domain sd 1 (fun () -> Space.read_string space p 9) in
          check Alcotest.string "bracket works" "bracketed" v;
          check int "back in root" Types.root_udi (Api.current sd);
          check int "one execution domain live" 1
            (sample "sdrad_execution_domains");
          check bool "keys in use >= 3" true (sample "sdrad_pkeys_in_use" >= 3);
          Api.destroy sd 1 ~heap:`Discard);
      check int "no rewinds recorded" 0 (sample "sdrad_rewinds_total"))

let test_with_domain_fault_propagates_entered () =
  with_sdrad (fun space sd ->
      (* with_domain must not exit the domain on a fault: the rewind
         machinery needs the entered state. *)
      let outcome =
        Api.run sd ~udi:1
          ~on_rewind:(fun f -> `Rewound f.Types.failed_udi)
          (fun () ->
            Api.with_domain sd 1 (fun () -> ignore (Space.load8 space 0));
            `No_fault)
      in
      check bool "fault attributed to the domain" true (outcome = `Rewound 1))


(* {1 Protection-key virtualization (libmpk-style, §IV-B)} *)

let persist_event sd space udi payload =
  (* One persistent-domain event: init (or re-init), write state, deinit. *)
  Api.run sd ~udi
    ~on_rewind:(fun _ -> Alcotest.fail "unexpected rewind")
    (fun () ->
      (match payload with
      | Some s ->
          let p = Api.malloc sd ~udi (String.length s) in
          Space.store_string space p s;
          Api.deinit sd udi;
          Some p
      | None ->
          Api.deinit sd udi;
          None))

let test_virtual_keys_scale_past_fifteen () =
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create ~virtual_keys:true space in
  Sched.main (fun _ ->
      (* 30 persistent domains with 13 usable keys. *)
      let addrs = Array.make 30 0 in
      for udi = 1 to 30 do
        match persist_event sd space udi (Some (Printf.sprintf "state-%02d" udi)) with
        | Some p -> addrs.(udi - 1) <- p
        | None -> Alcotest.fail "no allocation"
      done;
      let sample name =
        Option.value ~default:0.0
          (Telemetry.Metrics.sample (Api.metrics sd) name)
      in
      check bool "evictions happened" true
        (sample "sdrad_key_evictions_total" > 0.0);
      check int "all thirty live" 30
        (int_of_float (sample "sdrad_execution_domains"));
      (* Re-initialize each (unparking it) and verify its state. *)
      for udi = 1 to 30 do
        Api.run sd ~udi
          ~on_rewind:(fun _ -> Alcotest.fail "unexpected rewind")
          (fun () ->
            Api.enter sd udi;
            check Alcotest.string
              (Printf.sprintf "domain %d state" udi)
              (Printf.sprintf "state-%02d" udi)
              (Space.read_string space addrs.(udi - 1) 8);
            Api.exit_domain sd;
            Api.destroy sd udi ~heap:`Discard)
      done)

let test_without_virtual_keys_exhausts () =
  with_sdrad (fun space sd ->
      match
        for udi = 1 to 30 do
          ignore (persist_event sd space udi None)
        done
      with
      | () -> Alcotest.fail "should have exhausted keys"
      | exception Types.Error Types.Out_of_pkeys -> ())

let test_parked_memory_inaccessible () =
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create ~virtual_keys:true space in
  Sched.main (fun _ ->
      let secret = Option.get (persist_event sd space 1 (Some "parked secret")) in
      (* Apply key pressure until domain 1 is parked. *)
      for udi = 2 to 20 do
        ignore (persist_event sd space udi None)
      done;
      check bool "evictions happened" true
        (Telemetry.Metrics.sample (Api.metrics sd) "sdrad_key_evictions_total"
        > Some 0.0);
      (* The parked pages are PROT_NONE: not even the root can read. *)
      match Space.load8 space secret with
      | _ -> Alcotest.fail "parked memory readable"
      | exception Space.Fault { code; _ } ->
          check bool "accerr" true (code = Space.ACCERR))


(* {1 Random domain-lifecycle invariants} *)

let lifecycle_invariants =
  QCheck.Test.make ~name:"random domain lifecycles preserve invariants" ~count:25
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (pair (int_range 1 5) (int_range 0 4)))
    (fun ops ->
      let ok = ref true in
      with_sdrad (fun space sd ->
          let baseline_monitor = Api.monitor_bytes sd in
          List.iter
            (fun (udi_raw, op_raw) ->
              (* Clamp: qcheck shrinking may step outside the generator's
                 range, and udi 0 is the root. *)
              let udi = 1 + (abs udi_raw mod 5) in
              let op = abs op_raw mod 5 in
              (try
                 match op with
                 | 0 ->
                     (* Full clean lifecycle. *)
                     Api.run sd ~udi
                       ~on_rewind:(fun _ -> ())
                       (fun () ->
                         Api.enter sd udi;
                         let p = Api.malloc sd ~udi 64 in
                         Space.store_string space p "x";
                         Api.exit_domain sd;
                         Api.destroy sd udi ~heap:`Discard)
                 | 1 ->
                     (* Faulting lifecycle. *)
                     Api.run sd ~udi
                       ~on_rewind:(fun _ -> ())
                       (fun () ->
                         Api.enter sd udi;
                         ignore (Space.load8 space 0))
                 | 2 ->
                     (* Persistent event (leaves a dormant instance). *)
                     Api.run sd ~udi
                       ~on_rewind:(fun _ -> ())
                       (fun () -> Api.deinit sd udi)
                 | 3 ->
                     (* Heap merge into root. *)
                     Api.run sd ~udi
                       ~on_rewind:(fun _ -> ())
                       (fun () ->
                         ignore (Api.malloc sd ~udi 128);
                         Api.destroy sd udi ~heap:`Merge)
                 | _ ->
                     (* Stack-frame work, then abort. *)
                     Api.run sd ~udi
                       ~on_rewind:(fun _ -> ())
                       (fun () ->
                         Api.enter sd udi;
                         Api.with_stack_frame sd 64 (fun buf ->
                             Space.store8 space buf 1);
                         Api.abort sd "drill")
               with Types.Error Types.Already_initialized -> ());
              (* Invariants after every operation. *)
              if Api.current sd <> Types.root_udi then ok := false)
            ops;
          (* Drain every dormant instance and check the end state. *)
          List.iter
            (fun udi ->
              try
                Api.run sd ~udi
                  ~on_rewind:(fun _ -> ())
                  (fun () -> Api.destroy sd udi ~heap:`Discard)
              with Types.Error _ -> ())
            [ 1; 2; 3; 4; 5 ];
          let sample name =
            Option.value ~default:(-1.0)
              (Telemetry.Metrics.sample (Api.metrics sd) name)
          in
          if sample "sdrad_execution_domains" <> 0.0 then ok := false;
          (* monitor + root keys only *)
          if sample "sdrad_pkeys_in_use" <> 2.0 then ok := false;
          (* The audit log and the flight-recorder rings intentionally
             retain monitor memory; everything else must return to
             baseline. *)
          if
            Api.monitor_bytes sd - Api.audit_bytes sd - Api.flight_bytes sd
            <> baseline_monitor
          then ok := false);
      !ok)

let () =
  Alcotest.run "sdrad-ext"
    [
      ( "incidents",
        [
          Alcotest.test_case "log" `Quick test_incident_log;
          Alcotest.test_case "handler" `Quick test_incident_handler_called;
          Alcotest.test_case "handler counts" `Quick test_incident_handler_can_count_and_react;
          Alcotest.test_case "handler after cleanups" `Quick test_incident_handler_after_cleanups;
          Alcotest.test_case "nested grandparent ordering" `Quick test_incidents_ordered_across_nested_grandparent;
        ] );
      ( "cleanups",
        [
          Alcotest.test_case "runs on abnormal exit" `Quick test_cleanup_runs_on_abnormal_exit;
          Alcotest.test_case "cancelled on normal exit" `Quick test_cleanup_cancelled_on_normal_exit;
          Alcotest.test_case "late cancel no-op" `Quick test_cleanup_cancel_after_completion_is_noop;
          Alcotest.test_case "rejected in root" `Quick test_cleanup_rejected_in_root;
          Alcotest.test_case "deep nesting order" `Quick test_cleanups_run_for_all_discarded_domains;
        ] );
      ( "dlock",
        [
          Alcotest.test_case "basic" `Quick test_dlock_basic;
          Alcotest.test_case "released by rewind" `Quick test_dlock_released_by_rewind;
          Alcotest.test_case "normal release" `Quick test_dlock_normal_release_not_poisoned;
          Alcotest.test_case "released across subtree" `Quick test_dlock_released_from_discarded_subtree;
          Alcotest.test_case "released by destroy" `Quick test_dlock_released_by_destroy_subtree;
          Alcotest.test_case "with_lock poison" `Quick test_dlock_with_lock_reports_poison;
        ] );
      ( "corners",
        [
          Alcotest.test_case "data merge into root" `Quick test_data_domain_merge_into_root;
          Alcotest.test_case "nested creator" `Quick test_data_domain_created_by_nested_domain;
          Alcotest.test_case "protect_call inaccessible" `Quick test_protect_call_requires_accessible;
          Alcotest.test_case "pkey pool shared" `Quick test_pkeys_shared_across_exec_and_data;
          Alcotest.test_case "incident timestamps" `Quick test_incidents_carry_timestamps;
          Alcotest.test_case "waitset fairness" `Quick test_waitset_round_robin_fairness;
        ] );
      ( "syscall-oracle",
        [
          Alcotest.test_case "escape rewinds" `Quick test_syscall_from_domain_rewinds;
          Alcotest.test_case "opt-in allows" `Quick test_syscall_optin_allows;
          Alcotest.test_case "monitor sanctioned" `Quick test_monitor_syscalls_sanctioned;
          Alcotest.test_case "root unaffected" `Quick test_syscalls_fine_in_root;
          Alcotest.test_case "with_domain + stats" `Quick test_with_domain_and_metrics;
          Alcotest.test_case "with_domain fault" `Quick test_with_domain_fault_propagates_entered;
        ] );
      ("lifecycle", [ QCheck_alcotest.to_alcotest lifecycle_invariants ]);
      ( "virtual-keys",
        [
          Alcotest.test_case "scale past 15" `Quick test_virtual_keys_scale_past_fifteen;
          Alcotest.test_case "without: exhausts" `Quick test_without_virtual_keys_exhausts;
          Alcotest.test_case "parked inaccessible" `Quick test_parked_memory_inaccessible;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "scrub on discard" `Quick test_scrub_on_discard;
          Alcotest.test_case "scrub after rewind" `Quick test_scrub_after_rewind;
        ] );
    ]
