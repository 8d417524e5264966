(* Edge-case coverage across the substrates: W^X enforcement, access
   corner cases, protection-key interactions, scheduler stress, network
   corner cases, workload generators and the SDRaD API's misuse guards. *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Pkru = Vmem.Pkru
module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Types = Sdrad.Types

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool


let expect_fault ?code f =
  match f () with
  | _ -> Alcotest.fail "expected a fault"
  | exception Space.Fault fa ->
      Option.iter (fun c -> check bool "si_code" true (fa.code = c)) code

(* {1 vmem corners} *)

let test_wxorx () =
  (* A1 of the threat model: data pages are never executable. *)
  let s = Space.create ~size_mib:4 () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  check bool "rw page not executable" false (Prot.has (Space.prot_of_addr s a) Prot.exec);
  let x = Space.mmap s ~len:4096 ~prot:Prot.rx ~pkey:0 in
  check bool "text page not writable" false (Prot.has (Space.prot_of_addr s x) Prot.write);
  expect_fault ~code:Space.ACCERR (fun () -> Space.store8 s x 0x90)

let test_access_straddles_mapping_end () =
  let s = Space.create ~size_mib:4 () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  (* A 64-bit store whose first bytes are mapped but whose tail is not
     must fault and leave the mapped part untouched. *)
  expect_fault ~code:Space.MAPERR (fun () -> Space.store64 s (a + 4092) (-1));
  check int "partial write did not happen" 0 (Space.load32 s (a + 4092))

let test_blit_cross_pkey_fault () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:4 () in
      let k = Option.get (Space.pkey_alloc s) in
      let src = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
      let dst = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:k in
      Space.wrpkru s (Pkru.allow_read Pkru.all_access ~key:k);
      (* Reading the protected region is fine, writing into it is not. *)
      Space.blit s ~src:dst ~dst:src ~len:64;
      expect_fault ~code:Space.PKUERR (fun () ->
          Space.blit s ~src ~dst ~len:64))

let test_memcmp_and_fill () =
  let s = Space.create ~size_mib:4 () in
  let a = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
  Space.fill s ~addr:a ~len:16 'z';
  Space.fill s ~addr:(a + 100) ~len:16 'z';
  check int "equal ranges" 0 (Space.memcmp s a (a + 100) 16);
  Space.store8 s (a + 107) (Char.code 'y');
  check bool "difference detected" true (Space.memcmp s a (a + 100) 16 <> 0)

let test_mprotect_misuse () =
  let s = Space.create ~size_mib:4 () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  Alcotest.check_raises "unaligned" (Invalid_argument "mprotect: unaligned")
    (fun () -> Space.mprotect s ~addr:(a + 8) ~len:100 ~prot:Prot.read);
  Alcotest.check_raises "unmapped" (Invalid_argument "mprotect: unmapped page")
    (fun () -> Space.mprotect s ~addr:(a + 8192) ~len:4096 ~prot:Prot.read)

let test_pkey_free_then_default_access () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:4 () in
      let k = Option.get (Space.pkey_alloc s) in
      let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:k in
      Space.wrpkru s (Pkru.deny Pkru.all_access ~key:k);
      expect_fault (fun () -> Space.load8 s a);
      (* Rekeying the page back to the default key lifts the restriction
         regardless of the stale PKRU bits for [k]. *)
      Space.pkey_mprotect s ~addr:a ~len:4096 ~prot:Prot.rw ~pkey:0;
      check int "readable under key 0" 0 (Space.load8 s a))

let pkru_bit_prop =
  QCheck.Test.make ~name:"pkru allow/deny round-trips per key" ~count:200
    QCheck.(pair (int_range 0 15) (int_range 0 0xFFFF))
    (fun (key, seed) ->
      let v = Pkru.deny (Pkru.allow_read (seed * 7) ~key:((key + 3) mod 16)) ~key:0 in
      let allowed = Pkru.allow v ~key in
      let denied = Pkru.deny allowed ~key in
      let ro = Pkru.allow_read denied ~key in
      Pkru.can_read allowed ~key && Pkru.can_write allowed ~key
      && (not (Pkru.can_read denied ~key))
      && Pkru.can_read ro ~key
      && not (Pkru.can_write ro ~key))

(* {1 scheduler stress} *)

let test_many_threads_complete () =
  let t = Sched.create () in
  let done_count = ref 0 in
  let rng = Rng.create 9 in
  for i = 0 to 199 do
    ignore
      (Sched.spawn t
         ~name:(Printf.sprintf "s%d" i)
         (fun () ->
           for _ = 1 to 20 do
             Sched.sleep (float_of_int (1 + Rng.int rng 50))
           done;
           incr done_count))
  done;
  Sched.run t;
  check int "all 200 finished" 200 !done_count

let test_nested_spawn_chain () =
  let t = Sched.create () in
  let depth = ref 0 in
  let rec spawn_chain n () =
    depth := max !depth n;
    if n < 50 then begin
      let child = Sched.spawn (Sched.current ()) (spawn_chain (n + 1)) in
      Sched.join child
    end
  in
  let _ = Sched.spawn t (spawn_chain 1) in
  Sched.run t;
  check int "chain of 50" 50 !depth

let test_horizon_with_blocked_wakeups () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let _ =
    Sched.spawn t (fun () ->
        Sched.Mutex.lock m;
        Sched.sleep 10_000.0;
        Sched.Mutex.unlock m)
  in
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 1.0;
        Sched.Mutex.with_lock m (fun () -> Sched.charge 5.0))
  in
  Sched.run t;
  check bool "waiter finished after holder" true (Sched.horizon t >= 10_005.0)

(* {1 netsim corners} *)

let test_try_recv_semantics () =
  Sched.main (fun _ ->
      let net = Netsim.create Simkern.Cost.default in
      let l = Netsim.listen net ~port:1 in
      let c = Netsim.connect net ~port:1 in
      let srv = Option.get (Netsim.accept l) in
      check bool "nothing yet" true (Timed_recv.try_recv srv = None);
      Netsim.send c "later";
      (* The message has in-flight latency: not deliverable instantly. *)
      check bool "still in flight" true (Timed_recv.try_recv srv = None);
      Sched.charge 1.0e6;
      check bool "delivered after time passes" true (Timed_recv.try_recv srv = Some "later"))

let test_latency_scales_with_size () =
  let measure size =
    let out = ref 0.0 in
    Sched.main (fun _ ->
        let net = Netsim.create Simkern.Cost.default in
        let l = Netsim.listen net ~port:1 in
        let c = Netsim.connect net ~port:1 in
        let srv = Option.get (Netsim.accept l) in
        let t0 = Sched.now () in
        Netsim.send c (String.make size 'x');
        ignore (Netsim.recv srv);
        out := Sched.now () -. t0);
    !out
  in
  check bool "bigger message takes longer" true (measure 100_000 > measure 100)

let test_double_close_harmless () =
  Sched.main (fun _ ->
      let net = Netsim.create Simkern.Cost.default in
      let _ = Netsim.listen net ~port:1 in
      let c = Netsim.connect net ~port:1 in
      Netsim.close c;
      Netsim.close c;
      check bool "closed" false (Netsim.is_open c))

(* {1 SDRaD API misuse} *)

let with_sdrad f =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:32 () in
      f space (Api.create space))

let test_unknown_domain_ops () =
  with_sdrad (fun _ sd ->
      Alcotest.check_raises "malloc unknown" (Types.Error Types.Unknown_domain)
        (fun () -> ignore (Api.malloc sd ~udi:42 8));
      Alcotest.check_raises "enter unknown" (Types.Error Types.Unknown_domain)
        (fun () -> Api.enter sd 42);
      Alcotest.check_raises "destroy unknown" (Types.Error Types.Unknown_domain)
        (fun () -> Api.destroy sd 42 ~heap:`Discard))

let test_data_domain_misuse () =
  with_sdrad (fun _ sd ->
      Api.init_data sd ~udi:9 ();
      Alcotest.check_raises "enter data domain" (Types.Error Types.Wrong_kind)
        (fun () -> Api.enter sd 9);
      Alcotest.check_raises "double init" (Types.Error Types.Already_initialized)
        (fun () -> Api.init_data sd ~udi:9 ());
      Alcotest.check_raises "dprotect on exec domain"
        (Types.Error Types.Unknown_domain) (fun () ->
          Api.dprotect sd ~udi:9 ~tddi:77 Prot.read);
      Api.destroy sd 9 ~heap:`Discard;
      (* After destroy the index is reusable as an execution domain. *)
      Api.run sd ~udi:9 ~on_rewind:(fun _ -> ()) (fun () ->
          Api.destroy sd 9 ~heap:`Discard))

let test_dprotect_revocation () =
  with_sdrad (fun space sd ->
      Api.init_data sd ~udi:9 ();
      let cell = Api.malloc sd ~udi:9 16 in
      Space.store_string space cell "shared";
      Api.dprotect sd ~udi:1 ~tddi:9 Prot.read;
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> Alcotest.fail "read should work")
        (fun () ->
          Api.enter sd 1;
          ignore (Space.read_string space cell 6);
          Api.exit_domain sd;
          Api.destroy sd 1 ~heap:`Discard);
      (* Revoke and verify the read now faults. *)
      Api.dprotect sd ~udi:1 ~tddi:9 Prot.none;
      let faulted =
        Api.run sd ~udi:1
          ~on_rewind:(fun f -> f.Types.cause <> Types.Stack_smash)
          (fun () ->
            Api.enter sd 1;
            ignore (Space.read_string space cell 6);
            false)
      in
      check bool "revoked access faults" true faulted)

let test_usable_size () =
  with_sdrad (fun _ sd ->
      let p = Api.malloc sd ~udi:Types.root_udi 100 in
      check bool "usable covers request" true
        (Api.usable_size sd ~udi:Types.root_udi p >= 100);
      Api.free sd ~udi:Types.root_udi p)

let test_domain_pkey_reporting () =
  with_sdrad (fun space sd ->
      Api.run sd ~udi:1
        ~on_rewind:(fun _ -> ())
        (fun () ->
          (match Api.domain_pkey sd 1 with
          | Some k ->
              check bool "pkey in range" true (k >= 1 && k <= 15);
              let p = Api.malloc sd ~udi:1 16 in
              check int "heap carries the domain key" k (Space.pkey_of_addr space p)
          | None -> Alcotest.fail "no pkey for live domain");
          Api.destroy sd 1 ~heap:`Discard);
      check (Alcotest.option int) "gone after destroy" None (Api.domain_pkey sd 1))

(* {1 workload generators} *)

let zipf_bounds_prop =
  QCheck.Test.make ~name:"zipf samples stay in range" ~count:100
    QCheck.(pair small_int (int_range 2 5_000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let z = Workload.Zipf.create rng ~n ~theta:0.99 in
      List.for_all
        (fun _ ->
          let v = Workload.Zipf.next z in
          v >= 0 && v < n)
        (List.init 100 Fun.id))

let test_zipf_theta_effect () =
  let head_mass theta =
    let rng = Rng.create 4 in
    let z = Workload.Zipf.create rng ~n:1000 ~theta in
    let hits = ref 0 in
    for _ = 1 to 10_000 do
      if Workload.Zipf.next z < 10 then incr hits
    done;
    !hits
  in
  check bool "higher skew concentrates more mass" true
    (head_mass 0.99 > head_mass 0.5)

let test_ycsb_presets () =
  check bool "A is half reads" true (Workload.Ycsb.workload_a.Workload.Ycsb.read_fraction = 0.5);
  check bool "B is the default" true (Workload.Ycsb.workload_b = Workload.Ycsb.default_config);
  check bool "C is read-only" true (Workload.Ycsb.workload_c.Workload.Ycsb.read_fraction = 1.0)

let test_speed_native_reasonable () =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:32 () in
      let row =
        Workload.Speed.measure space Workload.Speed.Native ~size:4096 ~iterations:8
      in
      (* AES at ~1.25 cpb and 2.1 GHz is in the GB/s range. *)
      check bool "throughput in a plausible band" true
        (row.Workload.Speed.mb_per_sec > 200.0
        && row.Workload.Speed.mb_per_sec < 3000.0);
      check int "iterations recorded" 8 row.Workload.Speed.iterations)

let test_speed_isolated_slower () =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:32 () in
      let sd = Api.create space in
      let native =
        Workload.Speed.measure space Workload.Speed.Native ~size:1024 ~iterations:10
      in
      let iso =
        Workload.Speed.measure space ~sdrad:sd
          (Workload.Speed.Isolated Crypto.Evp_sdrad.Copy_in_out)
          ~size:1024 ~iterations:10
      in
      check bool "isolation costs something" true
        (iso.Workload.Speed.mb_per_sec < native.Workload.Speed.mb_per_sec))

(* {1 X.509 parsing corners} *)

let test_x509_fields () =
  with_sdrad (fun _ sd ->
      check bool "missing altname rejected" false
        (Crypto.X509.verify sd "CERT|cn=x|sig=ab");
      check bool "non-punycode altname ok" true
        (Crypto.X509.verify sd
           (Crypto.X509.make_cert ~cn:"x" ~altname:"plain.example.org"));
      check bool "short punycode ok" true
        (Crypto.X509.verify sd (Crypto.X509.make_cert ~cn:"x" ~altname:"xn--ab")))

let () =
  Alcotest.run "edges"
    [
      ( "vmem",
        [
          Alcotest.test_case "w^x" `Quick test_wxorx;
          Alcotest.test_case "straddling access" `Quick test_access_straddles_mapping_end;
          Alcotest.test_case "blit cross pkey" `Quick test_blit_cross_pkey_fault;
          Alcotest.test_case "memcmp/fill" `Quick test_memcmp_and_fill;
          Alcotest.test_case "mprotect misuse" `Quick test_mprotect_misuse;
          Alcotest.test_case "rekey to default" `Quick test_pkey_free_then_default_access;
          QCheck_alcotest.to_alcotest pkru_bit_prop;
        ] );
      ( "sched",
        [
          Alcotest.test_case "200 threads" `Quick test_many_threads_complete;
          Alcotest.test_case "nested spawn chain" `Quick test_nested_spawn_chain;
          Alcotest.test_case "horizon with wakeups" `Quick test_horizon_with_blocked_wakeups;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "try_recv" `Quick test_try_recv_semantics;
          Alcotest.test_case "latency scales" `Quick test_latency_scales_with_size;
          Alcotest.test_case "double close" `Quick test_double_close_harmless;
        ] );
      ( "api-misuse",
        [
          Alcotest.test_case "unknown domain" `Quick test_unknown_domain_ops;
          Alcotest.test_case "data domain misuse" `Quick test_data_domain_misuse;
          Alcotest.test_case "dprotect revocation" `Quick test_dprotect_revocation;
          Alcotest.test_case "usable size" `Quick test_usable_size;
          Alcotest.test_case "domain pkey" `Quick test_domain_pkey_reporting;
        ] );
      ( "workload",
        [
          QCheck_alcotest.to_alcotest zipf_bounds_prop;
          Alcotest.test_case "zipf theta" `Quick test_zipf_theta_effect;
          Alcotest.test_case "ycsb presets" `Quick test_ycsb_presets;
          Alcotest.test_case "speed native" `Quick test_speed_native_reasonable;
          Alcotest.test_case "speed isolated slower" `Quick test_speed_isolated_slower;
        ] );
      ( "x509",
        [ Alcotest.test_case "field handling" `Quick test_x509_fields ] );
    ]
