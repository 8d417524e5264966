(* Tests for the simulated address space: mapping lifecycle, guard pages,
   load/store round trips, protection bits, protection-key enforcement
   against per-thread PKRU values, rights changes taking effect on the
   next access, RSS accounting, and regression tests for the mprotect
   range validation, the bounded memchr, the negative/zero-length
   handling of the bulk entry points, and the pkey_mprotect syscall-gate
   name. *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Pkru = Vmem.Pkru
module Sched = Simkern.Sched
module Cost = Simkern.Cost

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let check_float msg = Alcotest.check (Alcotest.float 1e-9) msg

let mk () = Space.create ~size_mib:8 ()
let ps = 4096

(* Run a function inside a single simulated thread and propagate failure. *)
let in_thread f =
  let t = Sched.create () in
  let tid = Sched.spawn t ~name:"test" f in
  Sched.run t;
  match Sched.outcome t tid with
  | Some Sched.Completed -> ()
  | Some (Sched.Failed e) -> raise e
  | None -> Alcotest.fail "thread did not finish"

let expect_fault ?code ?access f =
  match f () with
  | _ -> Alcotest.fail "expected a memory fault"
  | exception Space.Fault fa ->
      Option.iter (fun c -> check bool "si_code" true (fa.code = c)) code;
      Option.iter (fun a -> check bool "access" true (fa.access = a)) access

let expect_invalid msg f =
  match f () with
  | _ -> Alcotest.fail ("expected Invalid_argument: " ^ msg)
  | exception Invalid_argument m -> check Alcotest.string "message" msg m

(* {1 Mapping} *)

let test_mmap_basic () =
  let s = mk () in
  let a = Space.mmap s ~len:10_000 ~prot:Prot.rw ~pkey:0 in
  check bool "page aligned" true (a land 0xFFF = 0);
  check (Alcotest.option int) "rounded to pages" (Some 12288) (Space.alloc_len s a);
  check bool "mapped" true (Space.is_mapped s a);
  Space.munmap s a;
  check bool "unmapped" false (Space.is_mapped s a)

let test_mmap_zeroes_memory () =
  let s = mk () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  Space.store64 s a 0xdeadbeef;
  Space.munmap s a;
  let b = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  check int "fresh mapping reads zero" 0 (Space.load64 s b)

let test_null_page_faults () =
  let s = mk () in
  expect_fault ~code:Space.MAPERR (fun () -> Space.load8 s 0);
  expect_fault ~code:Space.MAPERR (fun () -> Space.load64 s 8)

let test_guard_page_before_mapping () =
  let s = mk () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  (* The page immediately below every mapping is a guard: underflows fault. *)
  expect_fault ~code:Space.MAPERR ~access:Space.Write (fun () ->
      Space.store8 s (a - 1) 0xFF)

let test_oob_after_mapping_faults () =
  let s = mk () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  expect_fault ~access:Space.Write (fun () -> Space.store8 s (a + 4096) 1)

let test_exhaustion () =
  let s = Space.create ~size_mib:1 () in
  Alcotest.check_raises "address space exhausted"
    (Failure "Space.mmap: address space exhausted") (fun () ->
      ignore (Space.mmap s ~len:(2 * 1024 * 1024) ~prot:Prot.rw ~pkey:0))

let test_munmap_reuse () =
  let s = Space.create ~size_mib:1 () in
  (* Map and unmap repeatedly: the free list must coalesce or we run out. *)
  for _ = 1 to 100 do
    let a = Space.mmap s ~len:(256 * 1024) ~prot:Prot.rw ~pkey:0 in
    let b = Space.mmap s ~len:(256 * 1024) ~prot:Prot.rw ~pkey:0 in
    Space.munmap s a;
    Space.munmap s b
  done;
  check int "all recycled" 0 (Space.mapped_bytes s)

(* {1 Loads and stores} *)

let test_roundtrip_widths () =
  let s = mk () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  Space.store8 s a 0xAB;
  check int "u8" 0xAB (Space.load8 s a);
  Space.store16 s (a + 8) 0xBEEF;
  check int "u16" 0xBEEF (Space.load16 s (a + 8));
  Space.store32 s (a + 16) 0xCAFEBABE;
  check int "u32" 0xCAFEBABE (Space.load32 s (a + 16));
  Space.store64 s (a + 24) 0x123456789ABCDEF;
  check int "u64" 0x123456789ABCDEF (Space.load64 s (a + 24))

let test_bytes_roundtrip () =
  let s = mk () in
  let a = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
  let payload = Bytes.of_string "hello, simulated world" in
  Space.store_bytes s (a + 100) payload;
  check Alcotest.string "bytes" "hello, simulated world"
    (Space.read_string s (a + 100) (Bytes.length payload))

let test_blit_within_space () =
  let s = mk () in
  let a = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
  Space.store_string s a "abcdef";
  Space.blit s ~src:a ~dst:(a + 4096) ~len:6;
  check Alcotest.string "copied" "abcdef" (Space.read_string s (a + 4096) 6)

let test_page_crossing_access () =
  let s = mk () in
  let a = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
  let addr = a + 4092 in
  Space.store64 s addr 0x1122334455667788;
  check int "crossing load" 0x1122334455667788 (Space.load64 s addr)

let test_memchr () =
  let s = mk () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  Space.store_string s a "GET /index.html\r\n";
  check (Alcotest.option int) "found" (Some (a + 15))
    (Space.memchr s ~addr:a ~len:17 '\r');
  check (Alcotest.option int) "absent" None (Space.memchr s ~addr:a ~len:10 'Z')

let roundtrip_prop =
  QCheck.Test.make ~name:"store/load roundtrip at random offsets" ~count:200
    QCheck.(pair (int_range 0 4000) (string_of_size (QCheck.Gen.int_range 1 64)))
    (fun (off, payload) ->
      let s = mk () in
      let a = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
      Space.store_string s (a + off) payload;
      Space.read_string s (a + off) (String.length payload) = payload)

(* {1 Protection bits} *)

let test_readonly_page () =
  let s = mk () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.read ~pkey:0 in
  ignore (Space.load8 s a);
  expect_fault ~code:Space.ACCERR ~access:Space.Write (fun () ->
      Space.store8 s a 1)

let test_mprotect_changes_rights () =
  let s = mk () in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
  Space.store8 s a 7;
  Space.mprotect s ~addr:a ~len:4096 ~prot:Prot.read;
  expect_fault ~code:Space.ACCERR (fun () -> Space.store8 s a 8);
  Space.mprotect s ~addr:a ~len:4096 ~prot:Prot.rw;
  Space.store8 s a 9;
  check int "writable again" 9 (Space.load8 s a)

(* {1 Protection keys} *)

let test_pkey_alloc_limit () =
  let s = mk () in
  let keys = List.init 15 (fun _ -> Space.pkey_alloc s) in
  check bool "15 keys available" true (List.for_all Option.is_some keys);
  check (Alcotest.option int) "16th fails" None (Space.pkey_alloc s);
  Space.pkey_free s 3;
  check (Alcotest.option int) "freed key reusable" (Some 3) (Space.pkey_alloc s)

let test_pkey_enforcement () =
  in_thread (fun () ->
      let s = mk () in
      let key = Option.get (Space.pkey_alloc s) in
      let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:key in
      (* Default PKRU allows everything. *)
      Space.store8 s a 1;
      (* Deny the key entirely: both accesses fault with PKUERR. *)
      Space.wrpkru s (Pkru.deny Pkru.all_access ~key);
      expect_fault ~code:Space.PKUERR ~access:Space.Read (fun () ->
          Space.load8 s a);
      expect_fault ~code:Space.PKUERR ~access:Space.Write (fun () ->
          Space.store8 s a 2);
      (* Read-only (WD): loads pass, stores fault. *)
      Space.wrpkru s (Pkru.allow_read Pkru.all_access ~key);
      check int "read allowed" 1 (Space.load8 s a);
      expect_fault ~code:Space.PKUERR ~access:Space.Write (fun () ->
          Space.store8 s a 2);
      (* Full access restored. *)
      Space.wrpkru s (Pkru.allow Pkru.all_access ~key);
      Space.store8 s a 2;
      check int "write allowed" 2 (Space.load8 s a))

let test_pkru_is_per_thread () =
  let s = mk () in
  let sched = Sched.create () in
  let key = Option.get (Space.pkey_alloc s) in
  let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:key in
  let t1_faulted = ref false and t2_ok = ref false in
  let t1 =
    Sched.spawn sched ~name:"restricted" (fun () ->
        Space.wrpkru s (Pkru.deny Pkru.all_access ~key);
        Sched.yield ();
        match Space.store8 s a 1 with
        | () -> ()
        | exception Space.Fault _ -> t1_faulted := true)
  in
  let t2 =
    Sched.spawn sched ~name:"unrestricted" (fun () ->
        Sched.charge 5.0;
        Space.store8 s a 2;
        t2_ok := true)
  in
  Sched.run sched;
  ignore (t1, t2);
  check bool "restricted thread faulted" true !t1_faulted;
  check bool "unrestricted thread wrote" true !t2_ok

let test_pkey_mprotect_rekeys () =
  in_thread (fun () ->
      let s = mk () in
      let k1 = Option.get (Space.pkey_alloc s) in
      let k2 = Option.get (Space.pkey_alloc s) in
      let a = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:k1 in
      check int "initial key" k1 (Space.pkey_of_addr s a);
      Space.pkey_mprotect s ~addr:a ~len:4096 ~prot:Prot.rw ~pkey:k2;
      check int "rekeyed" k2 (Space.pkey_of_addr s a);
      Space.wrpkru s (Pkru.deny Pkru.all_access ~key:k2);
      expect_fault ~code:Space.PKUERR (fun () -> Space.load8 s a))

let test_fault_reports_tid () =
  let s = mk () in
  let sched = Sched.create () in
  let seen_tid = ref (-2) in
  let t1 =
    Sched.spawn sched ~name:"faulter" (fun () ->
        match Space.load8 s 0 with
        | _ -> ()
        | exception Space.Fault { tid; _ } -> seen_tid := tid)
  in
  Sched.run sched;
  check int "fault carries offending tid" t1 !seen_tid

(* {1 Rights changes take effect on the next access}

   Every access is checked against the current flags, key and PKRU, so
   no earlier successful access may carry its rights past a change. *)

let test_pkru_roundtrip () =
  let s = mk () in
  let key = Option.get (Space.pkey_alloc s) in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:key in
  in_thread (fun () ->
      ignore (Space.load8 s a);
      Space.wrpkru s (Pkru.deny Pkru.all_access ~key);
      expect_fault ~code:Space.PKUERR (fun () -> ignore (Space.load8 s a));
      Space.wrpkru s Pkru.all_access;
      ignore (Space.load8 s a))

let test_mprotect_revokes_write () =
  let s = mk () in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  in_thread (fun () ->
      Space.store8 s a 1;
      Space.mprotect s ~addr:a ~len:(2 * ps) ~prot:Prot.read;
      expect_fault ~code:Space.ACCERR ~access:Space.Write (fun () ->
          Space.store8 s a 1);
      ignore (Space.load8 s a))

let test_pkey_mprotect_revokes () =
  let s = mk () in
  let key = Option.get (Space.pkey_alloc s) in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  in_thread (fun () ->
      Space.wrpkru s (Pkru.deny Pkru.all_access ~key);
      ignore (Space.load8 s a);
      Space.pkey_mprotect s ~addr:a ~len:ps ~prot:Prot.rw ~pkey:key;
      expect_fault ~code:Space.PKUERR (fun () -> ignore (Space.load8 s a)))

let test_munmap_revokes () =
  let s = mk () in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  in_thread (fun () ->
      ignore (Space.load8 s a);
      Space.munmap s a;
      expect_fault ~code:Space.MAPERR (fun () -> ignore (Space.load8 s a));
      let b = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
      ignore (Space.load8 s b))

let test_rights_per_thread () =
  let s = mk () in
  let key = Option.get (Space.pkey_alloc s) in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:key in
  let sched = Sched.create () in
  let t1 =
    Sched.spawn sched ~name:"t1" (fun () -> ignore (Space.load8 s a))
  in
  let t2 =
    Sched.spawn sched ~name:"t2" (fun () ->
        Space.wrpkru s (Pkru.deny Pkru.all_access ~key);
        match Space.load8 s a with
        | _ -> Alcotest.fail "t2 must not inherit t1's rights"
        | exception Space.Fault { code = Space.PKUERR; _ } -> ())
  in
  Sched.run sched;
  List.iter
    (fun tid ->
      match Sched.outcome sched tid with
      | Some Sched.Completed -> ()
      | Some (Sched.Failed e) -> raise e
      | None -> Alcotest.fail "thread did not finish")
    [ t1; t2 ]

let test_restore_image_flags () =
  let s = mk () in
  let a = Space.mmap s ~len:ps ~prot:Prot.read ~pkey:0 in
  let im = Space.checkpoint s in
  in_thread (fun () ->
      Space.mprotect s ~addr:a ~len:ps ~prot:Prot.rw;
      Space.store8 s a 7;
      (* the image carries the read-only flags *)
      Space.restore_image s im;
      expect_fault ~code:Space.ACCERR ~access:Space.Write (fun () ->
          Space.store8 s a 7))

(* {1 Regression: mprotect/pkey_mprotect range validation} *)

let test_mprotect_range_validated () =
  let s = mk () in
  let size = Space.size s in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  expect_invalid "mprotect: out of range" (fun () ->
      Space.mprotect s ~addr:size ~len:ps ~prot:Prot.read);
  expect_invalid "mprotect: out of range" (fun () ->
      Space.mprotect s ~addr:(size - ps) ~len:(3 * ps) ~prot:Prot.read);
  expect_invalid "mprotect: out of range" (fun () ->
      Space.mprotect s ~addr:(-ps) ~len:ps ~prot:Prot.read);
  expect_invalid "mprotect: bad length" (fun () ->
      Space.mprotect s ~addr:a ~len:0 ~prot:Prot.read);
  expect_invalid "mprotect: bad length" (fun () ->
      Space.mprotect s ~addr:a ~len:(-ps) ~prot:Prot.read);
  expect_invalid "pkey_mprotect: out of range" (fun () ->
      Space.pkey_mprotect s ~addr:size ~len:ps ~prot:Prot.read ~pkey:0);
  expect_invalid "pkey_mprotect: bad length" (fun () ->
      Space.pkey_mprotect s ~addr:a ~len:0 ~prot:Prot.read ~pkey:0);
  check int "prot untouched by rejected calls" Prot.rw (Space.prot_of_addr s a)

let test_mprotect_no_partial_mutation () =
  let s = mk () in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  (* the range runs off the end of the mapping into the next guard page:
     the call must reject without having already downgraded the first
     page *)
  expect_invalid "mprotect: unmapped page" (fun () ->
      Space.mprotect s ~addr:a ~len:(2 * ps) ~prot:Prot.read);
  check int "no partial application" Prot.rw (Space.prot_of_addr s a)

(* {1 Regression: memchr stays inside the checked window} *)

let test_memchr_window_bounded () =
  let s = mk () in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  in_thread (fun () ->
      Space.store8 s (a + 100) (Char.code 'Z');
      check
        (Alcotest.option int)
        "found inside window"
        (Some (a + 100))
        (Space.memchr s ~addr:a ~len:128 'Z');
      check
        (Alcotest.option int)
        "byte past the window is invisible" None
        (Space.memchr s ~addr:a ~len:100 'Z');
      (* a window leaking into the guard page still faults *)
      expect_fault ~code:Space.MAPERR (fun () ->
          Space.memchr s ~addr:a ~len:(3 * ps) 'Z'))

let test_memchr_charges_examined_bytes () =
  let s = mk () in
  let c = Space.cost s in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  in_thread (fun () ->
      Space.store8 s (a + 2) (Char.code 'X');
      let t0 = Sched.now () in
      let r = Space.memchr s ~addr:a ~len:64 'X' in
      let dt = Sched.now () -. t0 in
      check (Alcotest.option int) "found" (Some (a + 2)) r;
      (* the match is the third byte examined: the cost must reflect
         that, with the same access base as the other bulk operations,
         not a flat per-window-byte charge *)
      check_float "charged for three examined bytes"
        (c.Cost.mem_access +. (3.0 *. c.Cost.mem_byte))
        dt;
      let t1 = Sched.now () in
      ignore (Space.memchr s ~addr:a ~len:64 '\255');
      check_float "miss charges the whole window"
        (c.Cost.mem_access +. (64.0 *. c.Cost.mem_byte))
        (Sched.now () -. t1))

(* {1 Regression: negative/zero lengths never reach Sched.charge} *)

let test_negative_len_never_charges () =
  let s = mk () in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  in_thread (fun () ->
      ignore (Space.load8 s a);
      let t0 = Sched.now () in
      let inv f =
        match f () with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ()
      in
      inv (fun () -> Space.load_bytes s a (-5));
      inv (fun () -> Space.read_string s a (-3));
      inv (fun () -> Space.memcmp s a (a + 64) (-1));
      inv (fun () -> Space.blit s ~src:a ~dst:(a + 64) ~len:(-2));
      inv (fun () -> Space.fill s ~addr:a ~len:(-4) 'x');
      inv (fun () -> Space.memchr s ~addr:a ~len:(-1) 'x');
      check_float "no virtual time charged" 0.0 (Sched.now () -. t0))

let test_zero_len_ops_are_free () =
  let s = mk () in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  in_thread (fun () ->
      ignore (Space.load8 s a);
      let t0 = Sched.now () in
      check int "load_bytes 0" 0 (Bytes.length (Space.load_bytes s a 0));
      check Alcotest.string "read_string 0" "" (Space.read_string s a 0);
      check int "memcmp 0" 0 (Space.memcmp s a (a + 1) 0);
      Space.blit s ~src:a ~dst:(a + 64) ~len:0;
      Space.fill s ~addr:a ~len:0 'x';
      Space.store_bytes s a Bytes.empty;
      Space.store_string s a "";
      check (Alcotest.option int) "memchr 0" None
        (Space.memchr s ~addr:a ~len:0 'x');
      check_float "all free" 0.0 (Sched.now () -. t0))

(* {1 Regression: the syscall oracle sees pkey_mprotect by name} *)

let test_hook_sees_pkey_mprotect () =
  let s = mk () in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  let ops = ref [] in
  Space.set_syscall_hook s (Some (fun op -> ops := op :: !ops));
  Space.pkey_mprotect s ~addr:a ~len:ps ~prot:Prot.rw ~pkey:0;
  Space.set_syscall_hook s None;
  check
    (Alcotest.list Alcotest.string)
    "gated under its own name" [ "pkey_mprotect" ] !ops

(* {1 Accounting} *)

let test_rss_counts_touched_pages () =
  let s = mk () in
  let a = Space.mmap s ~len:(16 * 4096) ~prot:Prot.rw ~pkey:0 in
  check int "nothing resident yet" 0 (Space.rss_bytes s);
  Space.store8 s a 1;
  Space.store8 s (a + (4 * 4096)) 1;
  check int "two pages resident" (2 * 4096) (Space.rss_bytes s);
  Space.munmap s a;
  check int "rss drops at unmap" 0 (Space.rss_bytes s);
  check int "high watermark kept" (2 * 4096) (Space.max_rss_bytes s)

let test_fault_count () =
  let s = mk () in
  (try ignore (Space.load8 s 0) with Space.Fault _ -> ());
  (try ignore (Space.load8 s 0) with Space.Fault _ -> ());
  check int "two faults" 2 (Space.fault_count s)

let () =
  Alcotest.run "vmem"
    [
      ( "mapping",
        [
          Alcotest.test_case "mmap basic" `Quick test_mmap_basic;
          Alcotest.test_case "mmap zeroes" `Quick test_mmap_zeroes_memory;
          Alcotest.test_case "null page" `Quick test_null_page_faults;
          Alcotest.test_case "guard page" `Quick test_guard_page_before_mapping;
          Alcotest.test_case "oob after mapping" `Quick test_oob_after_mapping_faults;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "munmap reuse" `Quick test_munmap_reuse;
        ] );
      ( "access",
        [
          Alcotest.test_case "width roundtrips" `Quick test_roundtrip_widths;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "blit" `Quick test_blit_within_space;
          Alcotest.test_case "page crossing" `Quick test_page_crossing_access;
          Alcotest.test_case "memchr" `Quick test_memchr;
          QCheck_alcotest.to_alcotest roundtrip_prop;
        ] );
      ( "prot",
        [
          Alcotest.test_case "readonly page" `Quick test_readonly_page;
          Alcotest.test_case "mprotect" `Quick test_mprotect_changes_rights;
        ] );
      ( "pkeys",
        [
          Alcotest.test_case "alloc limit (15)" `Quick test_pkey_alloc_limit;
          Alcotest.test_case "pkru enforcement" `Quick test_pkey_enforcement;
          Alcotest.test_case "pkru per thread" `Quick test_pkru_is_per_thread;
          Alcotest.test_case "pkey_mprotect" `Quick test_pkey_mprotect_rekeys;
          Alcotest.test_case "fault tid" `Quick test_fault_reports_tid;
        ] );
      ( "rights",
        [
          Alcotest.test_case "pkru round trip" `Quick test_pkru_roundtrip;
          Alcotest.test_case "mprotect revokes write" `Quick
            test_mprotect_revokes_write;
          Alcotest.test_case "pkey_mprotect revokes" `Quick
            test_pkey_mprotect_revokes;
          Alcotest.test_case "munmap revokes" `Quick test_munmap_revokes;
          Alcotest.test_case "per-thread rights" `Quick test_rights_per_thread;
          Alcotest.test_case "restore_image flags" `Quick
            test_restore_image_flags;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "mprotect range validated" `Quick
            test_mprotect_range_validated;
          Alcotest.test_case "mprotect no partial mutation" `Quick
            test_mprotect_no_partial_mutation;
          Alcotest.test_case "memchr window bounded" `Quick
            test_memchr_window_bounded;
          Alcotest.test_case "memchr examined-bytes cost" `Quick
            test_memchr_charges_examined_bytes;
          Alcotest.test_case "negative len never charges" `Quick
            test_negative_len_never_charges;
          Alcotest.test_case "zero len ops free" `Quick
            test_zero_len_ops_are_free;
          Alcotest.test_case "hook sees pkey_mprotect" `Quick
            test_hook_sees_pkey_mprotect;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "rss" `Quick test_rss_counts_touched_pages;
          Alcotest.test_case "fault count" `Quick test_fault_count;
        ] );
    ]
