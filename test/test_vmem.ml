(* Tests for the simulated address space: mapping lifecycle, guard pages,
   load/store round trips, protection bits, protection-key enforcement
   against per-thread PKRU values, rights changes taking effect on the
   next access, RSS accounting, and regression tests for the mprotect
   range validation, the bounded memchr, the negative/zero-length
   handling of the bulk entry points, the pkey_mprotect syscall-gate
   name and accesses near max_int; a differential run of the page-frame
   store, shared frames included, against a flat byte model; and the
   host cost of the access path, of a sparse space and of filled
   pages. *)

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
  check int "rounded to pages" 12288 (Space.mapped_len s a);
  check int "no allocation based inside it" 0 (Space.mapped_len s (a + 4096));
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
  Alcotest.check_raises "address space exhausted" Space.Exhausted (fun () ->
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
  check int "found" (a + 15) (Space.memchr s ~addr:a ~len:17 '\r');
  check int "absent" (-1) (Space.memchr s ~addr:a ~len:10 'Z')

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

let test_pkey_double_free () =
  let s = mk () in
  let key = Option.get (Space.pkey_alloc s) in
  Space.pkey_free s key;
  Alcotest.check_raises "second free is EINVAL"
    (Invalid_argument "pkey_free: key not allocated") (fun () ->
      Space.pkey_free s key)

let test_pkey_enforcement () =
  Sched.main (fun _ ->
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
  Sched.main (fun _ ->
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
  Sched.main (fun _ ->
      ignore (Space.load8 s a);
      Space.wrpkru s (Pkru.deny Pkru.all_access ~key);
      expect_fault ~code:Space.PKUERR (fun () -> ignore (Space.load8 s a));
      Space.wrpkru s Pkru.all_access;
      ignore (Space.load8 s a))

let test_mprotect_revokes_write () =
  let s = mk () in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  Sched.main (fun _ ->
      Space.store8 s a 1;
      Space.mprotect s ~addr:a ~len:(2 * ps) ~prot:Prot.read;
      expect_fault ~code:Space.ACCERR ~access:Space.Write (fun () ->
          Space.store8 s a 1);
      ignore (Space.load8 s a))

let test_pkey_mprotect_revokes () =
  let s = mk () in
  let key = Option.get (Space.pkey_alloc s) in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  Sched.main (fun _ ->
      Space.wrpkru s (Pkru.deny Pkru.all_access ~key);
      ignore (Space.load8 s a);
      Space.pkey_mprotect s ~addr:a ~len:ps ~prot:Prot.rw ~pkey:key;
      expect_fault ~code:Space.PKUERR (fun () -> ignore (Space.load8 s a)))

let test_munmap_revokes () =
  let s = mk () in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  Sched.main (fun _ ->
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
  ignore (Sched.spawn sched ~name:"t1" (fun () -> ignore (Space.load8 s a)));
  ignore
    (Sched.spawn sched ~name:"t2" (fun () ->
         Space.wrpkru s (Pkru.deny Pkru.all_access ~key);
         match Space.load8 s a with
         | _ -> Alcotest.fail "t2 must not inherit t1's rights"
         | exception Space.Fault { code = Space.PKUERR; _ } -> ()));
  Sched.run sched;
  List.iter
    (function _, _, Sched.Failed e -> raise e | _ -> ())
    (Sched.outcomes sched)

let test_restore_image_flags () =
  let s = mk () in
  let a = Space.mmap s ~len:ps ~prot:Prot.read ~pkey:0 in
  let im = Space.checkpoint s in
  Sched.main (fun _ ->
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
  Sched.main (fun _ ->
      Space.store8 s (a + 100) (Char.code 'Z');
      check int "found inside window" (a + 100)
        (Space.memchr s ~addr:a ~len:128 'Z');
      check int "byte past the window is invisible" (-1)
        (Space.memchr s ~addr:a ~len:100 'Z');
      (* a window leaking into the guard page still faults *)
      expect_fault ~code:Space.MAPERR (fun () ->
          Space.memchr s ~addr:a ~len:(3 * ps) 'Z'))

let test_memchr_charges_examined_bytes () =
  let s = mk () in
  let c = Space.cost s in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  Sched.main (fun _ ->
      Space.store8 s (a + 2) (Char.code 'X');
      let t0 = Sched.now () in
      let r = Space.memchr s ~addr:a ~len:64 'X' in
      let dt = Sched.now () -. t0 in
      check int "found" (a + 2) r;
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
  Sched.main (fun _ ->
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
  Sched.main (fun _ ->
      ignore (Space.load8 s a);
      let t0 = Sched.now () in
      check int "load_bytes 0" 0 (Bytes.length (Space.load_bytes s a 0));
      check Alcotest.string "read_string 0" "" (Space.read_string s a 0);
      check int "memcmp 0" 0 (Space.memcmp s a (a + 1) 0);
      Space.blit s ~src:a ~dst:(a + 64) ~len:0;
      Space.fill s ~addr:a ~len:0 'x';
      Space.store_bytes s a Bytes.empty;
      Space.store_string s a "";
      check int "memchr 0" (-1) (Space.memchr s ~addr:a ~len:0 'x');
      check_float "all free" 0.0 (Sched.now () -. t0))

(* {1 Regression: accesses near max_int} *)

(* An address within [len] bytes of [max_int] once made [addr + len]
   wrap negative, so the bound test passed and the page loop read page
   flags far outside the table: the host process died of SIGSEGV. Every
   such access is the simulator's MAPERR. *)
let test_near_max_int () =
  let s = mk () in
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  Space.set_sanitizer s true;
  let inv f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  Sched.main (fun _ ->
      List.iter
        (fun addr ->
          let maperr f = expect_fault ~code:Space.MAPERR f in
          maperr (fun () -> Space.load8 s addr);
          maperr (fun () -> Space.load16 s addr);
          maperr (fun () -> Space.load32 s addr);
          maperr (fun () -> Space.load64 s addr);
          maperr (fun () -> Space.store8 s addr 1);
          maperr (fun () -> Space.store16 s addr 1);
          maperr (fun () -> Space.store32 s addr 1);
          maperr (fun () -> Space.store64 s addr 1);
          maperr (fun () -> Space.read_string s addr 16);
          inv (fun () -> Space.unsafe_load_bytes s addr 16);
          inv (fun () -> Space.poison s ~addr ~len:16))
        (List.init 8 (fun i -> max_int - 7 + i));
      expect_fault ~code:Space.MAPERR ~access:Space.Write (fun () ->
          Space.fill s ~addr:a ~len:max_int 'x');
      expect_fault ~code:Space.MAPERR ~access:Space.Read (fun () ->
          Space.blit s ~src:a ~dst:a ~len:max_int);
      inv (fun () -> Space.unsafe_load_bytes s a max_int);
      inv (fun () -> Space.poison s ~addr:a ~len:max_int);
      (* A bulk range that cannot lie in the space faults before its
         bulk charge: the clock moves by the fault's signal delivery
         alone. [2 * len] wraps negative from 2^61, and such a charge
         once moved the clock back by 5.76e17 cycles. *)
      let delivery = (Space.cost s).Simkern.Cost.signal_delivery in
      let no_charge ~access what f =
        let t0 = Sched.now () in
        expect_fault ~code:Space.MAPERR ~access f;
        check_float (what ^ " charges only the fault") delivery
          (Sched.now () -. t0)
      in
      let huge = 1 lsl 61 and near = max_int - 3 in
      (* the mapped page is resident first: a check of it charges
         nothing more *)
      ignore (Space.load8 s a);
      List.iter
        (fun len ->
          no_charge ~access:Space.Write "fill" (fun () ->
              Space.fill s ~addr:a ~len 'x');
          no_charge ~access:Space.Read "blit from the page" (fun () ->
              Space.blit s ~src:a ~dst:a ~len);
          no_charge ~access:Space.Read "memcmp" (fun () ->
              Space.memcmp s a a len);
          no_charge ~access:Space.Read "load_bytes" (fun () ->
              Space.load_bytes s a len);
          no_charge ~access:Space.Read "read_string" (fun () ->
              Space.read_string s a len))
        [ huge; max_int ];
      no_charge ~access:Space.Write "blit to max_int" (fun () ->
          Space.blit s ~src:a ~dst:near ~len:8);
      no_charge ~access:Space.Read "memcmp with max_int" (fun () ->
          Space.memcmp s a near 8);
      no_charge ~access:Space.Write "store_string" (fun () ->
          Space.store_string s near "abcdefgh");
      no_charge ~access:Space.Write "store_bytes" (fun () ->
          Space.store_bytes s near (Bytes.make 8 'b'));
      no_charge ~access:Space.Write "store_from" (fun () ->
          Space.store_from s near (Bytes.make 8 'b') 0 8);
      no_charge ~access:Space.Read "read_into" (fun () ->
          Space.read_into s near (Bytes.create 8) 0 8);
      no_charge ~access:Space.Write "fill at max_int" (fun () ->
          Space.fill s ~addr:near ~len:8 'x'));
  check int "the mapped page is intact" 0 (Space.load8 s a)

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

(* {1 Host allocation budget}

   The checked access path runs on every simulated load and store, so it
   must not allocate on the host: no boxed float per charge, no closure
   per check. Measured with [Alloc_probe] inside a simulated thread (so
   time is really charged). *)

let access_loop s a n () =
  for i = 0 to n - 1 do
    let addr = a + (8 * (i land 511)) in
    Space.store64 s addr i;
    ignore (Space.load64 s addr)
  done

let check_access_alloc_free ~sanitize () =
  let s = mk () in
  if sanitize then Space.set_sanitizer s true;
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  Sched.main (fun _ ->
      access_loop s a 64 ();
      let t0 = Sched.now () in
      let words =
        Alloc_probe.words_per_call ~warmup:0 ~n:1 (access_loop s a 5_000)
      in
      check_float "10,000 accesses charged" 10_000.0 (Sched.now () -. t0);
      check_float "10,000 load64/store64 allocate nothing" 0.0 words)

let straddle_loop s a n () =
  for i = 0 to n - 1 do
    (* page offsets 4089..4095: every access spans two pages *)
    let addr = a + ps - 7 + (i mod 7) in
    Space.store64 s addr i;
    ignore (Space.load64 s addr)
  done

let test_straddle_alloc_free () =
  let s = mk () in
  let a = Space.mmap s ~len:(2 * ps) ~prot:Prot.rw ~pkey:0 in
  Sched.main (fun _ ->
      straddle_loop s a 64 ();
      let words =
        Alloc_probe.words_per_call ~warmup:0 ~n:1 (straddle_loop s a 5_000)
      in
      check_float "straddling load64/store64 allocate nothing" 0.0 words)

let test_fresh_frame_alloc_free () =
  let s = mk () in
  let n = 64 in
  let a = Space.mmap s ~len:(n * ps) ~prot:Prot.rw ~pkey:0 in
  let first_writes () =
    for i = 0 to n - 1 do
      Space.store64 s (a + (i * ps)) i
    done
  in
  Sched.main (fun _ ->
      let b0 = Gc.allocated_bytes () in
      let words = Alloc_probe.words_per_call ~warmup:0 ~n:1 first_writes in
      check bool "each first write made a frame" true
        (Gc.allocated_bytes () -. b0 >= float_of_int (n * ps));
      check_float "a store that makes a frame allocates no minor words" 0.0
        words)

(* A 256 MiB space with 64 MiB mapped and three pages written costs its
   page tables and three frames, not its address range. *)
let test_sparse_space () =
  let b0 = Gc.allocated_bytes () in
  let s = Space.create ~size_mib:256 () in
  let mib = 1024 * 1024 in
  let a = Space.mmap s ~len:(64 * mib) ~prot:Prot.rw ~pkey:0 in
  Space.store64 s a 1;
  Space.store_string s (a + (32 * mib)) "middle";
  Space.store8 s (a + (64 * mib) - 1) 3;
  let used = Gc.allocated_bytes () -. b0 in
  check int "three pages resident" (3 * ps) (Space.rss_bytes s);
  check bool
    (Printf.sprintf "%.0f host bytes allocated, under 4 MiB" used)
    true
    (used < float_of_int (4 * mib))

(* Filling whole pages costs no frame: each points at the one shared,
   read-only frame of its byte. That frame is made by the first
   whole-page fill with the byte, here of a page outside the measure. *)
let test_fill_shares_frames () =
  let mib = 1024 * 1024 in
  let s = Space.create ~size_mib:16 () in
  let w = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  Space.fill s ~addr:w ~len:ps '\x90';
  let b0 = Gc.allocated_bytes () in
  let a = Space.mmap s ~len:(4 * mib) ~prot:Prot.rw ~pkey:0 in
  Space.fill s ~addr:a ~len:(4 * mib) '\x90';
  let used = Gc.allocated_bytes () -. b0 in
  check bool
    (Printf.sprintf "%.0f host bytes allocated, under one frame" used)
    true
    (used < float_of_int ps);
  check int "every page resident" ((4 * mib) + ps) (Space.rss_bytes s);
  check bool "the fill reads back" true
    (Space.read_string s a (4 * mib) = String.make (4 * mib) '\x90')

let test_first_store_makes_one_frame () =
  let s = mk () in
  let a = Space.mmap s ~len:(4 * ps) ~prot:Prot.rw ~pkey:0 in
  Space.fill s ~addr:a ~len:(4 * ps) 'f';
  let b0 = Gc.allocated_bytes () in
  Space.store64 s (a + ps + 8) 0x4142;
  let made = Gc.allocated_bytes () -. b0 in
  check bool
    (Printf.sprintf "%.0f host bytes allocated: one frame" made)
    true
    (made >= float_of_int ps && made < float_of_int (2 * ps));
  let b1 = Gc.allocated_bytes () in
  Space.store64 s (a + ps + 16) 0x4344;
  check bool "a second store to the page makes none" true
    (Gc.allocated_bytes () -. b1 < float_of_int ps);
  let page = String.make ps 'f' in
  let written = Bytes.of_string page in
  Bytes.set_int64_le written 8 0x4142L;
  Bytes.set_int64_le written 16 0x4344L;
  check Alcotest.string "the written page copied its fill"
    (Bytes.to_string written)
    (Space.read_string s (a + ps) ps);
  List.iter
    (fun i ->
      check Alcotest.string "a page still on the shared frame" page
        (Space.read_string s (a + (i * ps)) ps))
    [ 0; 2; 3 ]

(* A mapping made over a written page releases the page's frame to the
   space's spare stack, and the next first write takes it back: a page
   remapped and written again costs the host no new frame, and mapping
   and unmapping allocate nothing either. 514 major words a cycle while
   [mmap] left the old frame to the collector. The rewritten page reads
   as a fresh page with one store. *)
let test_remap_reuses_frame () =
  let s = mk () in
  let cycle () =
    let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
    Space.store64 s (a + 64) 0x4142;
    Space.munmap s a
  in
  let major = Alloc_probe.major_words_per_call ~n:100 cycle in
  check_float "a remap and a write allocate no major-heap words" 0.0 major;
  let minor = Alloc_probe.words_per_call ~n:100 cycle in
  check_float "a remap and a write allocate no minor words" 0.0 minor;
  let a = Space.mmap s ~len:ps ~prot:Prot.rw ~pkey:0 in
  Space.store8 s (a + 7) 1;
  let fresh = Bytes.make ps '\000' in
  Bytes.set fresh 7 '\001';
  check Alcotest.string "the reused frame was cleared" (Bytes.to_string fresh)
    (Space.read_string s a ps)

(* {1 Differential: page frames against a flat byte model}

   The store was once one flat [Bytes] of the whole address space. The
   model below is that representation, with a mapped bit per page. A
   seeded random program runs against both and compares every read,
   every fault (address and access kind), the bytes a kernel-mode reader
   sees in unmapped pages, and, every 64 operations, the whole address
   space. Addresses favour the last seven bytes of a page and bulk
   lengths favour two- and three-page spans. Fills of several byte
   values, whole pages among them, leave pages on shared frames, which
   single-event upsets, stores, copies, checkpoints, restores and
   remaps then meet. Two steps pass frames through the spare stack: a
   mapping written page by page, unmapped, mapped again and written
   again, and a private page filled whole before a first write to
   another page. Mappings are read-write with key 0, so the faults are
   the MAPERRs of holes and guard pages.

   Each seed runs twice in a simulated thread: once reading with
   [read_string], once with [read_into] into a buffer at an offset, with
   the same random draws. [read_into] must read the same bytes, leave
   the rest of its buffer alone (all of it when the range faults), and
   advance the clock exactly as [read_string] does: the two runs' clocks
   must agree bit for bit after every operation. *)

type 'a outcome = Done of 'a | Segv of int * Space.access

let outcome f =
  match f () with
  | v -> Done v
  | exception Space.Fault { addr; access; code = Space.MAPERR; _ } ->
      Segv (addr, access)

type flat = {
  mem : Bytes.t;
  mapped : bool array;
  mutable allocs : (int * int) list;  (* base, pages *)
}

(* The MAPERR [Space.check] raises for the range, if any. *)
let flat_fault m addr len access =
  if addr < 0 || addr + len > Bytes.length m.mem then Some (Segv (addr, access))
  else
    let p1 = addr / ps and p2 = (addr + len - 1) / ps in
    let rec first p =
      if p > p2 then None
      else if not m.mapped.(p) then
        Some (Segv ((if p = p1 then addr else p * ps), access))
      else first (p + 1)
    in
    first p1

let flat_read m addr len access f =
  match flat_fault m addr len access with Some o -> o | None -> Done (f ())

let flat_load m addr n () =
  match n with
  | 1 -> Char.code (Bytes.get m.mem addr)
  | 2 -> Bytes.get_uint16_le m.mem addr
  | 4 -> Int32.to_int (Bytes.get_int32_le m.mem addr) land 0xFFFFFFFF
  | _ -> Int64.to_int (Bytes.get_int64_le m.mem addr)

let flat_store m addr n v () =
  match n with
  | 1 -> Bytes.set m.mem addr (Char.unsafe_chr (v land 0xFF))
  | 2 -> Bytes.set_uint16_le m.mem addr (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le m.mem addr (Int32.of_int v)
  | _ -> Bytes.set_int64_le m.mem addr (Int64.of_int v)

let space_load s addr n () =
  match n with
  | 1 -> Space.load8 s addr
  | 2 -> Space.load16 s addr
  | 4 -> Space.load32 s addr
  | _ -> Space.load64 s addr

let space_store s addr n v () =
  match n with
  | 1 -> Space.store8 s addr v
  | 2 -> Space.store16 s addr v
  | 4 -> Space.store32 s addr v
  | _ -> Space.store64 s addr v

let alphabet = "ab\r\n\000xyz"
let fill_bytes = "\000a\x90\xfd\xff"

(* Every shared frame still holds its byte: pages filled whole with each
   byte value point at its frame, so a frame written in place reads
   back wrong here. *)
let check_shared_frames seed =
  let s = Space.create ~size_mib:4 () in
  let a = Space.mmap s ~len:(256 * ps) ~prot:Prot.rw ~pkey:0 in
  for c = 0 to 255 do
    Space.fill s ~addr:(a + (c * ps)) ~len:ps (Char.chr c)
  done;
  for c = 0 to 255 do
    if Space.unsafe_load_bytes s (a + (c * ps)) ps <> Bytes.make ps (Char.chr c)
    then Alcotest.failf "seed %d: the shared frame of byte %d was written" seed c
  done

let run_differential ~read_into seed =
  let clocks = Array.make 3_001 0.0 in
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let s = Space.create ~size_mib:1 () in
  let size = Space.size s in
  let m =
    {
      mem = Bytes.make size '\000';
      mapped = Array.make (size / ps) false;
      allocs = [];
    }
  in
  let step = ref 0 and what = ref "" in
  let same name a b =
    if a <> b then
      Alcotest.failf "seed %d, op %d (%s): %s differs" seed !step !what name
  in
  let page () =
    match m.allocs with
    | [] -> int (size / ps)
    | l when int 8 > 0 ->
        (* inside a mapping, or the guard page just past it *)
        let base, n = List.nth l (int (List.length l)) in
        (base / ps) + int (n + 1)
    | _ -> int (size / ps)
  in
  let addr () =
    let off = if int 2 = 0 then ps - 7 + int 7 else int ps in
    (page () * ps) + off
  in
  let len () =
    match int 4 with
    | 0 -> 1 + int 16
    | 1 -> ps + int ps
    | 2 -> (2 * ps) + int ps
    | _ -> 1 + int ps
  in
  let value () =
    Random.State.bits rng lxor (Random.State.bits rng lsl 30)
    lxor (Random.State.bits rng lsl 60)
  in
  let char () = alphabet.[int (String.length alphabet)] in
  let fill_byte () = fill_bytes.[int (String.length fill_bytes)] in
  let str n = String.init n (fun _ -> char ()) in
  let write a n access ~space ~flat =
    match flat_fault m a n access with
    | Some o -> same "fault" o (outcome space)
    | None ->
        same "fault" (Done ()) (outcome space);
        flat ()
  in
  let image = ref None and restores = ref 0 and max_restores = ref 0 in
  let whole () =
    same "whole space" (Bytes.to_string m.mem)
      (Bytes.to_string (Space.unsafe_load_bytes s 0 size));
    Array.iteri
      (fun p mp -> same "mapped bit" mp (Space.is_mapped s (p * ps)))
      m.mapped
  in
  let store_byte a =
    let v = Char.code (char ()) in
    Space.store8 s a v;
    Bytes.set m.mem a (Char.chr v)
  in
  let map n =
    let len = (n * ps) - int 100 in
    let base = Space.mmap s ~len ~prot:Prot.rw ~pkey:0 in
    for p = base / ps to (base / ps) + n - 1 do
      m.mapped.(p) <- true
    done;
    Bytes.fill m.mem base (n * ps) '\000';
    m.allocs <- (base, n) :: m.allocs;
    base
  in
  let unmap ((base, n) as al) =
    Space.munmap s base;
    for p = base / ps to (base / ps) + n - 1 do
      m.mapped.(p) <- false
    done;
    m.allocs <- List.filter (fun x -> x <> al) m.allocs
  in
  for i = 1 to 3_000 do
    step := i;
    match int 20 with
    | 0 | 1 ->
        let a = addr () and n = [| 1; 2; 4; 8 |].(int 4) in
        what := Printf.sprintf "load%d 0x%x" (8 * n) a;
        same "load"
          (flat_read m a n Space.Read (flat_load m a n))
          (outcome (space_load s a n))
    | 2 | 3 ->
        let a = addr () and n = [| 1; 2; 4; 8 |].(int 4) and v = value () in
        what := Printf.sprintf "store%d 0x%x" (8 * n) a;
        write a n Space.Write ~space:(space_store s a n v)
          ~flat:(flat_store m a n v)
    | 4 ->
        let a = addr () and x = str (len ()) in
        what := Printf.sprintf "store_string 0x%x+%d" a (String.length x);
        let space () =
          if int 2 = 0 then Space.store_string s a x
          else Space.store_bytes s a (Bytes.of_string x)
        in
        write a (String.length x) Space.Write ~space ~flat:(fun () ->
            Bytes.blit_string x 0 m.mem a (String.length x))
    | 5 ->
        let a = addr () and n = len () in
        what := Printf.sprintf "read_string 0x%x+%d" a n;
        let flat () = Bytes.sub_string m.mem a n in
        if int 2 = 0 then
          if read_into then begin
            let off = a land 15 in
            let b = Bytes.make (n + 32) '#' in
            let got =
              outcome (fun () ->
                  Space.read_into s a b off n;
                  Bytes.sub_string b off n)
            in
            same "read_into" (flat_read m a n Space.Read flat) got;
            let copied = match got with Done _ -> true | Segv _ -> false in
            Bytes.iteri
              (fun i c ->
                if not (copied && i >= off && i < off + n) then
                  same "byte outside the copy" '#' c)
              b
          end
          else
            same "read" (flat_read m a n Space.Read flat)
              (outcome (fun () -> Space.read_string s a n))
        else
          same "read" (flat_read m a n Space.Read flat)
            (outcome (fun () -> Bytes.to_string (Space.load_bytes s a n)))
    | 6 ->
        let a = addr () and n = len () in
        let c = if int 3 = 0 then fill_byte () else char () in
        what := Printf.sprintf "fill 0x%x+%d %C" a n c;
        write a n Space.Write
          ~space:(fun () -> Space.fill s ~addr:a ~len:n c)
          ~flat:(fun () -> Bytes.fill m.mem a n c)
    | 15 | 16 ->
        (* whole pages, half the time with a partial page at either end *)
        let ragged () = if int 2 = 0 then 0 else 1 + int 100 in
        let head = ragged () in
        let a = (page () * ps) - head in
        let n = head + ((1 + int 3) * ps) + ragged () and c = fill_byte () in
        what := Printf.sprintf "page fill 0x%x+%d %C" a n c;
        write a n Space.Write
          ~space:(fun () -> Space.fill s ~addr:a ~len:n c)
          ~flat:(fun () -> Bytes.fill m.mem a n c)
    | 17 ->
        let a = addr () and bit = int 8 in
        what := Printf.sprintf "flip_bit 0x%x %d" a bit;
        let landed = a < size && m.mapped.(a / ps) in
        same "flip landed" landed (Space.flip_bit s ~addr:a ~bit);
        if landed then
          Bytes.set m.mem a
            (Char.chr (Char.code (Bytes.get m.mem a) lxor (1 lsl bit)))
    | 7 ->
        let a = addr () and n = len () in
        (* half the time, the byte that starts the next page *)
        let next = ((a / ps) + 1) * ps in
        let c =
          if int 2 = 0 && next < size then Bytes.get m.mem next else char ()
        in
        what := Printf.sprintf "memchr 0x%x+%d %C" a n c;
        let flat () =
          let rec scan j =
            if j >= a + n then -1
            else if Bytes.get m.mem j = c then j
            else scan (j + 1)
          in
          scan a
        in
        same "memchr" (flat_read m a n Space.Read flat)
          (outcome (fun () -> Space.memchr s ~addr:a ~len:n c))
    | 8 ->
        let a = addr () and b = addr () and n = len () in
        what := Printf.sprintf "memcmp 0x%x 0x%x %d" a b n;
        let expect =
          match flat_fault m a n Space.Read with
          | Some o -> o
          | None ->
              flat_read m b n Space.Read (fun () ->
                  compare (Bytes.sub m.mem a n) (Bytes.sub m.mem b n))
        in
        same "memcmp" expect (outcome (fun () -> Space.memcmp s a b n))
    | 9 | 10 ->
        (* blit, overlapping in either direction about half the time *)
        let src = addr () and n = len () in
        let dst = if int 2 = 0 then src - n + int (2 * n + 1) else addr () in
        what := Printf.sprintf "blit 0x%x -> 0x%x %d" src dst n;
        let expect =
          match flat_fault m src n Space.Read with
          | Some o -> o
          | None -> (
              match flat_fault m dst n Space.Write with
              | Some o -> o
              | None -> Done ())
        in
        let got = outcome (fun () -> Space.blit s ~src ~dst ~len:n) in
        same "blit" expect got;
        if got = Done () then Bytes.blit m.mem src m.mem dst n
    | 11 ->
        let live = List.length m.allocs in
        if live >= 12 || (live > 0 && int 2 = 0) then begin
          let al = List.nth m.allocs (int live) in
          what := Printf.sprintf "munmap 0x%x" (fst al);
          unmap al
        end
        else begin
          what := "mmap";
          ignore (map (1 + int 4))
        end
    | 18 -> (
        (* write a mapping's pages, unmap it and map as many pages
           again: the old frames go on the spare stack at the mmap, and
           the new mapping's first writes take them back *)
        match m.allocs with
        | [] -> ()
        | l ->
            let ((base, n) as al) = List.nth l (int (List.length l)) in
            what := Printf.sprintf "remap written 0x%x" base;
            for p = 0 to n - 1 do
              store_byte (base + (p * ps) + int ps)
            done;
            unmap al;
            let base = map n in
            for p = 0 to n - 1 do
              if int 2 = 0 then store_byte (base + (p * ps) + int ps)
            done)
    | 19 -> (
        (* give a page a frame of its own, fill it whole, then make a
           first write elsewhere: it takes the released frame *)
        match m.allocs with
        | [] -> ()
        | l ->
            let base, n = List.nth l (int (List.length l)) in
            let a = base + (int n * ps) and c = fill_byte () in
            what := Printf.sprintf "fill written page 0x%x %C" a c;
            store_byte (a + int ps);
            Space.fill s ~addr:a ~len:ps c;
            Bytes.fill m.mem a ps c;
            store_byte (base + (int n * ps) + int ps))
    | 12 ->
        (* kernel-mode read anywhere: unmapped pages show their residue *)
        let a = int (size - (3 * ps)) and n = len () in
        what := Printf.sprintf "unsafe_load_bytes 0x%x+%d" a n;
        same "kernel read" (Bytes.sub_string m.mem a n)
          (Bytes.to_string (Space.unsafe_load_bytes s a n))
    | 13 ->
        what := "checkpoint";
        let im = Space.checkpoint s in
        image := Some (im, Bytes.copy m.mem, Array.copy m.mapped, m.allocs);
        restores := 0
    | _ -> (
        match !image with
        | None -> ()
        | Some (im, mem, mapped, allocs) ->
            what := "restore_image";
            Space.restore_image s im;
            Array.iteri
              (fun p mp -> if mp then Bytes.blit mem (p * ps) m.mem (p * ps) ps)
              mapped;
            Array.blit mapped 0 m.mapped 0 (Array.length mapped);
            m.allocs <- allocs;
            incr restores;
            max_restores := max !max_restores !restores;
            whole ())
    ;
    if i mod 64 = 0 then whole ();
    clocks.(i) <- Sched.now ()
  done;
  whole ();
  check bool "an image was restored twice" true (!max_restores >= 2);
  clocks

let test_flat_differential () =
  List.iter
    (fun seed ->
      let run read_into =
        let clocks = ref [||] in
        Sched.main (fun _ -> clocks := run_differential ~read_into seed);
        !clocks
      in
      let a = run false and b = run true in
      check_shared_frames seed;
      Array.iteri
        (fun i t ->
          if not (Float.equal t b.(i)) then
            Alcotest.failf "seed %d, op %d: clock %h with read_string, %h with read_into"
              seed i t b.(i))
        a)
    [ 1; 2; 3; 4; 5 ]

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
          Alcotest.test_case "flat-model differential, 5 seeds" `Quick
            test_flat_differential;
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
          Alcotest.test_case "double free raises" `Quick test_pkey_double_free;
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
          Alcotest.test_case "accesses near max_int fault" `Quick
            test_near_max_int;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "rss" `Quick test_rss_counts_touched_pages;
          Alcotest.test_case "fault count" `Quick test_fault_count;
        ] );
      ( "host-alloc",
        [
          Alcotest.test_case "load64/store64 allocate nothing" `Quick
            (check_access_alloc_free ~sanitize:false);
          Alcotest.test_case "sanitized load64/store64 allocate nothing" `Quick
            (check_access_alloc_free ~sanitize:true);
          Alcotest.test_case "straddling load64/store64 allocate nothing"
            `Quick test_straddle_alloc_free;
          Alcotest.test_case "first write to a page allocates no minor words"
            `Quick test_fresh_frame_alloc_free;
          Alcotest.test_case "sparse space costs its written pages" `Quick
            test_sparse_space;
          Alcotest.test_case "filling 4 MiB shares one frame" `Quick
            test_fill_shares_frames;
          Alcotest.test_case "first store to a filled page makes one frame"
            `Quick test_first_store_makes_one_frame;
          Alcotest.test_case "a remapped page reuses its frame" `Quick
            test_remap_reuses_frame;
        ] );
    ]
