(* Tests for the crypto substrate: AES-256 and GCM against FIPS-197 and
   NIST SP 800-38D vectors, streaming equivalence, the vmem-resident EVP
   layer, the X.509/punycode CVE-2022-3786 analogue, and the SDRaD
   OpenSSL-isolation wrappers (all three data-passing design choices). *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types
module Prot = Vmem.Prot

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let to_hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (String.length s) (String.get s)))

(* {1 AES} *)

let test_aes_fips197 () =
  let k = Crypto.Aes.expand (hex ("000102030405060708090a0b0c0d0e0f" ^ "101112131415161718191a1b1c1d1e1f")) in
  check string "FIPS-197 C.3" "8ea2b7ca516745bfeafc49904b496089"
    (to_hex (Crypto.Aes.encrypt_block_str k (hex "00112233445566778899aabbccddeeff")))

let test_aes_rejects_bad_key () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand: need a 32-byte key")
    (fun () -> ignore (Crypto.Aes.expand "short"))

(* {1 GCM NIST vectors} *)

let k_zero = String.make 32 '\000'
let iv_zero = String.make 12 '\000'

let test_gcm_tc13 () =
  let c, t = Crypto.Gcm.one_shot_encrypt ~key:k_zero ~iv:iv_zero "" in
  check string "ciphertext" "" c;
  check string "tag" "530f8afbc74536b9a963b4f1c4cb738b" (to_hex t)

let test_gcm_tc14 () =
  let c, t = Crypto.Gcm.one_shot_encrypt ~key:k_zero ~iv:iv_zero (String.make 16 '\000') in
  check string "ciphertext" "cea7403d4d606b6e074ec5d3baf39d18" (to_hex c);
  check string "tag" "d0d1c8a799996bf0265b98b5d48ab919" (to_hex t)

let k15 = hex "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"
let iv15 = hex "cafebabefacedbaddecaf888"

let p15 =
  hex
    ("d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
   ^ "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255")

let c15 =
  "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
  ^ "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"

let test_gcm_tc15 () =
  let c, t = Crypto.Gcm.one_shot_encrypt ~key:k15 ~iv:iv15 p15 in
  check string "ciphertext" c15 (to_hex c);
  check string "tag" "b094dac5d93471bdec1a502270e3cc6c" (to_hex t)

let test_gcm_tc16_with_aad () =
  let aad = hex "feedfacedeadbeeffeedfacedeadbeefabaddad2" in
  let p = String.sub p15 0 60 in
  let c, t = Crypto.Gcm.one_shot_encrypt ~key:k15 ~iv:iv15 ~aad p in
  check string "ciphertext" (String.sub c15 0 120) (to_hex c);
  check string "tag" "76fc6ece0f4e1768cddf8853bb2d551b" (to_hex t)

let test_gcm_decrypt_roundtrip () =
  let c, t = Crypto.Gcm.one_shot_encrypt ~key:k15 ~iv:iv15 "attack at dawn!" in
  (match Crypto.Gcm.one_shot_decrypt ~key:k15 ~iv:iv15 ~tag:t c with
  | Some p -> check string "plaintext" "attack at dawn!" p
  | None -> Alcotest.fail "tag failed");
  (* A flipped ciphertext bit must fail authentication. *)
  let tampered = Bytes.of_string c in
  Bytes.set tampered 3 (Char.chr (Char.code (Bytes.get tampered 3) lxor 1));
  check bool "tamper detected" true
    (Crypto.Gcm.one_shot_decrypt ~key:k15 ~iv:iv15 ~tag:t (Bytes.to_string tampered) = None)

let streaming_equivalence =
  QCheck.Test.make ~name:"chunked streaming equals one-shot" ~count:100
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 300)) (int_range 1 37))
    (fun (p, chunk) ->
      let one_c, one_t = Crypto.Gcm.one_shot_encrypt ~key:k15 ~iv:iv15 p in
      let ctx = Crypto.Gcm.init ~key:k15 ~iv:iv15 in
      let buf = Buffer.create 64 in
      let n = String.length p in
      let rec go off =
        if off < n then begin
          let len = min chunk (n - off) in
          Buffer.add_string buf (Crypto.Gcm.encrypt ctx (String.sub p off len));
          go (off + len)
        end
      in
      go 0;
      Buffer.contents buf = one_c && Crypto.Gcm.tag ctx = one_t)

let serialize_roundtrip =
  QCheck.Test.make ~name:"ctx serialize/deserialize mid-stream" ~count:50
    QCheck.(string_of_size (QCheck.Gen.int_range 1 200))
    (fun p ->
      let n = String.length p in
      let cut = n / 2 in
      let one_c, one_t = Crypto.Gcm.one_shot_encrypt ~key:k15 ~iv:iv15 p in
      let ctx = Crypto.Gcm.init ~key:k15 ~iv:iv15 in
      let c1 = Crypto.Gcm.encrypt ctx (String.sub p 0 cut) in
      let ctx' = Crypto.Gcm.deserialize (Crypto.Gcm.serialize ctx) in
      let c2 = Crypto.Gcm.encrypt ctx' (String.sub p cut (n - cut)) in
      c1 ^ c2 = one_c && Crypto.Gcm.tag ctx' = one_t)

(* {1 EVP over simulated memory} *)

let test_evp_matches_gcm () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:8 () in
      let base = Space.mmap s ~len:(64 * 1024) ~prot:Prot.rw ~pkey:0 in
      let ctx = base in
      let inp = base + 4096 and out = base + 8192 and tag = base + 12288 in
      Crypto.Evp.encrypt_init s ~ctx ~key:k15 ~iv:iv15;
      Space.store_string s inp p15;
      let n1 = String.length p15 / 2 in
      let o1 = Crypto.Evp.encrypt_update s ~ctx ~out ~in_:inp ~inl:n1 in
      let o2 =
        Crypto.Evp.encrypt_update s ~ctx ~out:(out + o1) ~in_:(inp + n1)
          ~inl:(String.length p15 - n1)
      in
      Crypto.Evp.encrypt_final s ~ctx ~tag_out:tag;
      check string "ciphertext" c15 (to_hex (Space.read_string s out (o1 + o2)));
      check string "tag" "b094dac5d93471bdec1a502270e3cc6c"
        (to_hex (Space.read_string s tag 16)))

let test_evp_decrypt_verifies () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:8 () in
      let base = Space.mmap s ~len:(64 * 1024) ~prot:Prot.rw ~pkey:0 in
      let ctx = base and inp = base + 4096 and out = base + 8192 and tag = base + 12288 in
      Crypto.Evp.encrypt_init s ~ctx ~key:k15 ~iv:iv15;
      Space.store_string s inp "sixteen byte msg";
      let n = Crypto.Evp.encrypt_update s ~ctx ~out ~in_:inp ~inl:16 in
      Crypto.Evp.encrypt_final s ~ctx ~tag_out:tag;
      (* Decrypt in place. *)
      let dctx = base + 20480 and plain = base + 24576 in
      Crypto.Evp.decrypt_init s ~ctx:dctx ~key:k15 ~iv:iv15;
      let m = Crypto.Evp.decrypt_update s ~ctx:dctx ~out:plain ~in_:out ~inl:n in
      check bool "tag verifies" true (Crypto.Evp.decrypt_final s ~ctx:dctx ~tag);
      check string "plaintext" "sixteen byte msg" (Space.read_string s plain m))

let test_evp_state_machine () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:8 () in
      let base = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
      Crypto.Evp.encrypt_init s ~ctx:base ~key:k15 ~iv:iv15;
      Crypto.Evp.encrypt_final s ~ctx:base ~tag_out:(base + 4096);
      (* Using a finished context is a usage error, not a silent corruption. *)
      match Crypto.Evp.encrypt_update s ~ctx:base ~out:(base + 4096) ~in_:(base + 4096) ~inl:4 with
      | _ -> Alcotest.fail "finished ctx accepted"
      | exception Invalid_argument _ -> ())

(* {1 X.509 / CVE-2022-3786 analogue} *)

let with_sdrad f =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:32 () in
      let sd = Api.create space in
      f space sd)

let test_x509_benign_cert () =
  with_sdrad (fun _ sd ->
      let cert = Crypto.X509.make_cert ~cn:"example.com" ~altname:Crypto.X509.benign_altname in
      check bool "accepted" true (Crypto.X509.verify sd cert))

let test_x509_garbage_rejected () =
  with_sdrad (fun _ sd ->
      check bool "rejected" false (Crypto.X509.verify sd "not a cert"))

let test_x509_cve_smashes_canary_in_root () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  (* Unprotected: the canary failure terminates the "process". *)
  match
    Sched.main (fun _ ->
        let cert =
          Crypto.X509.make_cert ~cn:"evil" ~altname:Crypto.X509.malicious_altname
        in
        ignore (Crypto.X509.verify sd cert))
  with
  | () -> Alcotest.fail "expected stack-check failure to kill the thread"
  | exception Api.Stack_check_failure -> ()

let test_x509_cve_rewinds_in_domain () =
  with_sdrad (fun _ sd ->
      let cert =
        Crypto.X509.make_cert ~cn:"evil" ~altname:Crypto.X509.malicious_altname
      in
      let outcome =
        Api.run sd ~udi:7
          ~on_rewind:(fun f -> `Rewound f.Types.cause)
          (fun () ->
            Api.enter sd 7;
            let v = Crypto.X509.verify sd cert in
            Api.exit_domain sd;
            `Verified v)
      in
      check bool "stack smash caught" true (outcome = `Rewound Types.Stack_smash);
      (* And the service continues: a benign verification still works. *)
      let ok =
        Api.run sd ~udi:7
          ~on_rewind:(fun _ -> false)
          (fun () ->
            Api.enter sd 7;
            let v =
              Crypto.X509.verify sd
                (Crypto.X509.make_cert ~cn:"good" ~altname:Crypto.X509.benign_altname)
            in
            Api.exit_domain sd;
            Api.destroy sd 7 ~heap:`Discard;
            v)
      in
      check bool "subsequent verify ok" true ok)

(* {1 Evp_sdrad: the three design choices} *)

let plain_reference p =
  Crypto.Gcm.one_shot_encrypt ~key:k15 ~iv:iv15 p

let run_choice choice =
  let result = ref ("", "") in
  with_sdrad (fun space sd ->
      let iso = Crypto.Evp_sdrad.setup sd ~choice ~key:k15 ~iv:iv15 () in
      let p = "the quick brown fox jumps over the lazy dog, twice over!" in
      let n = String.length p in
      let in_, out =
        match choice with
        | Crypto.Evp_sdrad.Shared_buffers ->
            (Crypto.Evp_sdrad.data_malloc iso n, Crypto.Evp_sdrad.data_malloc iso (n + 16))
        | _ ->
            let buf = Api.malloc sd ~udi:Types.root_udi (2 * (n + 16)) in
            (buf, buf + n + 16)
      in
      Space.store_string space in_ p;
      (match Crypto.Evp_sdrad.encrypt_update iso ~out ~in_ ~inl:n with
      | Ok outl ->
          let c = Space.read_string space out outl in
          (match Crypto.Evp_sdrad.encrypt_final iso ~tag_out:0 with
          | Ok tag -> result := (c, tag)
          | Error f -> Alcotest.failf "final fault: %s" (Format.asprintf "%a" Types.pp_fault f))
      | Error f -> Alcotest.failf "update fault: %s" (Format.asprintf "%a" Types.pp_fault f));
      Crypto.Evp_sdrad.destroy iso);
  !result

let test_evp_sdrad_choices_match_reference () =
  let p = "the quick brown fox jumps over the lazy dog, twice over!" in
  let ref_c, ref_t = plain_reference p in
  List.iter
    (fun choice ->
      let c, t = run_choice choice in
      check string "ciphertext matches reference" (to_hex ref_c) (to_hex c);
      check string "tag matches reference" (to_hex ref_t) (to_hex t))
    [ Crypto.Evp_sdrad.Copy_in_out; Crypto.Evp_sdrad.Read_parent; Crypto.Evp_sdrad.Shared_buffers ]

let test_evp_sdrad_ctx_sealed () =
  with_sdrad (fun space sd ->
      let iso =
        Crypto.Evp_sdrad.setup sd ~choice:Crypto.Evp_sdrad.Copy_in_out ~key:k15 ~iv:iv15 ()
      in
      (* The context lives in an inaccessible domain: key material cannot
         be read from the root domain. We probe via the wrapper's own
         fault-injection hook address — any address inside the domain heap
         will do; take one by sabotaging a read ourselves. *)
      let probe () =
        (* Addresses in the OpenSSL domain are not exposed; recover one by
           scanning: allocate in the data domain (accessible), then try the
           page the wrapper reported via its internals is not possible, so
           instead verify that a full update still works and that the key
           never appears in accessible memory. *)
        let needle = k15 in
        let found = ref false in
        Space.iter_mapped_pages space (fun page ->
            match Space.read_string space page 4096 with
            | contents ->
                (* Only accessible pages can be read without a fault. *)
                let rec search i =
                  if i + String.length needle <= String.length contents then
                    if String.sub contents i (String.length needle) = needle then
                      found := true
                    else search (i + 1)
                in
                search 0
            | exception Space.Fault _ -> ());
        !found
      in
      check bool "raw key not readable anywhere accessible" false (probe ());
      Crypto.Evp_sdrad.destroy iso)

let test_evp_sdrad_fault_and_recover () =
  with_sdrad (fun space sd ->
      let iso =
        Crypto.Evp_sdrad.setup sd ~choice:Crypto.Evp_sdrad.Copy_in_out ~key:k15 ~iv:iv15 ()
      in
      let buf = Api.malloc sd ~udi:Types.root_udi 128 in
      Space.store_string space buf "sixteen byte msg";
      Crypto.Evp_sdrad.inject_fault_next_call iso;
      (match Crypto.Evp_sdrad.encrypt_update iso ~out:(buf + 64) ~in_:buf ~inl:16 with
      | Error f -> check int "fault in openssl domain" 14 f.Types.failed_udi
      | Ok _ -> Alcotest.fail "sabotage not caught");
      (* The paper: re-initialize the cryptographic context and continue. *)
      Crypto.Evp_sdrad.recover iso ~key:k15 ~iv:iv15;
      (match Crypto.Evp_sdrad.encrypt_update iso ~out:(buf + 64) ~in_:buf ~inl:16 with
      | Ok 16 -> ()
      | Ok n -> Alcotest.failf "unexpected outl %d" n
      | Error _ -> Alcotest.fail "recovered domain still faulting");
      Crypto.Evp_sdrad.destroy iso)


let test_evp_aad_matches_gcm () =
  Sched.main (fun _ ->
      let s = Space.create ~size_mib:8 () in
      let base = Space.mmap s ~len:(64 * 1024) ~prot:Prot.rw ~pkey:0 in
      let ctx = base and aad_buf = base + 2048 and inp = base + 4096 in
      let out = base + 8192 and tag = base + 12288 in
      let aad = hex "feedfacedeadbeeffeedfacedeadbeefabaddad2" in
      let p = String.sub p15 0 60 in
      Crypto.Evp.encrypt_init s ~ctx ~key:k15 ~iv:iv15;
      Space.store_string s aad_buf aad;
      Crypto.Evp.aad_update s ~ctx ~in_:aad_buf ~inl:(String.length aad);
      Space.store_string s inp p;
      let n = Crypto.Evp.encrypt_update s ~ctx ~out ~in_:inp ~inl:(String.length p) in
      Crypto.Evp.encrypt_final s ~ctx ~tag_out:tag;
      (* Must match NIST test case 16 exactly. *)
      check string "ciphertext" (String.sub c15 0 120) (to_hex (Space.read_string s out n));
      check string "tag" "76fc6ece0f4e1768cddf8853bb2d551b" (to_hex (Space.read_string s tag 16)))

let () =
  Alcotest.run "crypto"
    [
      ( "aes",
        [
          Alcotest.test_case "fips-197 vector" `Quick test_aes_fips197;
          Alcotest.test_case "bad key" `Quick test_aes_rejects_bad_key;
        ] );
      ( "gcm",
        [
          Alcotest.test_case "nist tc13" `Quick test_gcm_tc13;
          Alcotest.test_case "nist tc14" `Quick test_gcm_tc14;
          Alcotest.test_case "nist tc15" `Quick test_gcm_tc15;
          Alcotest.test_case "nist tc16 (aad)" `Quick test_gcm_tc16_with_aad;
          Alcotest.test_case "decrypt + tamper" `Quick test_gcm_decrypt_roundtrip;
          QCheck_alcotest.to_alcotest streaming_equivalence;
          QCheck_alcotest.to_alcotest serialize_roundtrip;
        ] );
      ( "evp",
        [
          Alcotest.test_case "matches gcm" `Quick test_evp_matches_gcm;
          Alcotest.test_case "decrypt verifies" `Quick test_evp_decrypt_verifies;
          Alcotest.test_case "state machine" `Quick test_evp_state_machine;
          Alcotest.test_case "aad (nist tc16)" `Quick test_evp_aad_matches_gcm;
        ] );
      ( "x509",
        [
          Alcotest.test_case "benign cert" `Quick test_x509_benign_cert;
          Alcotest.test_case "garbage rejected" `Quick test_x509_garbage_rejected;
          Alcotest.test_case "cve kills unprotected" `Quick test_x509_cve_smashes_canary_in_root;
          Alcotest.test_case "cve rewinds in domain" `Quick test_x509_cve_rewinds_in_domain;
        ] );
      ( "evp_sdrad",
        [
          Alcotest.test_case "choices match reference" `Quick
            test_evp_sdrad_choices_match_reference;
          Alcotest.test_case "key sealed" `Quick test_evp_sdrad_ctx_sealed;
          Alcotest.test_case "fault and recover" `Quick test_evp_sdrad_fault_and_recover;
        ] );
    ]
