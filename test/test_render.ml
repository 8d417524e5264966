(* Tests for the image renderer: encode/decode round trips, malformed
   input rejection, and the integer-overflow CVE analogue contained by a
   transient SDRaD domain. *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let gradient x y = (x * 37 mod 256, y * 11 mod 256, (x + y) mod 256)

let plain_decode space image ~vulnerable =
  let src = Space.mmap space ~len:(max 4096 (String.length image)) ~prot:Prot.rw ~pkey:0 in
  Space.store_string space src image;
  Render.decode space
    ~alloc:(fun n -> Space.mmap space ~len:(max 16 n) ~prot:Prot.rw ~pkey:0)
    ~src ~len:(String.length image) ~vulnerable

let test_roundtrip () =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:16 () in
      let image = Render.encode ~width:17 ~height:9 gradient in
      let d = plain_decode space image ~vulnerable:false in
      check int "width" 17 d.Render.width;
      check int "height" 9 d.Render.height;
      let ok = ref true in
      for y = 0 to 8 do
        for x = 0 to 16 do
          if Render.pixel space d ~x ~y <> gradient x y then ok := false
        done
      done;
      check bool "every pixel survives" true !ok)

let test_rle_compresses_flat_images () =
  let flat = Render.encode ~width:100 ~height:100 (fun _ _ -> (9, 9, 9)) in
  (* 10000 identical pixels need only ceil(10000/255) runs. *)
  check bool "flat image compresses well" true (String.length flat < 200)

let test_malformed_rejected () =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:16 () in
      let reject image =
        match plain_decode space image ~vulnerable:false with
        | _ -> Alcotest.failf "accepted %S" image
        | exception Render.Bad_image _ -> ()
      in
      reject "NOPE";
      reject "SIMG";
      (* zero dimensions *)
      reject ("SIMG" ^ String.make 8 '\000');
      (* claims pixels but has no run data *)
      reject ("SIMG" ^ "\002\000\000\000\002\000\000\000");
      (* zero-length run *)
      reject ("SIMG" ^ "\001\000\000\000\001\000\000\000" ^ "\000abc"))

let test_patched_rejects_overflow_dimensions () =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:16 () in
      match plain_decode space (Render.encode_malicious ()) ~vulnerable:false with
      | _ -> Alcotest.fail "overflow dimensions accepted"
      | exception Render.Bad_image _ -> ())

let test_cve_unprotected_faults () =
  let space = Space.create ~size_mib:16 () in
  match
    Sched.main (fun _ ->
        ignore (plain_decode space (Render.encode_malicious ()) ~vulnerable:true))
  with
  | () -> Alcotest.fail "heap rampage should crash the unprotected process"
  | exception Space.Fault _ -> ()

let test_cve_isolated_rewinds () =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:32 () in
      let sd = Api.create space in
      (match Render.decode_isolated sd ~vulnerable:true (Render.encode_malicious ()) with
      | Error fault -> check int "renderer domain failed" 8 fault.Types.failed_udi
      | Ok _ -> Alcotest.fail "overflow not caught");
      (* Service continues: a benign decode works right after. *)
      let image = Render.encode ~width:8 ~height:8 gradient in
      match Render.decode_isolated sd ~vulnerable:true image with
      | Ok d ->
          check int "width" 8 d.Render.width;
          (* The framebuffer was merged into the caller's heap and is
             readable from the root domain. *)
          check bool "pixels visible after merge" true
            (Render.pixel space d ~x:3 ~y:4 = gradient 3 4)
      | Error _ -> Alcotest.fail "benign decode rewound")

let test_isolated_framebuffer_freeable () =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:32 () in
      let sd = Api.create space in
      match Render.decode_isolated sd ~vulnerable:false (Render.encode ~width:4 ~height:4 gradient) with
      | Ok d ->
          (* Merged into the root heap: the root can free it. *)
          Api.free sd ~udi:Types.root_udi d.Render.fb
      | Error _ -> Alcotest.fail "decode failed")

let roundtrip_prop =
  QCheck.Test.make ~name:"random images round-trip through the decoder" ~count:40
    QCheck.(triple (int_range 1 40) (int_range 1 40) (int_range 0 1000))
    (fun (w, h, seed) ->
      let rng = Simkern.Rng.create seed in
      let pixels =
        Array.init h (fun _ ->
            Array.init w (fun _ ->
                ( Simkern.Rng.int rng 256,
                  Simkern.Rng.int rng 256,
                  Simkern.Rng.int rng 256 )))
      in
      let image = Render.encode ~width:w ~height:h (fun x y -> pixels.(y).(x)) in
      let result = ref true in
      Sched.main (fun _ ->
          let space = Space.create ~size_mib:16 () in
          let d = plain_decode space image ~vulnerable:false in
          for y = 0 to h - 1 do
            for x = 0 to w - 1 do
              if Render.pixel space d ~x ~y <> pixels.(y).(x) then result := false
            done
          done);
      !result)

let () =
  Alcotest.run "render"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "rle compression" `Quick test_rle_compresses_flat_images;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
          Alcotest.test_case "patched rejects overflow" `Quick
            test_patched_rejects_overflow_dimensions;
          QCheck_alcotest.to_alcotest roundtrip_prop;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "cve unprotected" `Quick test_cve_unprotected_faults;
          Alcotest.test_case "cve isolated rewind" `Quick test_cve_isolated_rewinds;
          Alcotest.test_case "framebuffer merge" `Quick test_isolated_framebuffer_freeable;
        ] );
    ]
