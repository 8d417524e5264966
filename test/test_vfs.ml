(* Tests for the simulated filesystem: mkfs geometry, file and directory
   operations, indirect-block files, block recycling, error handling and
   a random-operations property checked against a model plus the
   consistency walker. *)

module Space = Vmem.Space
module Sched = Simkern.Sched

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let mkfs ?(blocks = 512) () =
  let space = Space.create ~size_mib:32 () in
  (space, Vfs.format space ~blocks ())

let assert_healthy fs =
  match Vfs.check fs with
  | [] -> ()
  | errs -> Alcotest.fail (String.concat "; " errs)

let test_format_geometry () =
  Sched.main (fun _ ->
      let _, fs = mkfs () in
      check int "total" 512 (Vfs.total_blocks fs);
      check bool "metadata reserved" true (Vfs.free_blocks fs < 512);
      check int "only the root inode" 1 (Vfs.inode_count fs);
      check bool "root is a dir" true (Vfs.is_dir fs "/");
      check (Alcotest.list string) "root empty" [] (Vfs.list_dir fs "/");
      assert_healthy fs)

let test_create_read_roundtrip () =
  Sched.main (fun _ ->
      let _, fs = mkfs () in
      Vfs.create fs ~path:"/hello.txt" ~data:"hello, filesystem";
      check bool "exists" true (Vfs.exists fs "/hello.txt");
      check (Alcotest.option int) "size" (Some 17) (Vfs.file_size fs "/hello.txt");
      check string "content" "hello, filesystem" (Vfs.read_all fs "/hello.txt");
      check string "ranged read" "filesystem" (Vfs.read fs ~path:"/hello.txt" ~off:7 ~len:100);
      assert_healthy fs)

let test_multiblock_file () =
  Sched.main (fun _ ->
      let _, fs = mkfs () in
      (* Spans several direct blocks with a distinctive pattern. *)
      let data = String.init 20_000 (fun i -> Char.chr (i * 7 mod 256)) in
      Vfs.create fs ~path:"/blob" ~data;
      check string "whole file" data (Vfs.read_all fs "/blob");
      check string "cross-block range" (String.sub data 4090 12)
        (Vfs.read fs ~path:"/blob" ~off:4090 ~len:12);
      assert_healthy fs)

let test_indirect_file () =
  Sched.main (fun _ ->
      let _, fs = mkfs ~blocks:300 () in
      (* > 10 blocks forces the single-indirect path. *)
      let data = String.init (64 * 1024) (fun i -> Char.chr (i mod 251)) in
      Vfs.create fs ~path:"/big" ~data;
      check int "size" (64 * 1024) (Option.get (Vfs.file_size fs "/big"));
      check string "content" data (Vfs.read_all fs "/big");
      assert_healthy fs;
      (* Deleting it returns every block including the indirect one. *)
      let free_before = Vfs.free_blocks fs in
      Vfs.unlink fs "/big";
      (* 16 data blocks + 1 indirect block + the root directory shrinking
         back to zero entries (its block is freed too). *)
      check int "blocks returned" (free_before + 18) (Vfs.free_blocks fs);
      assert_healthy fs)

let test_file_too_large_rejected () =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:32 () in
      let fs = Vfs.format space ~blocks:1024 () in
      match Vfs.create fs ~path:"/huge" ~data:(String.make (Vfs.max_file_size + 1) 'x') with
      | () -> Alcotest.fail "oversized file accepted"
      | exception Vfs.Fs_error _ -> ())

let test_directories () =
  Sched.main (fun _ ->
      let _, fs = mkfs () in
      Vfs.mkdir fs "/www";
      Vfs.mkdir fs "/www/static";
      Vfs.create fs ~path:"/www/static/app.js" ~data:"console.log(1)";
      Vfs.create fs ~path:"/www/index.html" ~data:"<html/>";
      check bool "nested lookup" true (Vfs.exists fs "/www/static/app.js");
      check (Alcotest.list string) "listing" [ "static"; "index.html" ]
        (Vfs.list_dir fs "/www");
      check string "nested read" "console.log(1)" (Vfs.read_all fs "/www/static/app.js");
      check bool "file is not a dir" false (Vfs.is_dir fs "/www/index.html");
      assert_healthy fs)

let test_overwrite_replaces () =
  Sched.main (fun _ ->
      let _, fs = mkfs () in
      Vfs.create fs ~path:"/f" ~data:(String.make 10_000 'a');
      let free_mid = Vfs.free_blocks fs in
      Vfs.create fs ~path:"/f" ~data:"tiny";
      check string "new content" "tiny" (Vfs.read_all fs "/f");
      check bool "old blocks freed" true (Vfs.free_blocks fs > free_mid);
      check int "one file inode + root" 2 (Vfs.inode_count fs);
      assert_healthy fs)

let test_unlink_and_recycle () =
  Sched.main (fun _ ->
      let _, fs = mkfs ~blocks:64 () in
      (* Fill-delete cycles must not leak blocks. *)
      for i = 1 to 20 do
        let path = Printf.sprintf "/cycle%d" (i mod 3) in
        Vfs.create fs ~path ~data:(String.make 9_000 'x');
        Vfs.unlink fs path
      done;
      assert_healthy fs;
      check int "only root remains" 1 (Vfs.inode_count fs))

let test_error_cases () =
  Sched.main (fun _ ->
      let _, fs = mkfs () in
      Vfs.mkdir fs "/d";
      Vfs.create fs ~path:"/d/f" ~data:"x";
      let expect_err f =
        match f () with
        | _ -> Alcotest.fail "expected Fs_error"
        | exception Vfs.Fs_error _ -> ()
      in
      expect_err (fun () -> Vfs.read_all fs "/missing");
      expect_err (fun () -> Vfs.read_all fs "/d");
      expect_err (fun () -> Vfs.unlink fs "/d");
      expect_err (fun () -> Vfs.mkdir fs "/d");
      expect_err (fun () -> Vfs.create fs ~path:"/nodir/f" ~data:"x");
      expect_err (fun () -> Vfs.create fs ~path:"/d" ~data:"x");
      expect_err (fun () -> Vfs.list_dir fs "/d/f");
      expect_err (fun () -> ignore (Vfs.read fs ~path:"/" ~off:0 ~len:1));
      assert_healthy fs)

let test_disk_full () =
  Sched.main (fun _ ->
      let _, fs = mkfs ~blocks:16 () in
      match
        for i = 0 to 63 do
          Vfs.create fs ~path:(Printf.sprintf "/f%d" i) ~data:(String.make 4096 'x')
        done
      with
      | () -> Alcotest.fail "disk never filled"
      | exception Vfs.Fs_error _ -> ())

let test_read_into_simulated_buffer () =
  Sched.main (fun _ ->
      let space, fs = mkfs () in
      Vfs.create fs ~path:"/payload" ~data:"sendfile me please";
      let dst = Space.mmap space ~len:4096 ~prot:Vmem.Prot.rw ~pkey:0 in
      let n = Vfs.read_into fs ~path:"/payload" ~off:9 ~len:100 ~dst in
      check int "bytes" 9 n;
      check string "copied" "me please" (Space.read_string space dst 9))


let test_rename () =
  Sched.main (fun _ ->
      let _, fs = mkfs () in
      Vfs.mkdir fs "/a";
      Vfs.mkdir fs "/b";
      Vfs.create fs ~path:"/a/f" ~data:"moving data";
      (* Same-directory rename. *)
      Vfs.rename fs ~old_path:"/a/f" ~new_path:"/a/g";
      check bool "old gone" false (Vfs.exists fs "/a/f");
      check string "renamed" "moving data" (Vfs.read_all fs "/a/g");
      (* Cross-directory move. *)
      Vfs.rename fs ~old_path:"/a/g" ~new_path:"/b/h";
      check bool "moved out" false (Vfs.exists fs "/a/g");
      check string "moved in" "moving data" (Vfs.read_all fs "/b/h");
      (* Replace an existing file. *)
      Vfs.create fs ~path:"/b/victim" ~data:(String.make 9000 'v');
      Vfs.rename fs ~old_path:"/b/h" ~new_path:"/b/victim";
      check string "replaced" "moving data" (Vfs.read_all fs "/b/victim");
      (* Move a whole directory. *)
      Vfs.create fs ~path:"/a/inner" ~data:"deep";
      Vfs.rename fs ~old_path:"/a" ~new_path:"/b/a2";
      check string "subtree follows" "deep" (Vfs.read_all fs "/b/a2/inner");
      assert_healthy fs)

let test_rename_errors () =
  Sched.main (fun _ ->
      let _, fs = mkfs () in
      Vfs.mkdir fs "/d";
      Vfs.create fs ~path:"/f" ~data:"x";
      let expect_err f =
        match f () with
        | _ -> Alcotest.fail "expected Fs_error"
        | exception Vfs.Fs_error _ -> ()
      in
      expect_err (fun () -> Vfs.rename fs ~old_path:"/missing" ~new_path:"/y");
      expect_err (fun () -> Vfs.rename fs ~old_path:"/f" ~new_path:"/d");
      expect_err (fun () -> Vfs.rename fs ~old_path:"/d" ~new_path:"/d/inside");
      assert_healthy fs)

let random_fs_prop =
  QCheck.Test.make ~name:"random create/overwrite/unlink matches model" ~count:25
    QCheck.(list (pair (int_range 0 6) (int_range 0 9000)))
    (fun ops ->
      let ok = ref true in
      Sched.main (fun _ ->
          let _, fs = mkfs ~blocks:2048 () in
          let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun (slot, size) ->
              let path = Printf.sprintf "/file%d" slot in
              if size mod 3 = 0 && Hashtbl.mem model path then begin
                Vfs.unlink fs path;
                Hashtbl.remove model path
              end
              else begin
                let data = String.init size (fun i -> Char.chr ((i + size) mod 256)) in
                Vfs.create fs ~path ~data;
                Hashtbl.replace model path data
              end;
              if Vfs.check fs <> [] then ok := false)
            ops;
          Hashtbl.iter
            (fun path data -> if Vfs.read_all fs path <> data then ok := false)
            model;
          let names = List.sort compare (Vfs.list_dir fs "/") in
          let expected =
            List.sort compare (Hashtbl.fold (fun k _ acc -> String.sub k 1 (String.length k - 1) :: acc) model [])
          in
          if names <> expected then ok := false);
      !ok)

let () =
  Alcotest.run "vfs"
    [
      ( "files",
        [
          Alcotest.test_case "format geometry" `Quick test_format_geometry;
          Alcotest.test_case "create/read" `Quick test_create_read_roundtrip;
          Alcotest.test_case "multi-block" `Quick test_multiblock_file;
          Alcotest.test_case "indirect blocks" `Quick test_indirect_file;
          Alcotest.test_case "too large" `Quick test_file_too_large_rejected;
          Alcotest.test_case "overwrite" `Quick test_overwrite_replaces;
          Alcotest.test_case "read_into" `Quick test_read_into_simulated_buffer;
        ] );
      ( "tree",
        [
          Alcotest.test_case "directories" `Quick test_directories;
          Alcotest.test_case "unlink/recycle" `Quick test_unlink_and_recycle;
          Alcotest.test_case "errors" `Quick test_error_cases;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename errors" `Quick test_rename_errors;
          Alcotest.test_case "disk full" `Quick test_disk_full;
          QCheck_alcotest.to_alcotest random_fs_prop;
        ] );
    ]
