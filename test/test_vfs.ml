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

(* {1 Nested trees} *)

(* A random tree of directories and files under short names that are
   prefixes of one another, with lookups of every path spelled with
   doubled and trailing slashes, of missing names and through files,
   checked against a model after every operation. *)
type op = Mkdir of string list | Create of string list * int | Unlink of string list

let names = [ "a"; "ab"; "abc"; "b" ]

let op_gen =
  let open QCheck.Gen in
  let path = list_size (int_range 1 3) (oneofl names) in
  frequency
    [
      (3, map (fun p -> Mkdir p) path);
      (4, map2 (fun p n -> Create (p, n)) path (int_range 0 9000));
      (2, map (fun p -> Unlink p) path);
    ]

let show_op = function
  | Mkdir p -> "mkdir /" ^ String.concat "/" p
  | Create (p, n) -> Printf.sprintf "create /%s %d" (String.concat "/" p) n
  | Unlink p -> "unlink /" ^ String.concat "/" p

let rec all_paths depth =
  if depth = 0 then [ [] ]
  else
    []
    :: List.concat_map
         (fun n -> List.map (fun p -> n :: p) (all_paths (depth - 1)))
         names

let nested_tree_prop =
  QCheck.Test.make ~name:"nested mkdir/create/unlink and lookups match model"
    ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      Sched.main (fun _ ->
          let _, fs = mkfs ~blocks:2048 () in
          (* path components -> [Some data] for a file, [None] for a
             directory *)
          let model : (string list, string option) Hashtbl.t = Hashtbl.create 16 in
          Hashtbl.replace model [] None;
          let parent p = List.filteri (fun i _ -> i < List.length p - 1) p in
          let is_model_dir p = Hashtbl.find_opt model p = Some None in
          let children p =
            Hashtbl.fold
              (fun q _ n -> if q <> [] && parent q = p then n + 1 else n)
              model 0
          in
          let path p = "/" ^ String.concat "/" p in
          let fails f =
            match f () with () -> false | exception Vfs.Fs_error _ -> true
          in
          let apply = function
            | Mkdir p ->
                let ok = is_model_dir (parent p) && not (Hashtbl.mem model p) in
                let failed = fails (fun () -> Vfs.mkdir fs (path p)) in
                if ok then Hashtbl.replace model p None;
                ok <> failed
            | Create (p, n) ->
                let ok = is_model_dir (parent p) && not (is_model_dir p) in
                let data = String.init n (fun i -> Char.chr ((i + n) mod 256)) in
                let failed = fails (fun () -> Vfs.create fs ~path:(path p) ~data) in
                if ok then Hashtbl.replace model p (Some data);
                ok <> failed
            | Unlink p ->
                let ok =
                  match Hashtbl.find_opt model p with
                  | Some (Some _) -> true
                  | Some None -> children p = 0
                  | None -> false
                in
                let failed = fails (fun () -> Vfs.unlink fs (path p)) in
                if ok then Hashtbl.remove model p;
                ok <> failed
          in
          (* Every path of up to four components, in three spellings. *)
          let lookups_agree () =
            List.for_all
              (fun p ->
                let entry = Hashtbl.find_opt model p in
                List.for_all
                  (fun spelled ->
                    Vfs.exists fs spelled = Option.is_some entry
                    && Vfs.is_dir fs spelled = (entry = Some None)
                    && Vfs.file_size fs spelled
                       = Option.map String.length (Option.join entry)
                    &&
                    match entry with
                    | Some (Some data) -> Vfs.read_all fs spelled = data
                    | Some None | None -> true)
                  [
                    path p;
                    "//" ^ String.concat "//" p;
                    path p ^ "/";
                  ])
              (all_paths 4)
          in
          List.for_all
            (fun op -> apply op && Vfs.check fs = [] && lookups_agree ())
            ops))

(* Simulated cycles of [Vfs.file_size] and of a whole-file
   [Vfs.read_into_bytes] (or of its failure) for each path of one tree:
   the walk's accesses and charges, pinned at the figures the list-based
   walk (split path, dirent records, block lists) measured. The tree has
   names that are prefixes of one another, a file under an indirect
   block and a directory of 70 entries, two blocks. *)
let lookup_cycles =
  [
    ("/", 1.0, 1.0);
    ("//", 1.0, 1.0);
    ("/s.bin", 40.0, 171.0);
    ("/s.bin/", 40.0, 171.0);
    ("/l.bin", 40.0, 8271.0);
    ("/www/index.html", 78.0, 209.0);
    ("/www/index", 78.0, 82.25);
    ("/www/i", 78.0, 81.125);
    ("/www/ind", 76.0, 76.0);
    ("/www/index.htm", 76.0, 76.0);
    ("/www/index.html/x", 77.0, 77.0);
    ("/www//static///app.js", 100.0, 115.5);
    ("/www/static/", 77.0, 77.0);
    ("/www/static/deep/leaf", 114.0, 744.0);
    ("/www/static/deep/leaf/more", 113.0, 113.0);
    ("/missing", 38.0, 38.0);
    ("/www/missing", 76.0, 76.0);
    ("/many/f0", 608.0, 611.375);
    ("/many/f69", 608.0, 611.375);
    ("/many/f7/x", 607.0, 607.0);
  ]

let test_lookup_cycles () =
  Sched.main (fun _ ->
      let _, fs = mkfs ~blocks:512 () in
      let file path n = Vfs.create fs ~path ~data:(String.make n 'x') in
      Vfs.mkdir fs "/www";
      file "/www/index.html" 1024;
      file "/www/index" 10;
      file "/www/i" 1;
      Vfs.mkdir fs "/www/static";
      file "/www/static/app.js" 100;
      Vfs.mkdir fs "/www/static/deep";
      file "/www/static/deep/leaf" 5000;
      file "/s.bin" 1024;
      file "/l.bin" 65536;
      Vfs.mkdir fs "/many";
      for i = 0 to 69 do
        file (Printf.sprintf "/many/f%d" i) 3
      done;
      let b = Bytes.create Vfs.max_file_size in
      let cycles f =
        let t0 = Sched.now () in
        (match f () with () -> () | exception Vfs.Fs_error _ -> ());
        Sched.now () -. t0
      in
      let measured =
        List.map
          (fun (path, _, _) ->
            ( path,
              cycles (fun () -> ignore (Vfs.file_size fs path)),
              cycles (fun () ->
                  ignore
                    (Vfs.read_into_bytes fs ~path ~off:0 ~len:Vfs.max_file_size b 0))
            ))
          lookup_cycles
      in
      let show (path, a, b) = Printf.sprintf "%s %.17g %.17g" path a b in
      check (Alcotest.list string) "cycles per lookup"
        (List.map show lookup_cycles) (List.map show measured))

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
          QCheck_alcotest.to_alcotest nested_tree_prop;
          Alcotest.test_case "lookup cycles" `Quick test_lookup_cycles;
        ] );
    ]
