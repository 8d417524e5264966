(* Tests for the TLSF allocator: alignment, splitting, coalescing,
   good-fit behaviour, exhaustion, sub-heap merging, and a property test
   driving random malloc/free sequences with full integrity checks. *)

module Space = Vmem.Space
module Prot = Vmem.Prot

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk ?(region = 256 * 1024) () =
  let s = Space.create ~size_mib:16 () in
  let t = Tlsf.create s ~name:"test" in
  let a = Space.mmap s ~len:region ~prot:Prot.rw ~pkey:0 in
  Tlsf.add_region t ~addr:a ~len:region;
  (s, t)

let assert_healthy t =
  match Tlsf.check t with
  | [] -> ()
  | errs -> Alcotest.fail (String.concat "; " errs)

let test_malloc_basic () =
  let _, t = mk () in
  let p = Tlsf.malloc t 100 in
  check bool "aligned" true (p land 7 = 0);
  check bool "usable >= requested" true (Tlsf.usable_size t p >= 100);
  check int "one live block" 1 (Tlsf.used_blocks t);
  Tlsf.free t p;
  check int "no live blocks" 0 (Tlsf.used_blocks t);
  assert_healthy t

let test_malloc_distinct_regions () =
  let _, t = mk () in
  let ps = List.init 50 (fun _ -> Tlsf.malloc t 64) in
  (* No two payloads may overlap. *)
  let sorted = List.sort compare ps in
  let rec no_overlap = function
    | a :: (b :: _ as rest) ->
        check bool "disjoint" true (a + 64 <= b);
        no_overlap rest
    | _ -> ()
  in
  no_overlap sorted;
  assert_healthy t

let test_contents_survive_other_ops () =
  let s, t = mk () in
  let p = Tlsf.malloc t 32 in
  Space.store_string s p "persistent data!";
  let others = List.init 20 (fun i -> Tlsf.malloc t (16 + (i * 8))) in
  List.iteri (fun i q -> if i mod 2 = 0 then Tlsf.free t q) others;
  check Alcotest.string "contents intact" "persistent data!"
    (Space.read_string s p 16);
  assert_healthy t

let test_free_coalesces () =
  let _, t = mk ~region:(64 * 1024) () in
  (* Fill the region with many small blocks, free them all, then a single
     allocation of almost the whole region must succeed again. *)
  let ps = List.init 100 (fun _ -> Tlsf.malloc t 128) in
  List.iter (Tlsf.free t) ps;
  assert_healthy t;
  let big = Tlsf.malloc t (60 * 1024) in
  check bool "coalesced into one big block" true (big > 0)

let test_out_of_memory () =
  let _, t = mk ~region:4096 () in
  Alcotest.check_raises "oom" Tlsf.Out_of_memory (fun () ->
      ignore (Tlsf.malloc t 8192));
  check (Alcotest.option int) "malloc_opt is None" None (Tlsf.malloc_opt t 8192)

let test_double_free_detected () =
  let _, t = mk () in
  let p = Tlsf.malloc t 64 in
  Tlsf.free t p;
  match Tlsf.free t p with
  | () -> Alcotest.fail "double free not detected"
  | exception Tlsf.Heap_corrupted _ -> ()

let test_multiple_regions () =
  let s = Space.create ~size_mib:16 () in
  let t = Tlsf.create s ~name:"multi" in
  let r1 = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
  let r2 = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
  Tlsf.add_region t ~addr:r1 ~len:8192;
  Tlsf.add_region t ~addr:r2 ~len:8192;
  (* A request larger than one region's free block must come from the other. *)
  let p1 = Tlsf.malloc t 7000 in
  let p2 = Tlsf.malloc t 7000 in
  check bool "both satisfied" true (p1 > 0 && p2 > 0);
  check int "regions tracked" 2 (List.length (Tlsf.regions t));
  assert_healthy t

let test_merge_absorbs_child () =
  let s = Space.create ~size_mib:16 () in
  let parent = Tlsf.create s ~name:"parent" in
  let child = Tlsf.create s ~name:"child" in
  let rp = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
  let rc = Space.mmap s ~len:8192 ~prot:Prot.rw ~pkey:0 in
  Tlsf.add_region parent ~addr:rp ~len:8192;
  Tlsf.add_region child ~addr:rc ~len:8192;
  let live = Tlsf.malloc child 64 in
  Space.store_string s live "survives merge!!";
  Tlsf.merge parent ~from:child;
  check int "child emptied" 0 (Tlsf.total_bytes child);
  check int "parent owns both regions" 2 (List.length (Tlsf.regions parent));
  (* The child's live allocation is now owned (and freeable) via parent. *)
  check Alcotest.string "live data intact" "survives merge!!"
    (Space.read_string s live 16);
  Tlsf.free parent live;
  assert_healthy parent;
  (* And the child's free space is allocatable from the parent. *)
  let p = Tlsf.malloc parent 7000 in
  let q = Tlsf.malloc parent 7000 in
  check bool "both regions allocatable" true (p > 0 && q > 0)

let test_good_fit_prefers_close_class () =
  let _, t = mk () in
  (* Allocating many same-size blocks after freeing them should reuse the
     freed space rather than grow usage (good-fit behaviour). *)
  let ps = List.init 64 (fun _ -> Tlsf.malloc t 100) in
  let high = Tlsf.used_bytes t in
  List.iter (Tlsf.free t) ps;
  let ps2 = List.init 64 (fun _ -> Tlsf.malloc t 100) in
  check int "usage identical on reuse" high (Tlsf.used_bytes t);
  List.iter (Tlsf.free t) ps2;
  assert_healthy t

let test_iter_blocks_covers_region () =
  let _, t = mk ~region:8192 () in
  let p = Tlsf.malloc t 64 in
  let total = ref 0 and count = ref 0 in
  Tlsf.iter_blocks t (fun ~addr:_ ~size ~free:_ ->
      total := !total + size + Tlsf.block_overhead;
      incr count);
  check int "blocks tile the region" 8192 !total;
  check bool "at least two blocks (split)" true (!count >= 2);
  Tlsf.free t p

(* Property: any sequence of mallocs and frees keeps the heap healthy,
   all payloads stay disjoint, and contents written to a block survive
   until it is freed. *)
let random_ops_prop =
  QCheck.Test.make ~name:"random malloc/free keeps heap consistent" ~count:60
    QCheck.(list (pair bool (int_range 1 2000)))
    (fun ops ->
      let s, t = mk ~region:(128 * 1024) () in
      let live = ref [] in
      let ok = ref true in
      let tag = ref 0 in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc || !live = [] then begin
            match Tlsf.malloc_opt t size with
            | Some p ->
                incr tag;
                let marker = Printf.sprintf "%08d" (!tag mod 100000000) in
                Space.store_string s p marker;
                live := (p, marker) :: !live
            | None -> ()
          end
          else begin
            match !live with
            | (p, marker) :: rest ->
                if Space.read_string s p 8 <> marker then ok := false;
                Tlsf.free t p;
                live := rest
            | [] -> ()
          end;
          if Tlsf.check t <> [] then ok := false)
        ops;
      (* Verify all remaining contents then drain. *)
      List.iter
        (fun (p, marker) ->
          if Space.read_string s p 8 <> marker then ok := false;
          Tlsf.free t p)
        !live;
      !ok && Tlsf.check t = [] && Tlsf.used_blocks t = 0)

(* {1 Reset}

   A domain re-created after a rewind takes the discarded domain's heap
   after [Tlsf.reset], so a reset heap must be a fresh one. After a
   random history of region adds, mallocs, frees, an injection hook and
   the sanitize mode, every field of the reset heap equals the same
   field of [Tlsf.create]'s on the same space and name: bitmaps, heads,
   regions, counters, the hook and the mode. The fields are walked
   through the record's representation, not named, so a field added
   later that [reset] misses fails here too. A field holding the same
   value (the space) or an equal one counts as equal; a function value
   cannot be compared, so a hook left in place does not. *)

type hop = Region of int | Malloc of int | Free of int | Inject | Sanitize

let print_hop = function
  | Region kib -> Printf.sprintf "Region %d" kib
  | Malloc n -> Printf.sprintf "Malloc %d" n
  | Free k -> Printf.sprintf "Free %d" k
  | Inject -> "Inject"
  | Sanitize -> "Sanitize"

let gen_hops =
  let open QCheck.Gen in
  list_size (int_bound 40)
    (frequency
       [
         (2, map (fun kib -> Region kib) (int_range 1 64));
         (6, map (fun n -> Malloc n) (int_range 1 3000));
         (4, map (fun k -> Free k) nat);
         (1, return Inject);
         (1, return Sanitize);
       ])

let same_fields a b =
  let a = Obj.repr a and b = Obj.repr b in
  Obj.size a = Obj.size b
  && List.for_all
       (fun i ->
         let x = Obj.field a i and y = Obj.field b i in
         x == y || try compare x y = 0 with Invalid_argument _ -> false)
       (List.init (Obj.size a) Fun.id)

let reset_is_fresh =
  QCheck.Test.make ~count:200 ~name:"a reset heap equals a fresh one"
    (QCheck.make ~print:(QCheck.Print.list print_hop) gen_hops)
    (fun hops ->
      let s = Space.create ~size_mib:16 () in
      let t = Tlsf.create s ~name:"heap" in
      let live = ref [] in
      List.iter
        (function
          | Region kib ->
              let len = kib * 1024 in
              let a = Space.mmap s ~len ~prot:Prot.rw ~pkey:0 in
              Tlsf.add_region t ~addr:a ~len
          | Malloc n -> (
              match Tlsf.malloc_opt t n with
              | Some p -> live := p :: !live
              | None -> ())
          | Free k -> (
              match !live with
              | [] -> ()
              | ps ->
                  let p = List.nth ps (k mod List.length ps) in
                  Tlsf.free t p;
                  live := List.filter (fun q -> q <> p) ps)
          | Inject -> Tlsf.set_inject_failure t (Some (fun n -> n > 2000))
          | Sanitize -> if Tlsf.regions t = [] then Tlsf.set_sanitize t true)
        hops;
      Tlsf.reset t;
      same_fields t (Tlsf.create s ~name:"heap"))

(* {1 Host allocation}

   [malloc] and [free] run on every request: each opens the allocator's
   bypass bracket by hand and the core reports "no block" as 0, so a
   pair allocates no host memory (the [with_bypass] closures and the
   core's [Some] cost 12 words). Measured inside a simulated thread,
   where each checked header access charges the clock. *)
let test_malloc_free_alloc_free () =
  let _, t = mk () in
  let words =
    Simkern.Sched.main (fun _ ->
        Alloc_probe.words_per_call ~n:1_000 (fun () ->
            Tlsf.free t (Tlsf.malloc t 256)))
  in
  Alcotest.(check (float 0.0)) "malloc + free allocate nothing" 0.0 words

let () =
  Alcotest.run "tlsf"
    [
      ( "alloc",
        [
          Alcotest.test_case "malloc basic" `Quick test_malloc_basic;
          Alcotest.test_case "distinct payloads" `Quick test_malloc_distinct_regions;
          Alcotest.test_case "contents survive" `Quick test_contents_survive_other_ops;
          Alcotest.test_case "coalescing" `Quick test_free_coalesces;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "good fit reuse" `Quick test_good_fit_prefers_close_class;
          Alcotest.test_case "malloc + free host allocation" `Quick
            test_malloc_free_alloc_free;
        ] );
      ( "regions",
        [
          Alcotest.test_case "multiple regions" `Quick test_multiple_regions;
          Alcotest.test_case "merge absorbs child" `Quick test_merge_absorbs_child;
          Alcotest.test_case "iter blocks" `Quick test_iter_blocks_covers_region;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest random_ops_prop;
          QCheck_alcotest.to_alcotest reset_is_fresh;
        ] );
    ]
