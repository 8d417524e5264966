(* Model-based property tests: each stateful component is driven with a
   random operation sequence and compared against a trivially correct
   OCaml model after every step. *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Store = Kvcache.Store
module Slab = Kvcache.Slab

(* {1 Store + LRU vs. a list model} *)

(* The model: an association list in recency order (head = MRU). *)
module Lru_model = struct
  type t = (string * string) list ref

  let create () : t = ref []

  let touch m k =
    match List.assoc_opt k !m with
    | Some v ->
        m := (k, v) :: List.remove_assoc k !m;
        Some v
    | None -> None

  let set m k v = m := (k, v) :: List.remove_assoc k !m
  let delete m k =
    let existed = List.mem_assoc k !m in
    m := List.remove_assoc k !m;
    existed

  let evict_tail m =
    match List.rev !m with
    | (k, _) :: _ ->
        m := List.remove_assoc k !m;
        Some k
    | [] -> None

  let keys m = List.map fst !m
end

let store_lru_model =
  QCheck.Test.make ~name:"store tracks the LRU model exactly" ~count:40
    QCheck.(list (pair (int_range 0 11) (int_range 0 3)))
    (fun ops ->
      let ok = ref true in
      Sched.main (fun _ ->
          let space = Space.create ~size_mib:32 () in
          let slab =
            Slab.create space ~alloc_page:(fun len ->
                Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
          in
          let db =
            Store.create space ~buckets:16 ~slab
              ~alloc_table:(fun len ->
                Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
              ~free_table:(Space.munmap space)
          in
          let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
          let model = Lru_model.create () in
          let value_of k op = Printf.sprintf "v-%s-%d" k op in
          List.iter
            (fun (k, op) ->
              let key = Printf.sprintf "key%d" k in
              (match op with
              | 0 | 3 ->
                  let v = value_of key op in
                  Space.store_string space buf v;
                  ignore
                    (Store.set db ~key ~flags:0 ~value_src:buf
                       ~value_len:(String.length v));
                  Lru_model.set model key v
              | 1 ->
                  let real =
                    Option.map
                      (fun (a, l, _) -> Space.read_string space a l)
                      (Store.get db key)
                  in
                  let expected = Lru_model.touch model key in
                  if real <> expected then ok := false
              | _ ->
                  if Store.delete db key <> Lru_model.delete model key then
                    ok := false);
              if Store.lru_keys db <> Lru_model.keys model then ok := false;
              if Store.count db <> List.length (Lru_model.keys model) then
                ok := false;
              if Store.check db <> [] then ok := false)
            ops);
      !ok)

(* Eviction order must equal the model's tail order under pressure. *)
let eviction_order_model =
  QCheck.Test.make ~name:"eviction follows exact LRU order" ~count:25
    QCheck.(list_of_size (QCheck.Gen.int_range 5 30) (int_range 0 9))
    (fun touches ->
      let ok = ref true in
      Sched.main (fun _ ->
          let space = Space.create ~size_mib:32 () in
          let slab =
            Slab.create space ~alloc_page:(fun len ->
                Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
          in
          let db =
            Store.create space ~buckets:16 ~slab
              ~alloc_table:(fun len ->
                Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
              ~free_table:(Space.munmap space)
          in
          let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
          let model = Lru_model.create () in
          for k = 0 to 9 do
            let key = Printf.sprintf "k%d" k in
            Space.store_string space buf key;
            ignore (Store.set db ~key ~flags:0 ~value_src:buf ~value_len:2);
            Lru_model.set model key key
          done;
          List.iter
            (fun k ->
              let key = Printf.sprintf "k%d" k in
              ignore (Store.get db key);
              ignore (Lru_model.touch model key))
            touches;
          (* Evict everything one by one; orders must agree. *)
          let rec drain () =
            match Lru_model.evict_tail model with
            | None -> ()
            | Some expected ->
                let tail = List.rev (Store.lru_keys db) in
                (match tail with
                | actual :: _ ->
                    if actual <> expected then ok := false
                    else ignore (Store.delete db actual)
                | [] -> ok := false);
                drain ()
          in
          drain ());
      !ok)

(* {1 Netsim vs. a queue model} *)

let netsim_fifo_model =
  QCheck.Test.make ~name:"connection behaves as a FIFO of messages" ~count:50
    QCheck.(list (string_of_size (QCheck.Gen.int_range 0 50)))
    (fun msgs ->
      let ok = ref true in
      Sched.main (fun _ ->
          let net = Netsim.create Simkern.Cost.default in
          let l = Netsim.listen net ~port:9 in
          let a = Netsim.connect net ~port:9 in
          let b = Option.get (Netsim.accept l) in
          List.iter (Netsim.send a) msgs;
          Netsim.close a;
          let rec drain acc =
            match Netsim.recv b with
            | Some m -> drain (m :: acc)
            | None -> List.rev acc
          in
          if drain [] <> msgs then ok := false);
      !ok)

(* {1 Scheduler: per-thread clocks are monotone and causally consistent} *)

let sched_clock_monotone =
  QCheck.Test.make ~name:"observed virtual times are monotone per thread" ~count:40
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 20) (int_range 0 100)))
    (fun (seed, charges) ->
      let ok = ref true in
      let sched = Sched.create () in
      let rng = Rng.create seed in
      for i = 0 to 3 do
        ignore
          (Sched.spawn sched
             ~name:(Printf.sprintf "m%d" i)
             (fun () ->
               let last = ref (-1.0) in
               List.iter
                 (fun c ->
                   Sched.charge (float_of_int c);
                   if Rng.bool rng then Sched.yield ();
                   let now = Sched.now () in
                   if now < !last then ok := false;
                   last := now)
                 charges))
      done;
      Sched.run sched;
      !ok)

(* {1 Vmem region allocator vs. an interval model} *)

let mmap_disjointness_model =
  QCheck.Test.make ~name:"live mappings are always pairwise disjoint" ~count:40
    QCheck.(list (pair (int_range 1 20) bool))
    (fun ops ->
      let ok = ref true in
      let s = Space.create ~size_mib:8 () in
      let live = ref [] in
      List.iter
        (fun (pages, do_free) ->
          if do_free && !live <> [] then begin
            match !live with
            | (a, _) :: rest ->
                Space.munmap s a;
                live := rest
            | [] -> ()
          end
          else begin
            match Space.mmap s ~len:(pages * 4096) ~prot:Prot.rw ~pkey:0 with
            | a -> live := (a, pages * 4096) :: !live
            | exception Space.Exhausted -> ()
          end;
          (* Pairwise disjointness, including the guard page below each. *)
          let rec pairs = function
            | [] -> ()
            | (a, la) :: rest ->
                List.iter
                  (fun (b, lb) ->
                    let a0 = a - 4096 and a1 = a + la in
                    let b0 = b - 4096 and b1 = b + lb in
                    if a0 < b1 && b0 < a1 then ok := false)
                  rest;
                pairs rest
          in
          pairs !live)
        ops;
      !ok)

let () =
  Alcotest.run "models"
    [
      ( "store",
        [
          QCheck_alcotest.to_alcotest store_lru_model;
          QCheck_alcotest.to_alcotest eviction_order_model;
        ] );
      ("netsim", [ QCheck_alcotest.to_alcotest netsim_fifo_model ]);
      ("sched", [ QCheck_alcotest.to_alcotest sched_clock_monotone ]);
      ("vmem", [ QCheck_alcotest.to_alcotest mmap_disjointness_model ]);
    ]
