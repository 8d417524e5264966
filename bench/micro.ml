(* Bechamel wall-clock micro-benchmarks of the simulator's hot paths —
   these measure the OCaml implementation itself (how fast the simulated
   hardware runs on the host), complementing the virtual-time experiment
   tables. The suite runs inside one simulated thread, so every
   operation pays the clock charges and reads the PKRU slot it does in a
   run. *)

open Bechamel
open Toolkit
module Space = Vmem.Space
module Prot = Vmem.Prot

let space = lazy (Space.create ~size_mib:32 ())

let region =
  lazy
    (let s = Lazy.force space in
     Space.mmap s ~len:(1024 * 1024) ~prot:Prot.rw ~pkey:0)

let heap =
  lazy
    (let s = Lazy.force space in
     let h = Tlsf.create s ~name:"bench" in
     let r = Space.mmap s ~len:(4 * 1024 * 1024) ~prot:Prot.rw ~pkey:0 in
     Tlsf.add_region h ~addr:r ~len:(4 * 1024 * 1024);
     h)

let gcm_key = String.make 32 'k'
let gcm_iv = String.make 12 'i'

let filesystem =
  lazy
    (let s = Lazy.force space in
     let fs = Vfs.format s ~blocks:256 () in
     Vfs.create fs ~path:"/bench.bin" ~data:(String.make 8192 'f');
     fs)

let kv =
  lazy
    (let s = Lazy.force space in
     let slab =
       Kvcache.Slab.create s ~alloc_page:(fun len ->
           Space.mmap s ~len ~prot:Prot.rw ~pkey:0)
     in
     let db =
       Kvcache.Store.create s ~buckets:1024 ~slab
         ~alloc_table:(fun len -> Space.mmap s ~len ~prot:Prot.rw ~pkey:0)
         ~free_table:(Space.munmap s)
     in
     let buf = Space.mmap s ~len:4096 ~prot:Prot.rw ~pkey:0 in
     Space.store_string s buf (String.make 1024 'v');
     for i = 0 to 99 do
       ignore
         (Kvcache.Store.set db ~key:(Printf.sprintf "bench%02d" i) ~flags:0
            ~value_src:buf ~value_len:1024)
     done;
     db)

(* One warm persistent-domain request through the monitor's gates: init
   (the rewind point), the cached marshalling buffer, enter, exit,
   deinit. *)
let request_gates =
  lazy
    (let sd = Sdrad.Api.create (Space.create ~size_mib:8 ()) in
     let udi = 1 in
     let on_rewind _ = () in
     let body () =
       ignore (Sdrad.Api.gate_buffer sd ~udi 256);
       Sdrad.Api.enter sd udi;
       Sdrad.Api.exit_domain sd;
       Sdrad.Api.deinit sd udi
     in
     fun () -> Sdrad.Api.run sd ~udi ~on_rewind body)

(* A rewind and the next domain's first allocation, in the shape of
   [test_sdrad]'s "rewind host allocation" pin: each run initializes the
   domain afresh, enters it, allocates (which gives the new instance its
   heap) and faults on a stray store into page 0. *)
let rewind_cycle =
  lazy
    (let space = Space.create ~size_mib:8 () in
     let sd = Sdrad.Api.create space in
     let udi = 1 in
     let on_rewind _ = () in
     let body () =
       Sdrad.Api.enter sd udi;
       ignore (Sdrad.Api.malloc sd ~udi 64);
       Space.store64 space 64 0x41414141
     in
     fun () -> Sdrad.Api.run sd ~udi ~on_rewind body)

let tests =
  Test.make_grouped ~name:"simulator" ~fmt:"%s %s"
    [
      Test.make ~name:"space.load64"
        (Staged.stage (fun () ->
             let s = Lazy.force space and r = Lazy.force region in
             Space.load64 s r));
      Test.make ~name:"space.store64"
        (Staged.stage (fun () ->
             let s = Lazy.force space and r = Lazy.force region in
             Space.store64 s r 42));
      Test.make ~name:"space.blit-1KiB"
        (Staged.stage (fun () ->
             let s = Lazy.force space and r = Lazy.force region in
             Space.blit s ~src:r ~dst:(r + 8192) ~len:1024));
      Test.make ~name:"tlsf.malloc+free-256B"
        (Staged.stage (fun () ->
             let h = Lazy.force heap in
             let p = Tlsf.malloc h 256 in
             Tlsf.free h p));
      Test.make ~name:"aes256gcm.16B-block"
        (Staged.stage
           (let ctx = Crypto.Gcm.init ~key:gcm_key ~iv:gcm_iv in
            fun () -> ignore (Crypto.Gcm.encrypt ctx "0123456789abcdef")));
      Test.make ~name:"vfs.read-8KiB-file"
        (Staged.stage (fun () ->
             ignore (Vfs.read_all (Lazy.force filesystem) "/bench.bin")));
      Test.make ~name:"store.get-1KiB-item"
        (Staged.stage (fun () ->
             ignore (Kvcache.Store.get (Lazy.force kv) "bench42")));
      Test.make ~name:"sdrad.request-gates"
        (Staged.stage (fun () -> (Lazy.force request_gates) ()));
      Test.make ~name:"sdrad.rewind-cycle"
        (Staged.stage (fun () -> (Lazy.force rewind_cycle) ()));
    ]

let run () =
  Harness.section "Bechamel micro-benchmarks (host wall-clock, ns/op)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw =
    Simkern.Sched.main (fun _ -> Benchmark.all cfg instances tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] -> rows := [ name; Printf.sprintf "%.1f ns" t ] :: !rows
      | _ -> ())
    results;
  Harness.table ~header:[ "operation"; "time/op" ]
    (List.sort compare !rows)
