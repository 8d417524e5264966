(* Direct calls into single layers, timed from the benchmark: host
   nanoseconds per call (the best of several batches, to damp host
   noise) and, where the call charges any, virtual cycles per call.
   They cover only calls that the Bechamel micro-benchmarks of
   bench/micro.ml do not (vmem loads and blits, tlsf malloc+free and
   store.get are timed there). *)

module Sched = Simkern.Sched
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api

type result = { cycles : float; host_ns : float; calls : int }

let batches = 5

(* [setup space sched time] prepares a layer inside a fresh simulation's
   only thread and calls [time op] where [op] may run; [time] runs one
   warm-up call, then [batches] batches of [n] calls. *)
let probe n setup =
  let space = Space.create ~size_mib:16 () in
  let sched = Sched.create () in
  let out = ref None in
  let time op =
    op ();
    let best = ref infinity and cycles = ref 0.0 in
    for _ = 1 to batches do
      let c0 = Sched.now () and t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        op ()
      done;
      best := Float.min !best (Unix.gettimeofday () -. t0);
      cycles := Sched.now () -. c0
    done;
    let per x = x /. float_of_int n in
    out :=
      Some
        {
          cycles = per !cycles;
          host_ns = per (!best *. 1e9);
          calls = n * batches;
        }
  in
  let tid =
    Sched.spawn sched ~name:"probe" (fun () -> setup space sched time)
  in
  Sched.run sched;
  match (!out, Sched.outcome sched tid) with
  | Some r, _ -> r
  | None, Some (Sched.Failed e) -> raise e
  | None, _ -> failwith "probe did not time its operation"

let region space len = Space.mmap space ~len ~prot:Prot.rw ~pkey:0

let yield () = probe 20_000 (fun _ _ time -> time Sched.yield)

let spawn_join () =
  probe 5_000 (fun _ sched time ->
      time (fun () -> Sched.join (Sched.spawn sched ignore)))

let enter_exit () =
  probe 5_000 (fun space _ time ->
      let sd = Api.create space in
      let udi = 0x7FFF_FC00 in
      Api.run sd ~udi
        ~on_rewind:(fun _ -> assert false)
        (fun () ->
          time (fun () ->
              Api.enter sd udi;
              Api.exit_domain sd);
          Api.destroy sd udi ~heap:`Discard))

let flight_event () =
  probe 20_000 (fun space _ time ->
      let sd = Api.create space in
      time (fun () ->
          Api.flight_event sd ~udi:Sdrad.Types.root_udi
            Checkpoint.Flight.Admit))

let send_recv_1k () =
  probe 20_000 (fun _ _ time ->
      let net = Netsim.create Simkern.Cost.default in
      let listener = Netsim.listen net ~port:1 in
      let client = Netsim.connect net ~port:1 in
      let server = Option.get (Netsim.accept listener) in
      let msg = String.make 1024 'm' in
      time (fun () ->
          Netsim.send client msg;
          ignore (Netsim.recv server)))

(* Request line plus headers: the parser-domain work of one request. *)
let parse () =
  probe 20_000 (fun space _ time ->
      let req = Workload.Http_load.request ~path:"/s.bin" in
      let len = String.length req in
      let addr = region space 4096 in
      Space.store_string space addr req;
      time (fun () ->
          let _, hdr = Httpd.Http_parse.parse_request_line space ~addr ~len in
          ignore
            (Httpd.Http_parse.parse_headers space ~addr:hdr
               ~len:(len - (hdr - addr)))))

let route () =
  probe 200_000 (fun _ _ time ->
      let ring = Cluster.Hash_ring.create () in
      List.iter (Cluster.Hash_ring.add ring) [ 0; 1; 2; 3 ];
      time (fun () -> ignore (Cluster.Hash_ring.route ring "user00001234")))

(* Each probe under the name prefix of the layer metrics it yields. *)
let all =
  [
    ("simkern.yield", yield);
    ("simkern.spawn_join", spawn_join);
    ("core.enter_exit", enter_exit);
    ("checkpoint.flight_event", flight_event);
    ("netsim.send_recv_1k", send_recv_1k);
    ("httpd.parse", parse);
    ("cluster.route", route);
  ]
