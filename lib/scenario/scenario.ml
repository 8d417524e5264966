module Sched = Simkern.Sched
module Space = Vmem.Space

type world = {
  sched : Sched.t;
  space : Space.t;
  net : Netsim.t;
  sd : Sdrad.Api.t option;
  sup : Resilience.Supervisor.t option;
}

let world ?size_mib ?monitor ?supervisor () =
  let space = Space.create ?size_mib () in
  let sd = Option.map (fun f -> f space) monitor in
  let sup =
    match (supervisor, sd) with
    | None, _ -> None
    | Some f, Some sd -> Some (f sd)
    | Some _, None -> invalid_arg "Scenario.world: a supervisor needs a monitor"
  in
  let net = Netsim.create (Space.cost space) in
  { sched = Sched.create (); space; net; sd; sup }

let monitor_for variant =
  if variant = Serve.Sdrad then Some (fun space -> Sdrad.Api.create space)
  else None

type ('s, 'r) driver =
  | Ycsb : Workload.Ycsb.config -> ('s, Workload.Ycsb.results) driver
  | Http_load :
      Workload.Http_load.config
      -> ('s, Workload.Http_load.results) driver
  | Script : ('s -> 'r) -> ('s, 'r) driver

type ('w, 's, 'r) run = { world : 'w; server : 's; result : 'r }

(* The driver runs in the harness thread; its result is read once the
   run has drained. *)
let drive (type r) sched net (driver : (_, r) driver) s ~stop : unit -> r =
  match driver with
  | Ycsb cfg -> Workload.Ycsb.launch sched net cfg ~on_done:stop ()
  | Http_load cfg -> Workload.Http_load.launch sched net cfg ~on_done:stop ()
  | Script f ->
      let r = f s in
      stop ();
      fun () -> r

let harness world sched net ~start ~stop driver =
  let server, result =
    Sched.main ~sched (fun _ ->
        let s = start () in
        (s, drive sched net driver s ~stop:(fun () -> stop s)))
  in
  { world; server; result = result () }

let kvcache ?faults w cfg driver =
  harness w w.sched w.net driver
    ~start:(fun () ->
      Kvcache.Server.start w.sched w.space ?sdrad:w.sd ?supervisor:w.sup
        ?faults w.net cfg)
    ~stop:(fun s -> if not (Kvcache.Server.crashed s) then Kvcache.Server.stop s)

let httpd ?faults w ~files cfg driver =
  harness w w.sched w.net driver
    ~start:(fun () ->
      let fs = files () in
      Httpd.Server.start w.sched w.space ?sdrad:w.sd ?supervisor:w.sup
        ?faults w.net ~fs cfg)
    ~stop:Httpd.Server.stop

type fleet_world = { fleet_sched : Sched.t; fleet_net : Netsim.t }

let fleet_world () =
  {
    fleet_sched = Sched.create ();
    fleet_net = Netsim.create Simkern.Cost.default;
  }

let fleet ?faults w cfg driver =
  harness w w.fleet_sched w.fleet_net driver
    ~start:(fun () -> Cluster.Fleet.start w.fleet_sched ?faults w.fleet_net cfg)
    ~stop:Cluster.Fleet.stop

type switch_anatomy = {
  rows : (string * float) list;
  pair : float;
  writes : float;
  elided : float;
}

(* Every warm pair is identical in the simulation, so the count only
   has to be large enough to show that. *)
let anatomy_pairs = 512

let switch_anatomy () =
  let tracer = Telemetry.Trace.create ~capacity:(16 * anatomy_pairs) () in
  let space = Space.create ~size_mib:32 () in
  let udi = 0x7FFF_FE00 in
  let cycles, writes, elided =
    Sched.main (fun _ ->
        let sd = Sdrad.Api.create ~tracer space in
        Sdrad.Api.run sd ~udi
          ~on_rewind:(fun _ -> assert false)
          (fun () ->
            (* A warm-up pair first, and only then the tracer, so
               first-touch page faults and the init brackets stay out of
               the rows. *)
            Sdrad.Api.enter sd udi;
            Sdrad.Api.exit_domain sd;
            let w0 = Space.wrpkru_writes space
            and e0 = Space.pkru_elided space
            and t0 = Sched.now () in
            Telemetry.Trace.set_enabled tracer true;
            for _ = 1 to anatomy_pairs do
              Sdrad.Api.enter sd udi;
              Sdrad.Api.exit_domain sd
            done;
            Telemetry.Trace.set_enabled tracer false;
            ( Sched.now () -. t0,
              Space.wrpkru_writes space - w0,
              Space.pkru_elided space - e0 )))
  in
  if Telemetry.Trace.dropped tracer > 0 then
    failwith "Scenario.switch_anatomy: the span ring wrapped";
  let n = float_of_int anatomy_pairs in
  let agg = Telemetry.Trace.aggregate tracer in
  let per_pair name =
    match List.assoc_opt name agg with Some (_, c) -> c /. n | None -> 0.0
  in
  let steps =
    List.map
      (fun name -> (name, per_pair name))
      [ "switch.pkru_write"; "switch.stack_swap"; "switch.bookkeeping" ]
  in
  (* The steps are the gate spans' only children. *)
  let gate_self =
    List.fold_left
      (fun self (_, c) -> self -. c)
      (per_pair "switch.enter" +. per_pair "switch.exit")
      steps
  in
  {
    rows = steps @ [ ("switch.enter+exit self", gate_self) ];
    pair = cycles /. n;
    writes = float_of_int writes /. n;
    elided = float_of_int elided /. n;
  }
