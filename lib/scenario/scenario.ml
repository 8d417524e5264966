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
