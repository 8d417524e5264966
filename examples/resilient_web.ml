(* The NGINX case study (§V-B): a web server's HTTP parser is attacked
   with the CVE-2009-2629 analogue (URI "../" underflow). Unprotected,
   the worker process dies and takes every connection it was serving with
   it; with SDRaD, only the attacker's connection closes.

     dune exec examples/resilient_web.exe *)

module Sched = Simkern.Sched
module Server = Httpd.Server
module Load = Workload.Http_load

let scenario ~variant ~label =
  Printf.printf "\n--- %s ---\n" label;
  let w =
    Scenario.world ~size_mib:128 ?monitor:(Scenario.monitor_for variant) ()
  in
  let net = w.net in
  let fs = Httpd.Fs.create w.space in
  Httpd.Fs.add fs ~path:"/index.html" ~size:2048;
  let cfg = { Server.default_config with variant; vulnerable = true; workers = 1 } in
  let { Scenario.server = s; _ } =
    Scenario.httpd w ~files:(Fun.const fs) cfg
      (Script
         (fun _ ->
           (* Ten keep-alive clients are browsing. *)
           let clients = List.init 10 (fun _ -> Netsim.connect net ~port:8080) in
           List.iter
             (fun c ->
               Netsim.send c (Load.request ~path:"/index.html");
               ignore (Netsim.recv c))
             clients;
           Printf.printf "10 clients served over keep-alive connections\n";
           (* The attack. *)
           let evil = Netsim.connect net ~port:8080 in
           Netsim.send evil (Load.request ~path:"/a/../../../etc/passwd");
           (match Netsim.recv evil with
           | None -> Printf.printf "attacker: connection closed\n"
           | Some r -> Printf.printf "attacker got: %s\n" (String.sub r 0 12));
           (* How many of the browsing clients survived? *)
           Sched.sleep 5.0e6;
           let survivors =
             List.length
               (List.filter
                  (fun c ->
                    Netsim.send c (Load.request ~path:"/index.html");
                    match Netsim.recv c with
                    | Some r -> Load.is_200 r
                    | None -> false)
                  clients)
           in
           Printf.printf "clients whose connection survived the attack: %d/10\n"
             survivors;
           List.iter Netsim.close clients))
  in
  Printf.printf "worker restarts: %d | rewinds: %d\n" (Server.worker_restarts s)
    (Server.rewinds s)

let () =
  print_endline "Rewind & Discard demo: NGINX under CVE-2009-2629";
  scenario ~variant:Server.Baseline ~label:"unprotected build (worker crash + restart)";
  scenario ~variant:Server.Sdrad ~label:"SDRaD build (parser in a nested domain)"
