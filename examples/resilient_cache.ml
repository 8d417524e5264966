(* The Memcached case study (§V-A) as a runnable demo: a key-value cache
   is attacked with the CVE-2011-4971 analogue while serving clients.
   Run it twice — once unprotected, once with SDRaD — and compare.

     dune exec examples/resilient_cache.exe *)

module Server = Kvcache.Server
module Proto = Kvcache.Proto

let scenario ~variant ~label =
  Printf.printf "\n--- %s ---\n" label;
  let w =
    Scenario.world ~size_mib:128 ?monitor:(Scenario.monitor_for variant) ()
  in
  let net = w.net in
  let cfg = { Server.default_config with variant; vulnerable = true; workers = 2 } in
  (* The server starts in the harness thread, runs the script below, and
     is stopped unless it crashed. *)
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           (* A well-behaved client stores some session state. *)
           let client = Netsim.connect net ~port:11211 in
           let ask req = Netsim.send client req; Netsim.recv client in
           ignore (ask (Proto.fmt_set ~key:"session:42" ~flags:0 ~value:"logged-in"));
           Printf.printf "client stored session state\n";
           (* The attacker sends a set with a negative length field. *)
           let evil = Netsim.connect net ~port:11211 in
           Netsim.send evil
             (Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                ~value:(String.make 512 'A'));
           (match Netsim.recv evil with
           | None -> Printf.printf "attacker: connection closed by server\n"
           | Some r -> Printf.printf "attacker got: %s" r);
           (* Does the well-behaved client still have its session? *)
           (match ask (Proto.fmt_get "session:42") with
           | Some r when Proto.parse_reply r = Proto.Value "logged-in" ->
               Printf.printf "client: session intact, service uninterrupted\n"
           | Some r -> Printf.printf "client got unexpected reply: %s" r
           | None ->
               Printf.printf
                 "client: CONNECTION DEAD — the whole cache went down with all \
                  its contents\n");
           Netsim.close client))
  in
  Printf.printf "server crashed: %b | rewinds: %d | dropped connections: %d\n"
    (Server.crashed s) (Server.rewinds s)
    (Server.dropped_connections s);
  (match Server.rewind_latencies s with
  | l :: _ ->
      Printf.printf "recovery latency: %.1f us (restarting and reloading the \
                     cache would take minutes)\n"
        (Simkern.Cost.us_of_cycles Simkern.Cost.default l)
  | [] -> ())

let () =
  print_endline "Rewind & Discard demo: Memcached under CVE-2011-4971";
  scenario ~variant:Server.Baseline ~label:"unprotected build";
  scenario ~variant:Server.Sdrad ~label:"SDRaD build (each event in a nested domain)"
