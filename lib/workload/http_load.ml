module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Retry = Resilience.Retry

type config = {
  connections : int;
  requests_per_conn : int;
  path : string;
  port : int;
  client_cycles : float;
  retry : Retry.policy option;
  seed : int;
  arrival_interval : float;
}

let default_config =
  {
    connections = 75;
    requests_per_conn = 40;
    path = "/index.html";
    port = 8080;
    client_cycles = 1_500.0;
    retry = None;
    seed = 7;
    arrival_interval = 0.0;
  }

type results = { ok : int; failures : int; retries : int; cycles : float }

let request_tail =
  " HTTP/1.1\r\nHost: bench.local\r\nUser-Agent: simbench/1.0\r\n\r\n"

(* [GET <path><request_tail>], written in one buffer. *)
let request ~path =
  let p = String.length path and n = String.length request_tail in
  let b = Bytes.create (4 + p + n) in
  Bytes.blit_string "GET " 0 b 0 4;
  Bytes.blit_string path 0 b 4 p;
  Bytes.blit_string request_tail 0 b (4 + p) n;
  Bytes.unsafe_to_string b

let request_with_headers ~path headers =
  let hdrs =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench.local\r\n%s\r\n" path hdrs

(* The three-digit status code of [HTTP/1.x <code> ...], compared in
   place. *)
let status_is reply code =
  String.length reply >= 12
  && reply.[9] = code.[0]
  && reply.[10] = code.[1]
  && reply.[11] = code.[2]

let is_200 reply = status_is reply "200"

let launch sched net cfg ~on_done () =
  let results = ref None in
  let ok = ref 0 and failures = ref 0 and retry_total = ref 0 in
  let lock = Sched.Mutex.create () in
  let client i () =
    let conn = ref (Netsim.connect net ~port:cfg.port) in
    let retry_eng =
      Option.map
        (fun policy ->
          Retry.create policy
            ~rng:(Rng.create (cfg.seed + (900 * i) + 3))
            ~name:(Printf.sprintf "ab%d" i))
        cfg.retry
    in
    let live () =
      let c = !conn in
      if Netsim.is_open c && not (Netsim.peer_closed c) then c
      else begin
        Netsim.close c;
        conn := Netsim.connect net ~port:cfg.port;
        !conn
      end
    in
    let plain_req = request ~path:cfg.path in
    let reply = Netsim.Buf.create () in
    let replied code =
      Netsim.Buf.length reply >= 12 && status_is (Netsim.Buf.view reply) code
    in
    let attempt eng =
      let c = live () in
      Netsim.send c
        (request_with_headers ~path:cfg.path
           [
             ("X-Request-Id", Retry.rid eng);
             ("Traceparent", Telemetry.Context.to_traceparent (Retry.context eng));
           ]);
      if not (Netsim.recv_buf_deadline c reply (Retry.deadline_slot eng) 0)
      then begin
        (* Timed out: close so a late reply cannot be mistaken for a
           later request's answer. *)
        Netsim.close c;
        Error (`Retry "timeout")
      end
      else if replied "503" then Error (`Retry "503")
      else Ok ()
    in
    (* Whether a reply arrived, in [reply]. *)
    let issue () =
      match retry_eng with
      | None ->
          Netsim.send !conn plain_req;
          Netsim.recv_buf !conn reply
          || begin
               (* Dropped (e.g. worker crash): reconnect for next request. *)
               conn := Netsim.connect net ~port:cfg.port;
               false
             end
      | Some eng -> Result.is_ok (Retry.execute eng attempt)
    in
    for k = 1 to cfg.requests_per_conn do
      (* Open-loop: requests fire on a fleet-wide pre-scheduled grid
         instead of back-to-back (see {!Ycsb} for the rationale). *)
      if cfg.arrival_interval > 0.0 then begin
        let slot =
          cfg.arrival_interval
          *. float_of_int (((k - 1) * cfg.connections) + i)
        in
        let now = Sched.now () in
        if slot > now then Sched.sleep (slot -. now)
      end;
      Sched.charge cfg.client_cycles;
      if issue () && replied "200" then
        Sched.Mutex.with_lock lock (fun () -> incr ok)
      else Sched.Mutex.with_lock lock (fun () -> incr failures)
    done;
    (match retry_eng with
    | Some eng ->
        Sched.Mutex.with_lock lock (fun () ->
            retry_total := !retry_total + Retry.retries eng)
    | None -> ());
    Netsim.close !conn
  in
  let orchestrator () =
    let tids =
      List.init cfg.connections (fun i ->
          Sched.spawn sched ~name:(Printf.sprintf "ab%d" i) (client i))
    in
    List.iter Sched.join tids;
    let cycles = Sched.now () in
    on_done ();
    results :=
      Some { ok = !ok; failures = !failures; retries = !retry_total; cycles }
  in
  let _ = Sched.spawn sched ~name:"ab-orchestrator" orchestrator in
  fun () ->
    match !results with
    | Some r -> r
    | None -> failwith "Http_load: simulation did not complete"
