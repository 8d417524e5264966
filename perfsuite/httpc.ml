(* Mixed-size HTTP load owned by the benchmark. [Workload.Http_load]
   serves one path and records no latencies; this client draws each
   request's document from a seeded stream, times every request, and
   checks every reply byte for byte against the published document.

   Each connection is a closed loop over one keep-alive connection: it
   sends its next request only after the previous reply arrived. *)

module Sched = Simkern.Sched
module Rng = Simkern.Rng

type doc = { path : string; body : string }

type results = {
  latencies : float array;  (* one per request, cycles, incl. client work *)
  failed : int;  (* requests whose connection closed without a reply *)
  bad : int;  (* replies that were not a 200 carrying the exact body *)
  run_cycles : float;
}

(* Offset of the "\r\n\r\n" that ends the header, found without
   allocating: the check runs inside the measured run. *)
let header_end s =
  let rec go i =
    if i + 3 >= String.length s then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let content_length head =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i))
             = "content-length" ->
          int_of_string_opt
            (String.trim
               (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' head)

(* A reply is intact when it is a 200 whose Content-Length and body are
   exactly the document's. *)
let intact doc reply =
  Workload.Http_load.is_200 reply
  &&
  match header_end reply with
  | None -> false
  | Some h ->
      let len = String.length doc.body in
      content_length (String.sub reply 0 h) = Some len
      && String.length reply - h - 4 = len
      && String.ends_with ~suffix:doc.body reply

(* [mix] pairs each document with its share of requests (shares sum to
   1). [requests] is split evenly over [connections]. *)
let launch sched net ~port ~connections ~requests ~mix ~seed ~client_cycles
    ~on_done () =
  let per = requests / connections in
  let samples = Array.make connections [] in
  let failed = ref 0 and bad = ref 0 in
  let pick rng =
    let u = Rng.float rng in
    let rec go acc = function
      | [ (_, d) ] -> d
      | (share, d) :: rest ->
          if u < acc +. share then d else go (acc +. share) rest
      | [] -> invalid_arg "Httpc.launch: empty mix"
    in
    go 0.0 mix
  in
  let client i () =
    let rng = Rng.create (seed + (7919 * i)) in
    let conn = ref (Netsim.connect net ~port) in
    for _ = 1 to per do
      let doc = pick rng in
      let t0 = Sched.now () in
      Sched.charge client_cycles;
      Netsim.send !conn (Workload.Http_load.request ~path:doc.path);
      (match Netsim.recv !conn with
      | Some reply -> if not (intact doc reply) then incr bad
      | None ->
          incr failed;
          Netsim.close !conn;
          conn := Netsim.connect net ~port);
      samples.(i) <- (Sched.now () -. t0) :: samples.(i)
    done;
    Netsim.close !conn
  in
  let results = ref None in
  let orchestrator () =
    let t0 = Sched.now () in
    List.init connections (fun i ->
        Sched.spawn sched ~name:(Printf.sprintf "httpc%d" i) (client i))
    |> List.iter Sched.join;
    let run_cycles = Sched.now () -. t0 in
    on_done ();
    results :=
      Some
        {
          latencies = Array.of_list (List.concat (Array.to_list samples));
          failed = !failed;
          bad = !bad;
          run_cycles;
        }
  in
  ignore (Sched.spawn sched ~name:"httpc-orchestrator" orchestrator);
  fun () ->
    match !results with
    | Some r -> r
    | None -> failwith "Httpc: simulation did not complete"
