module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Retry = Resilience.Retry

type distribution = Zipfian | Uniform | Latest

type config = {
  records : int;
  value_size : int;
  read_fraction : float;
  operations : int;
  clients : int;
  distribution : distribution;
  insert_new : bool;
  zipf_theta : float;
  port : int;
  seed : int;
  client_cycles : float;
  retry : Retry.policy option;
  arrival_interval : float;
}

let default_config =
  {
    records = 2_000;
    value_size = 1024;
    read_fraction = 0.95;
    operations = 10_000;
    clients = 16;
    distribution = Zipfian;
    insert_new = false;
    zipf_theta = 0.99;
    port = 11211;
    seed = 42;
    client_cycles = 2_000.0;
    retry = None;
    arrival_interval = 0.0;
  }

let workload_a = { default_config with read_fraction = 0.5 }
let workload_b = default_config
let workload_c = { default_config with read_fraction = 1.0 }

let workload_d =
  { default_config with distribution = Latest; insert_new = true }

type results = {
  load_ops : int;
  load_cycles : float;
  run_ops : int;
  run_cycles : float;
  failures : int;
  retries : int;
  run_latencies : float list;
}

let key_of i = Printf.sprintf "user%08d" i

(* One deterministic value body per config; per-key uniqueness comes from
   a stamped prefix, so we avoid generating megabytes of random data. *)
let value_for ~base ~value_size i =
  let stamp = Printf.sprintf "<%08d>" i in
  if value_size <= String.length stamp then String.sub stamp 0 value_size
  else stamp ^ String.sub base 0 (value_size - String.length stamp)

let request c req =
  Netsim.send c req;
  Netsim.recv c

let launch sched net cfg ~on_done () =
  let results = ref None in
  let failures = ref 0 in
  let fail_lock = Sched.Mutex.create () in
  let bump_failures () =
    Sched.Mutex.with_lock fail_lock (fun () -> incr failures)
  in
  let base_rng = Rng.create cfg.seed in
  let base_value = Bytes.to_string (Rng.bytes base_rng (max 16 cfg.value_size)) in
  let retry_total = ref 0 in
  (* Per-client I/O helpers: a reconnecting connection and, when a retry
     policy is configured, a request path with per-attempt deadlines —
     without one, a reply the fault hook dropped would block the client
     forever. [mk_req] builds the wire request from the attempt's
     idempotency key so every retry of one logical op reuses the same
     rid. *)
  let client_io ~name ~salt i =
    (* The connection is made lazily, on first use: a fleet of 10⁴
       clients connecting the instant the run phase opens would herd
       every setup into one burst, and the requests already sent behind
       that burst age out before any server worker sees the connection.
       Deferring to first issue spreads setup across the arrival grid. *)
    let conn = ref None in
    let eng =
      Option.map
        (fun policy ->
          Retry.create policy
            ~rng:(Rng.create (cfg.seed + (salt * i) + 13))
            ~name:(Printf.sprintf "%s%d" name i))
        cfg.retry
    in
    let live () =
      match !conn with
      | Some c when Netsim.is_open c && not (Netsim.peer_closed c) -> c
      | prev ->
          Option.iter Netsim.close prev;
          let c = Netsim.connect net ~port:cfg.port in
          conn := Some c;
          c
    in
    let issue mk_req =
      match eng with
      | None -> request (live ()) (mk_req ~rid:None ~trace:0L)
      | Some eng -> (
          match
            Retry.execute_ctx eng (fun ~ctx ~rid ~attempt:_ ~deadline ->
                let c = live () in
                Netsim.send c
                  (mk_req ~rid:(Some rid)
                     ~trace:(Telemetry.Context.trace ctx));
                match Netsim.recv_deadline c ~deadline with
                | Some r when r = Kvcache.Proto.server_error_busy ->
                    Error (`Retry "busy")
                | Some r -> Ok r
                | None ->
                    (* Timed out: the reply may still be in flight, and a
                       request/response stream cannot resynchronize once a
                       response is unaccounted for — abandon the
                       connection so a stale reply can never be taken for
                       a later operation's answer. *)
                    Netsim.close c;
                    Error (`Retry "timeout"))
          with
          | Ok r -> Some r
          | Error _ -> None)
    in
    let finish () =
      (match eng with
      | Some e ->
          Sched.Mutex.with_lock fail_lock (fun () ->
              retry_total := !retry_total + Retry.retries e)
      | None -> ());
      Option.iter Netsim.close !conn
    in
    (issue, finish, eng <> None)
  in
  let load_client i () =
    let per = cfg.records / cfg.clients in
    let lo = i * per in
    let hi = if i = cfg.clients - 1 then cfg.records else lo + per in
    let issue, finish, retrying = client_io ~name:"yl" ~salt:9000 i in
    let rec go k =
      if k < hi then begin
        Sched.charge cfg.client_cycles;
        let value = value_for ~base:base_value ~value_size:cfg.value_size k in
        (* Loads are idempotent (same key, same value), so no rid; the
           trace token still links retried loads to their op. *)
        let req ~rid:_ ~trace =
          Kvcache.Proto.fmt_storage "set" ~trace ~key:(key_of k) ~flags:0
            ~value ()
        in
        match issue req with
        | Some r when Kvcache.Proto.parse_reply r = Kvcache.Proto.Stored ->
            go (k + 1)
        | Some _ | None ->
            bump_failures ();
            if retrying then go (k + 1)
      end
    in
    go lo;
    finish ()
  in
  let latencies : float list ref array = Array.init cfg.clients (fun _ -> ref []) in
  (* Highest key inserted so far, shared between clients (workload D). *)
  let key_count = ref cfg.records in
  let key_lock = Sched.Mutex.create () in
  (* Open-loop mode: the run phase's arrivals are pre-scheduled on a
     fleet-wide grid (client [i]'s op [k] fires at
     [run_start + interval * (k * clients + i)]), and latency is measured
     from the {e scheduled} arrival — a late reply delays nothing and
     hides nothing (no coordinated omission), which is what makes p99
     honest when a shard is draining. *)
  let run_start = ref 0.0 in
  let run_client i () =
    let rng = Rng.create (cfg.seed + (1000 * i) + 7) in
    (* Built on first use: its set-up is O(records), and uniform clients
       never draw from it. Creation draws no random numbers, so forcing
       it late leaves the key sequence unchanged. *)
    let zipf = lazy (Zipf.create rng ~n:cfg.records ~theta:cfg.zipf_theta) in
    let pick () =
      match cfg.distribution with
      | Zipfian -> Zipf.next (Lazy.force zipf)
      | Uniform -> Rng.int rng cfg.records
      | Latest ->
          (* The most popular record is the most recent one. *)
          let n = !key_count in
          max 0 (n - 1 - Zipf.next (Lazy.force zipf))
    in
    let fresh_key () =
      Sched.Mutex.with_lock key_lock (fun () ->
          let k = !key_count in
          key_count := k + 1;
          k)
    in
    let per = cfg.operations / cfg.clients in
    let issue, finish, retrying = client_io ~name:"y" ~salt:5000 i in
    let samples = latencies.(i) in
    let rec go k =
      if k < per then begin
        let t0 =
          if cfg.arrival_interval > 0.0 then begin
            let slot =
              !run_start
              +. (cfg.arrival_interval
                 *. float_of_int ((k * cfg.clients) + i))
            in
            let now = Sched.now () in
            if slot > now then Sched.sleep (slot -. now);
            slot
          end
          else Sched.now ()
        in
        Sched.charge cfg.client_cycles;
        let reply =
          if Rng.float rng < cfg.read_fraction then
            let key = key_of (pick ()) in
            issue (fun ~rid:_ ~trace -> Kvcache.Proto.fmt_get ~trace key)
          else
            let target = if cfg.insert_new then fresh_key () else pick () in
            let key = key_of target in
            let value =
              value_for ~base:base_value ~value_size:cfg.value_size target
            in
            issue (fun ~rid ~trace ->
                Kvcache.Proto.fmt_storage "set" ?rid ~trace ~key ~flags:0
                  ~value ())
        in
        samples := (Sched.now () -. t0) :: !samples;
        match reply with
        | Some r -> (
            match Kvcache.Proto.parse_reply r with
            | Kvcache.Proto.Failed _ ->
                bump_failures ();
                go (k + 1)
            | _ -> go (k + 1))
        | None ->
            bump_failures ();
            if retrying then go (k + 1)
      end
    in
    go 0;
    finish ()
  in
  let orchestrator () =
    let t_start = Sched.now () in
    let spawn_phase mk =
      let tids =
        List.init cfg.clients (fun i ->
            Sched.spawn sched ~name:(Printf.sprintf "ycsb%d" i) (mk i))
      in
      List.iter Sched.join tids
    in
    spawn_phase load_client;
    let t_load = Sched.now () in
    run_start := t_load;
    spawn_phase run_client;
    let t_all = Sched.now () in
    on_done ();
    results :=
      Some
        {
          load_ops = cfg.records;
          load_cycles = t_load -. t_start;
          run_ops = cfg.operations;
          run_cycles = t_all -. t_load;
          failures = !failures;
          retries = !retry_total;
          run_latencies =
            Array.fold_left (fun acc r -> List.rev_append !r acc) [] latencies;
        }
  in
  let _ = Sched.spawn sched ~name:"ycsb-orchestrator" orchestrator in
  fun () ->
    match !results with
    | Some r -> r
    | None -> failwith "Ycsb: simulation did not complete"
