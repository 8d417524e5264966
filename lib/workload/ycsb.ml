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

(* [i] as [%08d] at [off] of [b]; the width written. *)
let put_08d b off i =
  let w = Int.max 8 (Serve.dec_width i) in
  Bytes.fill b off w '0';
  Serve.put_dec b ~stop:(off + w) i;
  if i < 0 then begin
    (* The sign goes before the padding, not before the digits. *)
    Bytes.set b (off + w - Serve.dec_width i) '0';
    Bytes.set b off '-'
  end;
  w

let key_width i = 4 + Int.max 8 (Serve.dec_width i)

(* [user%08d] at [off] of [b]. *)
let put_key b off i =
  Bytes.blit_string "user" 0 b off 4;
  ignore (put_08d b (off + 4) i)

let key_of i =
  let b = Bytes.create (key_width i) in
  put_key b 0 i;
  Bytes.unsafe_to_string b

let stamp_width i = 2 + Int.max 8 (Serve.dec_width i)

(* One deterministic value body per config; per-key uniqueness comes from
   a stamped prefix ([<%08d>]), so we avoid generating megabytes of
   random data. [put_value] writes the stamp at [off] of [b], then the
   head of [base] up to [off + value_size]; [b] has room for the whole
   stamp. *)
let put_value b off ~base ~value_size i =
  let w = stamp_width i in
  Bytes.set b off '<';
  ignore (put_08d b (off + 1) i);
  Bytes.set b (off + w - 1) '>';
  if value_size > w then Bytes.blit_string base 0 b (off + w) (value_size - w)

let value_for ~base ~value_size i =
  let b = Bytes.create (Int.max (stamp_width i) value_size) in
  put_value b 0 ~base ~value_size i;
  if value_size < Bytes.length b then Bytes.sub_string b 0 value_size
  else Bytes.unsafe_to_string b

(* {1 Request lines in the client's buffer}

   The bytes [Kvcache.Proto.fmt_get] and [fmt_storage "set"] would
   make, key and value included, written straight into the buffer. *)

let add_key buf i =
  let off = Netsim.Buf.reserve buf (key_width i) in
  put_key (Netsim.Buf.bytes buf) off i

(* A value shorter than its stamp is a truncated stamp. *)
let add_value buf ~base ~value_size i =
  if value_size < stamp_width i then
    Netsim.Buf.add_string buf (value_for ~base ~value_size i)
  else begin
    let off = Netsim.Buf.reserve buf value_size in
    put_value (Netsim.Buf.bytes buf) off ~base ~value_size i
  end

(* A [get] of record [k], or a [set] of its value — a load's carries no
   rid, an update's carries the attempt's: the first [rid_len] bytes of
   [rid]. *)
let write_request b ~op ~base ~value_size k ~rid ~rid_len ~trace =
  Netsim.Buf.clear b;
  match op with
  | `Get ->
      Netsim.Buf.add_string b "get ";
      add_key b k;
      Kvcache.Proto.add_tokens b ~rid ~rid_len:0 ~trace;
      Netsim.Buf.add_string b "\r\n"
  | (`Load | `Update) as op ->
      Netsim.Buf.add_string b "set ";
      add_key b k;
      Netsim.Buf.add_string b " 0 0 ";
      let w = Serve.dec_width value_size in
      let off = Netsim.Buf.reserve b w in
      Serve.put_dec (Netsim.Buf.bytes b) ~stop:(off + w) value_size;
      Kvcache.Proto.add_tokens b ~rid
        ~rid_len:(match op with `Load -> 0 | `Update -> rid_len)
        ~trace;
      Netsim.Buf.add_string b "\r\n";
      add_value b ~base ~value_size k;
      Netsim.Buf.add_string b "\r\n"

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
  (* Per-client I/O helpers: a reconnecting connection, the buffer every
     request is written into and its reply received into, and, when a
     retry policy is configured, a request path with per-attempt
     deadlines — without one, a reply the fault hook dropped would block
     the client forever. Every retry of one logical op reuses its
     idempotency key. *)
  let client_io ~name ~salt i =
    (* The connection is made lazily, on first use: a fleet of 10⁴
       clients connecting the instant the run phase opens would herd
       every setup into one burst, and the requests already sent behind
       that burst age out before any server worker sees the connection.
       Deferring to first issue spreads setup across the arrival grid. *)
    let conn = ref None in
    let buf = Netsim.Buf.create () in
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
    let write ~op k ~rid ~rid_len ~trace =
      write_request buf ~op ~base:base_value ~value_size:cfg.value_size k ~rid
        ~rid_len ~trace
    in
    (* The operation in flight, read by [attempt]: one attempt function
       per client, not one closure per operation. *)
    let cur_op = ref `Get and cur_key = ref 0 in
    let attempt eng =
      let c = live () in
      write ~op:!cur_op !cur_key ~rid:(Retry.rid_bytes eng)
        ~rid_len:(Retry.rid_length eng) ~trace:(Retry.trace eng);
      Netsim.send_buf c buf;
      if not (Netsim.recv_buf_deadline c buf ~deadline:(Retry.deadline eng))
      then begin
        (* Timed out: the reply may still be in flight, and a
           request/response stream cannot resynchronize once a response
           is unaccounted for — abandon the connection so a stale reply
           can never be taken for a later operation's answer. *)
        Netsim.close c;
        Error (`Retry "timeout")
      end
      else if Netsim.Buf.equal_string buf Kvcache.Proto.server_error_busy then
        Error (`Retry "busy")
      else Ok ()
    in
    (* Whether op [op] on record [k] got a reply; the reply is in [buf]. *)
    let issue ~op k =
      match eng with
      | None ->
          write ~op k ~rid:Bytes.empty ~rid_len:0 ~trace:0;
          let c = live () in
          Netsim.send_buf c buf;
          Netsim.recv_buf c buf
      | Some eng -> (
          cur_op := op;
          cur_key := k;
          match Retry.execute eng attempt with Ok () -> true | Error _ -> false)
    in
    let finish () =
      (match eng with
      | Some e ->
          Sched.Mutex.with_lock fail_lock (fun () ->
              retry_total := !retry_total + Retry.retries e)
      | None -> ());
      Option.iter Netsim.close !conn
    in
    (buf, issue, finish, eng <> None)
  in
  (* A client with no records to load (or no operations to run) is
     still spawned, so thread ids do not depend on the key ranges, but
     it builds no I/O kit: it would never use one. *)
  let load_client i () =
    let per = cfg.records / cfg.clients in
    let lo = i * per in
    let hi = if i = cfg.clients - 1 then cfg.records else lo + per in
    if lo < hi then begin
      let buf, issue, finish, retrying = client_io ~name:"yl" ~salt:9000 i in
      let rec go k =
        if k < hi then begin
          Sched.charge cfg.client_cycles;
          (* Loads are idempotent (same key, same value), so no rid; the
             trace token still links retried loads to their op. *)
          if
            issue ~op:`Load k
            && Netsim.Buf.equal_string buf Kvcache.Proto.stored
          then go (k + 1)
          else begin
            bump_failures ();
            if retrying then go (k + 1)
          end
        end
      in
      go lo;
      finish ()
    end
  in
  (* Run-phase latencies, unboxed: client [i]'s [counts.(i)] samples,
     oldest first, from slot [first i] on. *)
  let first i = i * (cfg.operations / cfg.clients) in
  let samples = Float.Array.make cfg.operations 0.0 in
  let counts = Array.make cfg.clients 0 in
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
  let run_ops i =
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
    let buf, issue, finish, retrying = client_io ~name:"y" ~salt:5000 i in
    (* The clock is read from the thread's cell: [Sched.now] would box
       it, twice per operation. *)
    let clock = Sched.clock_cell () in
    let base = first i in
    let rec go k =
      if k < per then begin
        let t0 =
          if cfg.arrival_interval > 0.0 then begin
            let slot =
              !run_start
              +. (cfg.arrival_interval
                 *. float_of_int ((k * cfg.clients) + i))
            in
            let now = clock.Sched.clock in
            if slot > now then Sched.sleep (slot -. now);
            slot
          end
          else clock.Sched.clock
        in
        Sched.charge cfg.client_cycles;
        let replied =
          if Rng.below rng cfg.read_fraction then issue ~op:`Get (pick ())
          else
            issue ~op:`Update (if cfg.insert_new then fresh_key () else pick ())
        in
        Float.Array.set samples (base + counts.(i)) (clock.Sched.clock -. t0);
        counts.(i) <- counts.(i) + 1;
        if replied then begin
          if
            not
              (Kvcache.Proto.reply_ok (Netsim.Buf.view buf)
                 (Netsim.Buf.length buf))
          then bump_failures ();
          go (k + 1)
        end
        else begin
          bump_failures ();
          if retrying then go (k + 1)
        end
      end
    in
    go 0;
    finish ()
  in
  let run_client i () = if cfg.operations / cfg.clients > 0 then run_ops i in
  (* Client [clients - 1]'s samples first, each client's oldest first. *)
  let run_latencies () =
    let l = ref [] in
    for i = 0 to cfg.clients - 1 do
      for k = counts.(i) - 1 downto 0 do
        l := Float.Array.get samples (first i + k) :: !l
      done
    done;
    !l
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
          run_latencies = run_latencies ();
        }
  in
  let _ = Sched.spawn sched ~name:"ycsb-orchestrator" orchestrator in
  fun () ->
    match !results with
    | Some r -> r
    | None -> failwith "Ycsb: simulation did not complete"
