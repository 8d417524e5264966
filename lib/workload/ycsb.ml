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

(* {1 Clients}

   A client is one record, built when its thread starts and driven by
   the top-level functions below: its connection, made on first use;
   the buffer every request is written into and its reply received
   into; and, when a retry policy is configured, its retry engine and
   the one attempt function it runs every call with. A run-phase client
   also keeps its random stream and its Zipf table there. What the
   clients of one launch share is one [launch] record. *)

type op = [ `Get | `Load | `Update ]

type launch = {
  cfg : config;
  net : Netsim.t;
  base_value : string;
  fail_lock : Sched.Mutex.mutex;
  mutable failures : int;
  mutable retry_total : int;
  (* Highest key inserted so far, shared between clients (workload D). *)
  key_lock : Sched.Mutex.mutex;
  mutable key_count : int;
  (* Run-phase latencies, unboxed: client [i]'s [counts.(i)] samples,
     oldest first, from slot [first l i] on. *)
  samples : Float.Array.t;
  counts : int array;
  mutable run_start : float;
}

type client = {
  l : launch;
  i : int;
  buf : Netsim.Buf.t;
  mutable conn : Netsim.conn;  (* [Netsim.no_conn] until first use *)
  eng : Retry.t option;
  (* The operation in flight, read by [attempt]. *)
  mutable op : op;
  mutable key : int;
  mutable attempt : Retry.t -> (unit, [ `Retry of string ]) result;
  rng : Rng.t;  (* the run phase's draws *)
  mutable zipf : Zipf.t option;  (* made on the first Zipf draw *)
}

let bump_failures l =
  Sched.Mutex.lock l.fail_lock;
  l.failures <- l.failures + 1;
  Sched.Mutex.unlock l.fail_lock

(* The connection is made lazily, on first use: a fleet of 10⁴ clients
   connecting the instant the run phase opens would herd every setup
   into one burst, and the requests already sent behind that burst age
   out before any server worker sees the connection. Deferring to first
   issue spreads setup across the arrival grid. *)
let live cl =
  let c = cl.conn in
  if Netsim.is_open c && not (Netsim.peer_closed c) then c
  else begin
    Netsim.close c;
    let c = Netsim.connect cl.l.net ~port:cl.l.cfg.port in
    cl.conn <- c;
    c
  end

let write cl ~op k ~rid ~rid_len ~trace =
  write_request cl.buf ~op ~base:cl.l.base_value ~value_size:cl.l.cfg.value_size
    k ~rid ~rid_len ~trace

(* One attempt of the operation in flight. Every retry of one logical op
   reuses its idempotency key. *)
let attempt cl eng =
  let c = live cl in
  write cl ~op:cl.op cl.key ~rid:(Retry.rid_bytes eng)
    ~rid_len:(Retry.rid_length eng) ~trace:(Retry.trace eng);
  Netsim.send_buf c cl.buf;
  if not (Netsim.recv_buf_deadline c cl.buf (Retry.deadline_slot eng) 0)
  then begin
    (* Timed out: the reply may still be in flight, and a
       request/response stream cannot resynchronize once a response is
       unaccounted for — abandon the connection so a stale reply can
       never be taken for a later operation's answer. *)
    Netsim.close c;
    Error (`Retry "timeout")
  end
  else if Netsim.Buf.equal_string cl.buf Kvcache.Proto.server_error_busy then
    Error (`Retry "busy")
  else Ok ()

let no_attempt _ = Ok ()

(* Client [i]'s kit; [salt] and [name] tell its phase's retry engines
   apart. Without a retry policy, a reply the fault hook dropped would
   block the client forever; with one, requests carry per-attempt
   deadlines. *)
let client l ~name ~salt ~rng i =
  let cfg = l.cfg in
  let eng =
    match cfg.retry with
    | None -> None
    | Some policy ->
        Some
          (Retry.create policy
             ~rng:(Rng.create (cfg.seed + (salt * i) + 13))
             ~name ~id:i)
  in
  let cl =
    {
      l;
      i;
      buf = Netsim.Buf.create ();
      conn = Netsim.no_conn;
      eng;
      op = `Get;
      key = 0;
      attempt = no_attempt;
      rng;
      zipf = None;
    }
  in
  if eng <> None then cl.attempt <- attempt cl;
  cl

(* Whether op [op] on record [k] got a reply; the reply is in [cl.buf]. *)
let issue cl ~op k =
  match cl.eng with
  | None ->
      write cl ~op k ~rid:Bytes.empty ~rid_len:0 ~trace:0;
      let c = live cl in
      Netsim.send_buf c cl.buf;
      Netsim.recv_buf c cl.buf
  | Some eng -> (
      cl.op <- op;
      cl.key <- k;
      match Retry.execute eng cl.attempt with Ok () -> true | Error _ -> false)

let finish cl =
  (match cl.eng with
  | Some e ->
      let l = cl.l in
      Sched.Mutex.lock l.fail_lock;
      l.retry_total <- l.retry_total + Retry.retries e;
      Sched.Mutex.unlock l.fail_lock
  | None -> ());
  Netsim.close cl.conn

(* {2 The load phase} *)

let rec load_from cl k hi =
  if k < hi then begin
    Sched.charge cl.l.cfg.client_cycles;
    (* Loads are idempotent (same key, same value), so no rid; the trace
       token still links retried loads to their op. *)
    if issue cl ~op:`Load k && Netsim.Buf.equal_string cl.buf Kvcache.Proto.stored
    then load_from cl (k + 1) hi
    else begin
      bump_failures cl.l;
      if cl.eng <> None then load_from cl (k + 1) hi
    end
  end

(* Client [i] loads records [lo_of l i, lo_of l (i + 1)): the last one
   also loads the remainder, so with more clients than records it loads
   them all. A load client draws no random number, so it is handed the
   launch's value stream, unused. *)
let lo_of l i = i * (l.cfg.records / l.cfg.clients)

let hi_of l i = if i = l.cfg.clients - 1 then l.cfg.records else lo_of l (i + 1)

let load_client l rng i () =
  let cl = client l ~name:"yl" ~salt:9000 ~rng i in
  load_from cl (lo_of l i) (hi_of l i);
  finish cl

(* {2 The run phase}

   Each client runs [operations / clients] operations and the last one
   also the remainder, as the last load client loads the remainder of
   the records: exactly [operations] run. Client [i]'s samples start at
   slot [first l i]. *)

let first l i = i * (l.cfg.operations / l.cfg.clients)

let ops_of l i =
  let per = l.cfg.operations / l.cfg.clients in
  if i = l.cfg.clients - 1 then l.cfg.operations - (per * i) else per

(* Built on first use: its set-up is O(records), and uniform clients
   never draw from it. Creation draws no random numbers, so making it
   late leaves the key sequence unchanged. *)
let zipf cl =
  match cl.zipf with
  | Some z -> z
  | None ->
      let cfg = cl.l.cfg in
      let z = Zipf.create cl.rng ~n:cfg.records ~theta:cfg.zipf_theta in
      cl.zipf <- Some z;
      z

let pick cl =
  let l = cl.l in
  match l.cfg.distribution with
  | Zipfian -> Zipf.next (zipf cl)
  | Uniform -> Rng.int cl.rng l.cfg.records
  | Latest ->
      (* The most popular record is the most recent one. *)
      let n = l.key_count in
      max 0 (n - 1 - Zipf.next (zipf cl))

let fresh_key l =
  Sched.Mutex.lock l.key_lock;
  let k = l.key_count in
  l.key_count <- k + 1;
  Sched.Mutex.unlock l.key_lock;
  k

(* Open-loop mode: the run phase's arrivals are pre-scheduled on a
   fleet-wide grid (client [i]'s op [k] fires at
   [run_start + interval * (k * clients + i)]), and latency is measured
   from the {e scheduled} arrival — a late reply delays nothing and
   hides nothing (no coordinated omission), which is what makes p99
   honest when a shard is draining. The clock is read from, and the wait
   for the slot added into, the thread's cell: [Sched.now] and
   [Sched.sleep] would box the float, on every operation. *)
let rec run_from cl (clock : Sched.cell) k n base =
  if k < n then begin
    let l = cl.l in
    let cfg = l.cfg in
    let t0 =
      if cfg.arrival_interval > 0.0 then begin
        let slot =
          l.run_start
          +. (cfg.arrival_interval *. float_of_int ((k * cfg.clients) + cl.i))
        in
        let now = clock.clock in
        if slot > now then begin
          (* [Sched.sleep (slot -. now)]: a charge, then a yield. *)
          clock.clock <- clock.clock +. (slot -. now);
          Sched.yield ()
        end;
        slot
      end
      else clock.clock
    in
    Sched.charge cfg.client_cycles;
    let replied =
      if Rng.below cl.rng cfg.read_fraction then issue cl ~op:`Get (pick cl)
      else
        issue cl ~op:`Update (if cfg.insert_new then fresh_key l else pick cl)
    in
    let c = l.counts.(cl.i) in
    Float.Array.set l.samples (base + c) (clock.clock -. t0);
    l.counts.(cl.i) <- c + 1;
    if replied then begin
      if
        not
          (Kvcache.Proto.reply_ok (Netsim.Buf.view cl.buf)
             (Netsim.Buf.length cl.buf))
      then bump_failures l;
      run_from cl clock (k + 1) n base
    end
    else begin
      bump_failures l;
      if cl.eng <> None then run_from cl clock (k + 1) n base
    end
  end

let run_client l i () =
  let rng = Rng.create (l.cfg.seed + (1000 * i) + 7) in
  let cl = client l ~name:"y" ~salt:5000 ~rng i in
  run_from cl (Sched.clock_cell ()) 0 (ops_of l i) (first l i);
  finish cl

(* Client [clients - 1]'s samples first, each client's oldest first. *)
let run_latencies l =
  let acc = ref [] in
  for i = 0 to l.cfg.clients - 1 do
    for k = l.counts.(i) - 1 downto 0 do
      acc := Float.Array.get l.samples (first l i + k) :: !acc
    done
  done;
  !acc

let launch sched net cfg ~on_done () =
  let results = ref None in
  let base_rng = Rng.create cfg.seed in
  let base_value = Bytes.to_string (Rng.bytes base_rng (max 16 cfg.value_size)) in
  let l =
    {
      cfg;
      net;
      base_value;
      fail_lock = Sched.Mutex.create ();
      failures = 0;
      retry_total = 0;
      key_lock = Sched.Mutex.create ();
      key_count = cfg.records;
      samples = Float.Array.make cfg.operations 0.0;
      counts = Array.make cfg.clients 0;
      run_start = 0.0;
    }
  in
  let orchestrator () =
    let t_start = Sched.now () in
    (* Both phases' threads of client [i] are named [ycsb<i>]; the names
       are made once. A phase spawns only the clients with records to
       load or operations to run: an idle one would finish at its first
       step, having done nothing another thread could see. The busy
       clients of a phase are the last ones, so their ids are consecutive
       either way, and leaving the idle ones out shifts every later
       thread and timer id down by one amount: the scheduler's (clock,
       id) order, and so every simulated number, stays the same. *)
    let names = Array.init cfg.clients (fun i -> "ycsb" ^ Int.to_string i) in
    let spawn_phase ~busy mk =
      let tids = Array.make cfg.clients (-1) in
      for i = 0 to cfg.clients - 1 do
        if busy i then tids.(i) <- Sched.spawn sched ~name:names.(i) (mk i)
      done;
      Array.iter (fun tid -> if tid >= 0 then Sched.join tid) tids
    in
    spawn_phase ~busy:(fun i -> lo_of l i < hi_of l i) (load_client l base_rng);
    let t_load = Sched.now () in
    l.run_start <- t_load;
    spawn_phase ~busy:(fun i -> ops_of l i > 0) (run_client l);
    let t_all = Sched.now () in
    on_done ();
    results :=
      Some
        {
          load_ops = cfg.records;
          load_cycles = t_load -. t_start;
          run_ops = cfg.operations;
          run_cycles = t_all -. t_load;
          failures = l.failures;
          retries = l.retry_total;
          run_latencies = run_latencies l;
        }
  in
  let _ = Sched.spawn sched ~name:"ycsb-orchestrator" orchestrator in
  fun () ->
    match !results with
    | Some r -> r
    | None -> failwith "Ycsb: simulation did not complete"
