(* Tests for the Memcached analogue: slab allocator, hash-table store,
   protocol, and the three server variants — including both sides of the
   CVE-2011-4971 experiment (baseline crash vs. SDRaD rewind). *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Slab = Kvcache.Slab
module Store = Kvcache.Store
module Proto = Kvcache.Proto
module Server = Kvcache.Server

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let mk_space () = Space.create ~size_mib:64 ()

let mk_slab space =
  Slab.create space ~alloc_page:(fun len ->
      Space.mmap space ~len ~prot:Prot.rw ~pkey:0)

(* {1 References}

   The protocol code as it was before it scanned and wrote text in place:
   the split-list request parser, the [Printf] formatters and the
   concatenated replies. The differential tests below hold the new code
   to them. The router's line grammar is kept with one deliberate change:
   it takes the rid by the server's rule (the last word after the trace
   token) instead of the last [id=] word anywhere on the line. *)
module Ref = struct
  let max_key_len = 250

  let split_words s =
    String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

  let strip_rid words =
    match List.rev words with
    | last :: rest when String.length last > 3 && String.sub last 0 3 = "id="
      ->
        (List.rev rest, Some (String.sub last 3 (String.length last - 3)))
    | _ -> (words, None)

  let strip_trace words =
    match List.rev words with
    | last :: rest
      when String.length last > 6 && String.sub last 0 6 = "trace=" -> (
        match
          Telemetry.Context.of_trace_hex
            (String.sub last 6 (String.length last - 6))
        with
        | Some ctx -> (List.rev rest, Telemetry.Context.trace ctx)
        | None -> (words, 0L))
    | _ -> (words, 0L)

  let parse_trace space ~addr ~len =
    match Space.memchr space ~addr ~len '\r' with
    | None -> 0L
    | Some cr ->
        let line = Space.read_string space addr (cr - addr) in
        snd (strip_trace (split_words line))

  let trace_of_words words = snd (strip_trace words)

  let trace_of_string msg =
    match String.index_opt msg '\r' with
    | None -> 0L
    | Some cr -> trace_of_words (split_words (String.sub msg 0 cr))

  let parse space ~addr ~len =
    match Space.memchr space ~addr ~len '\r' with
    | None -> Proto.Bad "no CRLF"
    | Some cr -> (
        let line = Space.read_string space addr (cr - addr) in
        let data_off = cr - addr + 2 in
        let words, _trace = strip_trace (split_words line) in
        match words with
        | [ "get"; key ] when String.length key <= max_key_len -> Proto.Get key
        | "get" :: (_ :: _ :: _ as keys)
          when List.for_all (fun k -> String.length k <= max_key_len) keys ->
            Proto.Multi_get keys
        | [ "quit" ] -> Proto.Quit
        | [ "stats" ] -> Proto.Stats
        | [ "stats"; "telemetry" ] -> Proto.Stats_telemetry
        | _ -> (
            let mwords, rid = strip_rid words in
            match mwords with
            | [ "delete"; key ] when String.length key <= max_key_len ->
                Proto.Delete { key; rid }
            | [ (("incr" | "decr") as op); key; delta ]
              when String.length key <= max_key_len -> (
                match int_of_string_opt delta with
                | Some d when d >= 0 ->
                    Proto.Arith { key; delta = d; negate = op = "decr"; rid }
                | _ -> Proto.Bad "bad incr/decr delta")
            | [ (("set" | "add" | "replace") as op); key; flags; _exptime; bytes ]
              -> (
                match (int_of_string_opt flags, int_of_string_opt bytes) with
                | Some flags, Some declared_len ->
                    if String.length key > max_key_len then Proto.Bad "key too long"
                    else if data_off > len then Proto.Bad "missing data block"
                    else
                      Proto.Set
                        {
                          mode =
                            (match op with
                            | "add" -> `Add
                            | "replace" -> `Replace
                            | _ -> `Set);
                          key;
                          flags;
                          declared_len;
                          data_off = addr + data_off;
                          data_len = max 0 (len - data_off - 2);
                          rid;
                        }
                | _ -> Proto.Bad "bad set arguments")
            | _ -> Proto.Bad "unknown command"))

  let keyed_verbs = [ "get"; "set"; "add"; "replace"; "delete"; "incr"; "decr" ]
  let mutation_verbs = [ "set"; "add"; "replace"; "delete"; "incr"; "decr" ]

  (* (verb, key, rid, trace) *)
  let parse_request msg =
    let line, has_cr =
      match String.index_opt msg '\r' with
      | Some i -> (String.sub msg 0 i, true)
      | None -> (
          match String.index_opt msg '\n' with
          | Some i -> (String.sub msg 0 i, false)
          | None -> (msg, false))
    in
    let ws = split_words line in
    let verb = match ws with v :: _ -> v | [] -> "" in
    ( verb,
      (match ws with
      | v :: k :: _ when List.mem v keyed_verbs -> Some k
      | _ -> None),
      (if List.mem verb mutation_verbs then
         snd (strip_rid (fst (strip_trace ws)))
       else None),
      if has_cr then trace_of_words ws else 0L )

  let value_header ~key ~flags ~len =
    Printf.sprintf "VALUE %s %d %d\r\n" key flags len

  let be32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xFF))

  (* The binary GET reply frame: header, 4 extras bytes of flags, value. *)
  let res_value ~flags ~value =
    "\x81\x00\x00\x00\x04\x00\x00\x00"
    ^ be32 (4 + String.length value)
    ^ String.make 12 '\000' ^ be32 flags ^ value

  let rid_suffix = function None -> "" | Some r -> " id=" ^ r

  let trace_suffix = function
    | None -> ""
    | Some tr -> if tr = 0L then "" else Printf.sprintf " trace=%016Lx" tr

  let fmt_get ?trace key = Printf.sprintf "get %s%s\r\n" key (trace_suffix trace)

  let fmt_storage op ?rid ?trace ~key ~flags ~value () =
    Printf.sprintf "%s %s %d 0 %d%s%s\r\n%s\r\n" op key flags
      (String.length value) (rid_suffix rid) (trace_suffix trace) value

  let fmt_set_lying ~key ~flags ~declared ~value =
    Printf.sprintf "set %s %d 0 %d\r\n%s\r\n" key flags declared value

  let fmt_set_lying_traced ~trace ~key ~flags ~declared ~value =
    Printf.sprintf "set %s %d 0 %d%s\r\n%s\r\n" key flags declared
      (trace_suffix (Some trace))
      value

  let fmt_delete ?rid ?trace key =
    Printf.sprintf "delete %s%s%s\r\n" key (rid_suffix rid) (trace_suffix trace)

  let fmt_incr ?rid ?trace key d =
    Printf.sprintf "incr %s %d%s%s\r\n" key d (rid_suffix rid)
      (trace_suffix trace)

  let fmt_decr ?rid ?trace key d =
    Printf.sprintf "decr %s %d%s%s\r\n" key d (rid_suffix rid)
      (trace_suffix trace)

  let key_of i = Printf.sprintf "user%08d" i

  let value_for ~base ~value_size i =
    let stamp = Printf.sprintf "<%08d>" i in
    if value_size <= String.length stamp then String.sub stamp 0 value_size
    else stamp ^ String.sub base 0 (value_size - String.length stamp)

  let http_request ~path =
    Printf.sprintf
      "GET %s HTTP/1.1\r\nHost: bench.local\r\nUser-Agent: simbench/1.0\r\n\r\n"
      path
end

(* {1 Slab} *)

let test_slab_classes () =
  let space = mk_space () in
  let slab = mk_slab space in
  check (Alcotest.option int) "tiny request -> smallest class" (Some 96)
    (Slab.chunk_size slab 10);
  check bool "1KiB request has a class" true (Slab.chunk_size slab 1024 <> None);
  check (Alcotest.option int) "oversized refused" None
    (Slab.chunk_size slab (Slab.max_chunk_size + 1))

let test_slab_alloc_distinct () =
  let space = mk_space () in
  let slab = mk_slab space in
  let chunks = List.init 100 (fun _ -> Option.get (Slab.alloc slab 500)) in
  check int "100 distinct chunks" 100 (List.length (List.sort_uniq compare chunks));
  check int "in use" 100 (Slab.chunks_in_use slab)

let test_slab_free_reuses () =
  let space = mk_space () in
  let slab = mk_slab space in
  let a = Option.get (Slab.alloc slab 500) in
  Slab.free slab ~addr:a ~size:500;
  let b = Option.get (Slab.alloc slab 500) in
  check int "LIFO reuse" a b;
  check int "pages stay flat" 1 (Slab.pages_allocated slab)

(* {1 Store} *)

let with_store f =
  Sched.main (fun _ ->
      let space = mk_space () in
      let slab = mk_slab space in
      let alloc_table len = Space.mmap space ~len ~prot:Prot.rw ~pkey:0 in
      let db = Store.create space ~buckets:64 ~slab ~alloc_table in
      (* staging buffer for values *)
      let buf = Space.mmap space ~len:(64 * 1024) ~prot:Prot.rw ~pkey:0 in
      f space db buf)

let put space db buf key value =
  Space.store_string space buf value;
  Store.set db ~key ~flags:7 ~value_src:buf ~value_len:(String.length value)

let got space db key =
  Option.map
    (fun (addr, len, flags) -> (Space.read_string space addr len, flags))
    (Store.get db key)

let test_store_set_get () =
  with_store (fun space db buf ->
      check bool "set" true (put space db buf "alpha" "value one");
      check bool "set2" true (put space db buf "beta" "value two");
      check
        (Alcotest.option (Alcotest.pair string int))
        "get alpha" (Some ("value one", 7)) (got space db "alpha");
      check
        (Alcotest.option (Alcotest.pair string int))
        "get beta" (Some ("value two", 7)) (got space db "beta");
      check (Alcotest.option (Alcotest.pair string int)) "miss" None (got space db "gamma");
      check int "count" 2 (Store.count db);
      check (Alcotest.list string) "healthy" [] (Store.check db))

let test_store_replace () =
  with_store (fun space db buf ->
      ignore (put space db buf "k" "original");
      ignore (put space db buf "k" "replacement");
      check (Alcotest.option (Alcotest.pair string int)) "replaced"
        (Some ("replacement", 7))
        (got space db "k");
      check int "count still 1" 1 (Store.count db);
      check (Alcotest.list string) "healthy" [] (Store.check db))

let test_store_delete () =
  with_store (fun space db buf ->
      ignore (put space db buf "k" "v");
      check bool "delete hit" true (Store.delete db "k");
      check bool "delete miss" false (Store.delete db "k");
      check (Alcotest.option (Alcotest.pair string int)) "gone" None (got space db "k");
      check int "count" 0 (Store.count db))

let test_store_many_keys () =
  with_store (fun space db buf ->
      for i = 0 to 499 do
        ignore (put space db buf (Printf.sprintf "key%d" i) (Printf.sprintf "val%d" i))
      done;
      let ok = ref true in
      for i = 0 to 499 do
        if got space db (Printf.sprintf "key%d" i) <> Some (Printf.sprintf "val%d" i, 7)
        then ok := false
      done;
      check bool "all 500 retrievable" true !ok;
      check int "count" 500 (Store.count db);
      check (Alcotest.list string) "healthy" [] (Store.check db))

let test_store_oversized_rejected () =
  with_store (fun space db buf ->
      ignore space;
      ignore buf;
      check bool "too large refused" false
        (Store.set db ~key:"big" ~flags:0 ~value_src:buf
           ~value_len:(Slab.max_chunk_size + 1)))

let store_random_ops =
  QCheck.Test.make ~name:"store random set/delete matches model" ~count:25
    QCheck.(list (pair (int_range 0 30) bool))
    (fun ops ->
      let result = ref true in
      with_store (fun space db buf ->
          let model = Hashtbl.create 16 in
          List.iter
            (fun (k, is_set) ->
              let key = Printf.sprintf "k%d" k in
              if is_set then begin
                let v = Printf.sprintf "value-%d-%d" k (Hashtbl.hash key) in
                ignore (put space db buf key v);
                Hashtbl.replace model key v
              end
              else begin
                ignore (Store.delete db key);
                Hashtbl.remove model key
              end)
            ops;
          Hashtbl.iter
            (fun key v ->
              if got space db key <> Some (v, 7) then result := false)
            model;
          if Store.count db <> Hashtbl.length model then result := false;
          if Store.check db <> [] then result := false);
      !result)

(* {1 Proto} *)

let test_proto_parse () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
      let feed s =
        Space.store_string space buf s;
        Proto.parse space ~addr:buf ~len:(String.length s)
      in
      (match feed "get somekey\r\n" with
      | Proto.Get k -> check string "get key" "somekey" k
      | _ -> Alcotest.fail "expected Get");
      (match feed "set k 3 0 5\r\nhello\r\n" with
      | Proto.Set { key; flags; declared_len; data_len; _ } ->
          check string "set key" "k" key;
          check int "flags" 3 flags;
          check int "declared" 5 declared_len;
          check int "present" 5 data_len
      | _ -> Alcotest.fail "expected Set");
      (match feed "set k 0 0 -1\r\nxy\r\n" with
      | Proto.Set { declared_len; _ } -> check int "negative len kept" (-1) declared_len
      | _ -> Alcotest.fail "expected Set");
      (match feed "delete k\r\n" with
      | Proto.Delete { key = k; _ } -> check string "delete key" "k" k
      | _ -> Alcotest.fail "expected Delete");
      (match feed "munge k\r\n" with
      | Proto.Bad _ -> ()
      | _ -> Alcotest.fail "expected Bad"))

let test_proto_reply_roundtrip () =
  check bool "stored" true (Proto.parse_reply Proto.stored = Proto.Stored);
  check bool "miss" true (Proto.parse_reply Proto.end_ = Proto.Miss);
  let resp = "VALUE k 0 5\r\nhello\r\nEND\r\n" in
  check bool "value" true (Proto.parse_reply resp = Proto.Value "hello")

(* Client-side reply classification, one row per reply shape. Number
   replies keep [int_of_string]'s grammar over the trimmed reply; a value
   whose data starts with digits is still a value. *)
let test_proto_parse_reply_table () =
  let open Proto in
  List.iter
    (fun (wire, expected) ->
      check bool (Printf.sprintf "parse_reply %S" wire) true
        (parse_reply wire = expected))
    [
      ("42\r\n", Number 42);
      ("  7\r\n", Number 7);
      ("\t12 \r\n", Number 12);
      ("-3\r\n", Number (-3));
      ("+5\r\n", Number 5);
      ("12", Failed "12");
      ("-\r\n", Failed "-\r\n");
      ("STAT pid 1\r\nSTAT uptime 5\r\nEND\r\n",
       StatsReply [ ("pid", "1"); ("uptime", "5") ]);
      ("VALUE k 0 5\r\nhello\r\nEND\r\n", Value "hello");
      ("VALUE k 0 3\r\n123\r\nEND\r\n", Value "123");
      ("VALUE k 0 0\r\n\r\nEND\r\n", Value "");
      ("VALUE a 0 1\r\nx\r\nVALUE b 3 2\r\nyz\r\nEND\r\n",
       Values [ ("a", "x"); ("b", "yz") ]);
      ("END\r\n", Miss);
      ("VALUE k 0 9\r\nhello\r\nEND\r\n", Failed "malformed VALUE block");
      ("VALUE k 0\r\nhello\r\nEND\r\n", Failed "malformed VALUE block");
      ("VALUE k 0 5 hello", Failed "malformed VALUE block");
      (stored, Stored);
      (not_stored, NotFound);
      (deleted, Deleted);
      (not_found, NotFound);
      (error, Failed error);
      (server_error_busy, Failed server_error_busy);
      ("CLIENT_ERROR bad data chunk\r\n",
       Failed "CLIENT_ERROR bad data chunk\r\n");
    ]

(* [value] stored in simulated memory, [off] bytes into a page, so a long
   one straddles pages: [f space addr len]. *)
let with_value ?(off = 0) value f =
  let space = mk_space () in
  let page = Space.mmap space ~len:(String.length value + off + 4096)
      ~prot:Prot.rw ~pkey:0 in
  Space.store_string space (page + off) value;
  f space (page + off) (String.length value)

(* The one-copy GET replies, read from simulated memory, are the old
   concatenations byte for byte, for both wire formats. *)
let test_proto_value_reply_bytes () =
  List.iter
    (fun (key, flags, value) ->
      with_value ~off:4000 value (fun space addr len ->
          check string
            (Printf.sprintf "value_reply %s %d" key flags)
            (Ref.value_header ~key ~flags ~len ^ value ^ "\r\n" ^ Proto.end_)
            (Proto.value_reply space ~key ~flags ~addr ~len);
          check string
            (Printf.sprintf "res_value %d" flags)
            (Ref.res_value ~flags ~value)
            (Kvcache.Binproto.res_value space ~flags ~addr ~len)))
    [
      ("k", 0, "hello");
      ("key", 7, "");
      ("user:0001", 12345, String.make 1024 'v');
      ("neg", -1, "x\r\ny");
      ("big", max_int, "9");
      ("small", min_int, "END\r\n");
      ("ten", 10, String.make 10 'z');
      ("wide", 3, String.init 9000 (fun i -> Char.chr (i land 255)));
    ]

(* {1 Server} *)

let client_request net port reqs =
  let c = Netsim.connect net ~port in
  let replies =
    List.map
      (fun r ->
        Netsim.send c r;
        Netsim.recv c)
      reqs
  in
  Netsim.close c;
  replies

let run_server_test ~variant ~vulnerable f =
  let w =
    Scenario.world ~size_mib:128 ?monitor:(Scenario.monitor_for variant) ()
  in
  (Scenario.kvcache w
     { Server.default_config with variant; vulnerable; workers = 2 }
     (Script (f w.sched w.net)))
    .server

let test_server_basic_ops () =
  let srv =
    run_server_test ~variant:Server.Baseline ~vulnerable:false (fun _ net _ ->
        let replies =
          client_request net 11211
            [
              Proto.fmt_set ~key:"hello" ~flags:1 ~value:"world";
              Proto.fmt_get "hello";
              Proto.fmt_get "absent";
              Proto.fmt_delete "hello";
              Proto.fmt_get "hello";
            ]
        in
        match List.map (fun r -> Proto.parse_reply (Option.get r)) replies with
        | [ Stored; Value "world"; Miss; Deleted; Miss ] -> ()
        | _ -> Alcotest.fail "unexpected reply sequence")
  in
  check int "five requests served" 5 (Server.requests_served srv);
  check bool "no crash" false (Server.crashed srv)

let test_server_sdrad_ops () =
  let srv =
    run_server_test ~variant:Server.Sdrad ~vulnerable:false (fun _ net _ ->
        let replies =
          client_request net 11211
            [
              Proto.fmt_set ~key:"alpha" ~flags:0 ~value:(String.make 1024 'a');
              Proto.fmt_get "alpha";
              Proto.fmt_delete "alpha";
              Proto.fmt_delete "alpha";
            ]
        in
        match List.map (fun r -> Proto.parse_reply (Option.get r)) replies with
        | [ Stored; Value v; Deleted; NotFound ] ->
            check int "value intact" 1024 (String.length v);
            check bool "contents" true (v = String.make 1024 'a')
        | _ -> Alcotest.fail "unexpected reply sequence")
  in
  check bool "no rewinds" true (Server.rewinds srv = 0);
  check (Alcotest.list string) "db healthy" [] (Server.db_check srv)

let test_server_multiple_clients () =
  let srv =
    run_server_test ~variant:Server.Tlsf_alloc ~vulnerable:false (fun sched net _ ->
        let tids =
          List.init 6 (fun i ->
              Sched.spawn sched ~name:(Printf.sprintf "cl%d" i) (fun () ->
                  let key = Printf.sprintf "key%d" i in
                  let value = Printf.sprintf "value%d" i in
                  match
                    List.map
                      (fun r -> Proto.parse_reply (Option.get r))
                      (client_request net 11211
                         [ Proto.fmt_set ~key ~flags:0 ~value; Proto.fmt_get key ])
                  with
                  | [ Stored; Value v ] -> check string "own value" value v
                  | _ -> Alcotest.fail "bad replies"))
        in
        List.iter Sched.join tids)
  in
  check int "12 requests" 12 (Server.requests_served srv)

(* CVE-2011-4971 analogue, unprotected: one malicious request takes down
   the whole server and silently corrupts neighbouring items first. *)
let test_cve_baseline_crashes () =
  let srv =
    run_server_test ~variant:Server.Baseline ~vulnerable:true (fun _ net _ ->
        (* Fill some items of the same size class so the rampage has
           victims to corrupt. *)
        let _ =
          client_request net 11211
            (List.init 8 (fun i ->
                 Proto.fmt_set
                   ~key:(Printf.sprintf "victim%d" i)
                   ~flags:0 ~value:(String.make 900 'v')))
        in
        (* Free a chunk in the middle of the slab page so the attacker's
           item lands below live neighbours (LIFO reuse). *)
        let _ = client_request net 11211 [ Proto.fmt_delete "victim3" ] in
        let evil = Netsim.connect net ~port:11211 in
        Netsim.send evil
          (Proto.fmt_set_lying ~key:"boom123" ~flags:0 ~declared:(-1)
             ~value:(String.make 900 'x'));
        (* The server dies; our connection gets closed rather than answered. *)
        check bool "no reply from dead server" true (Netsim.recv evil = None))
  in
  check bool "server crashed" true (Server.crashed srv);
  check bool "neighbouring items corrupted" true (Server.db_check srv <> [])

let test_cve_sdrad_rewinds () =
  let srv =
    run_server_test ~variant:Server.Sdrad ~vulnerable:true (fun _ net _ ->
        let _ =
          client_request net 11211
            (List.init 8 (fun i ->
                 Proto.fmt_set
                   ~key:(Printf.sprintf "victim%d" i)
                   ~flags:0 ~value:(String.make 900 'v')))
        in
        (* An innocent client with a long-lived connection. *)
        let innocent = Netsim.connect net ~port:11211 in
        Netsim.send innocent (Proto.fmt_get "victim3");
        (match Netsim.recv innocent with
        | Some r -> check bool "pre-attack get" true (Proto.parse_reply r = Proto.Value (String.make 900 'v'))
        | None -> Alcotest.fail "no reply");
        (* The attack. *)
        let evil = Netsim.connect net ~port:11211 in
        Netsim.send evil
          (Proto.fmt_set_lying ~key:"boom123" ~flags:0 ~declared:(-1)
             ~value:(String.make 900 'x'));
        check bool "attacker connection closed" true (Netsim.recv evil = None);
        (* The innocent connection keeps working on the same server. *)
        Netsim.send innocent (Proto.fmt_get "victim5");
        (match Netsim.recv innocent with
        | Some r ->
            check bool "post-attack get still served" true
              (Proto.parse_reply r = Proto.Value (String.make 900 'v'))
        | None -> Alcotest.fail "innocent connection was dropped");
        Netsim.close innocent)
  in
  check bool "server alive" false (Server.crashed srv);
  check int "exactly one rewind" 1 (Server.rewinds srv);
  check int "exactly one dropped connection" 1 (Server.dropped_connections srv);
  check (Alcotest.list string) "database uncorrupted" [] (Server.db_check srv);
  check int "one latency sample" 1 (List.length (Server.rewind_latencies srv))


(* {1 Binary protocol (the authentic CVE-2011-4971 vector)} *)

module Bin = Kvcache.Binproto

let test_binproto_roundtrip () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      let feed s =
        Space.store_string space buf s;
        Bin.parse space ~addr:buf ~len:(String.length s)
      in
      (match feed (Bin.req_get "mykey") with
      | Proto.Get k -> check string "get key" "mykey" k
      | _ -> Alcotest.fail "expected Get");
      (match feed (Bin.req_set ~key:"k" ~flags:0xdead ~value:"hello") with
      | Proto.Set { key; flags; declared_len; data_len; _ } ->
          check string "set key" "k" key;
          check int "flags" 0xdead flags;
          check int "declared equals actual" 5 declared_len;
          check int "present" 5 data_len
      | _ -> Alcotest.fail "expected Set");
      (match feed (Bin.req_delete "gone") with
      | Proto.Delete { key = k; _ } -> check string "delete key" "gone" k
      | _ -> Alcotest.fail "expected Delete");
      (match feed "garbage" with
      | Proto.Bad _ -> ()
      | _ -> Alcotest.fail "expected Bad"))

let test_binproto_sign_extension () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      (* body length 0xFFFFFFFF is -1 to the vulnerable signed read:
         vlen = -1 - keylen - extlen. *)
      let s = Bin.req_set_lying ~key:"k" ~flags:0 ~body_len:0xFFFFFFFF ~value:"xy" in
      Space.store_string space buf s;
      match Bin.parse space ~addr:buf ~len:(String.length s) with
      | Proto.Set { declared_len; _ } ->
          check int "negative derived length" (-10) declared_len
      | _ -> Alcotest.fail "expected Set")

let test_binproto_reply_roundtrip () =
  check bool "stored" true (Bin.parse_reply Bin.res_stored = Proto.Stored);
  check bool "deleted" true (Bin.parse_reply Bin.res_deleted = Proto.Deleted);
  check bool "miss" true (Bin.parse_reply Bin.res_not_found = Proto.Miss);
  with_value "payload" (fun space addr len ->
      check bool "value" true
        (Bin.parse_reply (Bin.res_value space ~flags:7 ~addr ~len)
        = Proto.Value "payload"));
  match Bin.parse_reply (Bin.res_error Bin.status_einval) with
  | Proto.Failed _ -> ()
  | _ -> Alcotest.fail "expected Failed"

(* {2 Causal-context carriage on both wire formats} *)

let test_proto_trace_token () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
      let id = Telemetry.Context.trace (Telemetry.Context.root "cli-9") in
      let req = Proto.fmt_get ~trace:id "k" in
      Space.store_string space buf req;
      let len = String.length req in
      check bool "token decoded from memory" true
        (Proto.parse_trace space ~addr:buf ~len = id);
      (match Proto.parse space ~addr:buf ~len with
      | Proto.Get k -> check string "token stripped before dispatch" "k" k
      | _ -> Alcotest.fail "expected Get");
      check bool "string-side decoder agrees" true
        (Proto.trace_of_string req = id);
      let plain = Proto.fmt_get "k" in
      check bool "absent token reads zero" true
        (Proto.trace_of_string plain = 0L);
      check bool "zero id appends nothing" true
        (Proto.fmt_get ~trace:0L "k" = plain);
      (* The attack vector carries context too, so the fault it triggers
         links back to the request in forensics output. *)
      let lying =
        Proto.fmt_set_lying_traced ~trace:id ~key:"pwn" ~flags:0 ~declared:(-1)
          ~value:"xy"
      in
      check bool "lying set carries the token" true
        (Proto.trace_of_string lying = id))

let test_binproto_trace_cas_field () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      let id = Telemetry.Context.trace (Telemetry.Context.root "bin-4") in
      let req = Bin.req_get "k" in
      let traced = Bin.with_trace req id in
      check int "frame length unchanged" (String.length req)
        (String.length traced);
      check bool "cas field round-trips" true (Bin.trace_of_string traced = id);
      check bool "untraced frame reads zero" true
        (Bin.trace_of_string req = 0L);
      check bool "zero id leaves the frame untouched" true
        (Bin.with_trace req 0L = req);
      (* Patching the CAS field must not disturb the command itself. *)
      Space.store_string space buf traced;
      (match Bin.parse space ~addr:buf ~len:(String.length traced) with
      | Proto.Get k -> check string "still parses" "k" k
      | _ -> Alcotest.fail "expected Get");
      check bool "memory-side decoder agrees" true
        (Bin.parse_trace space ~addr:buf ~len:(String.length traced) = id))

let test_server_binary_ops () =
  let srv =
    run_server_test ~variant:Server.Sdrad ~vulnerable:false (fun _ net _ ->
        let replies =
          client_request net 11211
            [
              Bin.req_set ~key:"bk" ~flags:3 ~value:"binary value";
              Bin.req_get "bk";
              Bin.req_delete "bk";
              Bin.req_get "bk";
            ]
        in
        match List.map (fun r -> Bin.parse_reply (Option.get r)) replies with
        | [ Stored; Value "binary value"; Deleted; Miss ] -> ()
        | _ -> Alcotest.fail "unexpected binary reply sequence")
  in
  check int "four requests" 4 (Server.requests_served srv)

let test_server_mixed_protocols () =
  let _ =
    run_server_test ~variant:Server.Baseline ~vulnerable:false (fun _ net _ ->
        let c = Netsim.connect net ~port:11211 in
        (* Text set, binary get of the same key, on one connection. *)
        Netsim.send c (Proto.fmt_set ~key:"shared" ~flags:0 ~value:"both worlds");
        check bool "text stored" true
          (Proto.parse_reply (Option.get (Netsim.recv c)) = Proto.Stored);
        Netsim.send c (Bin.req_get "shared");
        check bool "binary get" true
          (Bin.parse_reply (Option.get (Netsim.recv c)) = Proto.Value "both worlds");
        Netsim.close c)
  in
  ()

let binary_attack = Bin.req_set_lying ~key:"boom" ~flags:0 ~body_len:0xFFFFFFFF ~value:(String.make 900 'x')

let test_cve_binary_baseline_crashes () =
  let srv =
    run_server_test ~variant:Server.Baseline ~vulnerable:true (fun _ net _ ->
        let evil = Netsim.connect net ~port:11211 in
        Netsim.send evil binary_attack;
        check bool "server dead" true (Netsim.recv evil = None))
  in
  check bool "crashed" true (Server.crashed srv)

let test_cve_binary_sdrad_rewinds () =
  let srv =
    run_server_test ~variant:Server.Sdrad ~vulnerable:true (fun _ net _ ->
        let innocent = Netsim.connect net ~port:11211 in
        Netsim.send innocent (Bin.req_set ~key:"keep" ~flags:0 ~value:"me");
        check bool "stored" true
          (Bin.parse_reply (Option.get (Netsim.recv innocent)) = Proto.Stored);
        let evil = Netsim.connect net ~port:11211 in
        Netsim.send evil binary_attack;
        check bool "attacker dropped" true (Netsim.recv evil = None);
        Netsim.send innocent (Bin.req_get "keep");
        check bool "service continues" true
          (Bin.parse_reply (Option.get (Netsim.recv innocent)) = Proto.Value "me");
        Netsim.close innocent)
  in
  check bool "alive" false (Server.crashed srv);
  check int "one rewind" 1 (Server.rewinds srv);
  check (Alcotest.list string) "db healthy" [] (Server.db_check srv)



(* {1 N-variant execution baseline (§VII)} *)

(* The replica set is not one of the builder's servers. *)
let run_nvx_scenario ~vulnerable f =
  let w = Scenario.world ~size_mib:256 () in
  Sched.main ~sched:w.sched (fun sched ->
      let n =
        Nvx.start sched w.space w.net { Nvx.default_config with vulnerable }
      in
      f w.net n;
      if not (Nvx.down n) then Nvx.stop n;
      n)

let test_nvx_serves_requests () =
  let nx =
    run_nvx_scenario ~vulnerable:false (fun net _ ->
        let replies =
          client_request net 11300
            [
              Proto.fmt_set ~key:"r" ~flags:0 ~value:"replicated";
              Proto.fmt_get "r";
              Proto.fmt_delete "r";
            ]
        in
        match List.map (fun r -> Proto.parse_reply (Option.get r)) replies with
        | [ Stored; Value "replicated"; Deleted ] -> ()
        | _ -> Alcotest.fail "bad replies through the nvx front end")
  in
  check int "three requests mirrored" 3 (Nvx.requests nx);
  check int "no divergence" 0 (Nvx.divergences nx);
  check bool "still up" false (Nvx.down nx)

let test_nvx_attack_fail_stops () =
  let nx =
    run_nvx_scenario ~vulnerable:true (fun net _ ->
        let c = Netsim.connect net ~port:11300 in
        Netsim.send c (Proto.fmt_set ~key:"a" ~flags:0 ~value:"1");
        check bool "benign stored" true
          (Proto.parse_reply (Option.get (Netsim.recv c)) = Proto.Stored);
        (* The exploit crashes every (identical) variant; the monitor sees
           dead replicas and fail-stops — unlike SDRaD, availability is
           lost. *)
        Netsim.send c
          (Proto.fmt_set_lying ~key:"boom123" ~flags:0 ~declared:(-1)
             ~value:(String.make 700 'x'));
        check bool "no reply after divergence" true (Netsim.recv c = None);
        Netsim.close c)
  in
  check bool "deployment down" true (Nvx.down nx);
  check int "one divergence" 1 (Nvx.divergences nx)


let test_multi_get () =
  List.iter
    (fun variant ->
      let _ =
        run_server_test ~variant ~vulnerable:false (fun _ net _ ->
            let _ =
              client_request net 11211
                [
                  Proto.fmt_set ~key:"a" ~flags:1 ~value:"alpha";
                  Proto.fmt_set ~key:"c" ~flags:3 ~value:"gamma";
                ]
            in
            let c = Netsim.connect net ~port:11211 in
            Netsim.send c (Proto.fmt_multi_get [ "a"; "b"; "c" ]);
            (match Proto.parse_reply (Option.get (Netsim.recv c)) with
            | Proto.Values hits ->
                check
                  (Alcotest.list (Alcotest.pair string string))
                  "hits in order, miss skipped"
                  [ ("a", "alpha"); ("c", "gamma") ]
                  hits
            | _ -> Alcotest.fail "expected Values");
            (* All misses: plain END. *)
            Netsim.send c (Proto.fmt_multi_get [ "x"; "y" ]);
            check bool "all-miss is END" true
              (Proto.parse_reply (Option.get (Netsim.recv c)) = Proto.Miss);
            Netsim.close c)
      in
      ())
    [ Server.Baseline; Server.Sdrad ]


let test_incr_decr () =
  List.iter
    (fun variant ->
      let _ =
        run_server_test ~variant ~vulnerable:false (fun _ net _ ->
            let c = Netsim.connect net ~port:11211 in
            let ask req = Netsim.send c req; Proto.parse_reply (Option.get (Netsim.recv c)) in
            check bool "seed counter" true
              (ask (Proto.fmt_set ~key:"hits" ~flags:0 ~value:"10") = Proto.Stored);
            check bool "incr" true (ask (Proto.fmt_incr "hits" 5) = Proto.Number 15);
            check bool "decr" true (ask (Proto.fmt_decr "hits" 3) = Proto.Number 12);
            (* memcached clamps decrements at zero. *)
            check bool "clamped at zero" true (ask (Proto.fmt_decr "hits" 100) = Proto.Number 0);
            check bool "value persisted" true (ask (Proto.fmt_get "hits") = Proto.Value "0");
            check bool "missing key" true (ask (Proto.fmt_incr "nope" 1) = Proto.NotFound);
            (* Non-numeric values are refused. *)
            check bool "seed text" true
              (ask (Proto.fmt_set ~key:"txt" ~flags:0 ~value:"abc") = Proto.Stored);
            (match ask (Proto.fmt_incr "txt" 1) with
            | Proto.Failed _ -> ()
            | _ -> Alcotest.fail "non-numeric incr accepted");
            Netsim.close c)
      in
      ())
    [ Server.Baseline; Server.Sdrad ]


let test_add_replace_semantics () =
  List.iter
    (fun variant ->
      let _ =
        run_server_test ~variant ~vulnerable:false (fun _ net _ ->
            let c = Netsim.connect net ~port:11211 in
            let ask req = Netsim.send c req; Proto.parse_reply (Option.get (Netsim.recv c)) in
            (* add: only when absent *)
            check bool "add fresh" true
              (ask (Proto.fmt_add ~key:"k" ~flags:0 ~value:"v1") = Proto.Stored);
            check bool "add existing refused" true
              (ask (Proto.fmt_add ~key:"k" ~flags:0 ~value:"v2") = Proto.NotFound);
            check bool "value unchanged" true (ask (Proto.fmt_get "k") = Proto.Value "v1");
            (* replace: only when present *)
            check bool "replace existing" true
              (ask (Proto.fmt_replace ~key:"k" ~flags:0 ~value:"v3") = Proto.Stored);
            check bool "replace missing refused" true
              (ask (Proto.fmt_replace ~key:"nope" ~flags:0 ~value:"x") = Proto.NotFound);
            check bool "replaced" true (ask (Proto.fmt_get "k") = Proto.Value "v3");
            Netsim.close c)
      in
      ())
    [ Server.Baseline; Server.Sdrad ]

(* {1 LRU eviction} *)

let with_capped_store max_bytes f =
  Sched.main (fun _ ->
      let space = mk_space () in
      let slab =
        Slab.create ~max_bytes space ~alloc_page:(fun len ->
            Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
      in
      let alloc_table len = Space.mmap space ~len ~prot:Prot.rw ~pkey:0 in
      let db = Store.create space ~buckets:256 ~slab ~alloc_table in
      let buf = Space.mmap space ~len:(64 * 1024) ~prot:Prot.rw ~pkey:0 in
      f space db buf)

let test_lru_eviction_under_pressure () =
  (* Two slab pages of ~1KiB items: roughly 110 fit; insert 200. *)
  with_capped_store (2 * Slab.slab_page_size) (fun space db buf ->
      for i = 0 to 199 do
        check bool "set never fails (evicts instead)" true
          (put space db buf (Printf.sprintf "k%03d" i) (String.make 1000 'v'))
      done;
      check bool "evictions happened" true (Store.evictions db > 0);
      check bool "bounded population" true (Store.count db < 200);
      (* The newest items survive; the oldest were evicted. *)
      check bool "newest present" true (Store.mem db "k199");
      check bool "oldest gone" false (Store.mem db "k000");
      check (Alcotest.list string) "healthy with LRU" [] (Store.check db))

let test_lru_get_refreshes () =
  with_capped_store (2 * Slab.slab_page_size) (fun space db buf ->
      ignore (put space db buf "precious" (String.make 1000 'p'));
      for i = 0 to 199 do
        (* Keep touching the protected key while flooding. *)
        ignore (Store.get db "precious");
        ignore (put space db buf (Printf.sprintf "f%03d" i) (String.make 1000 'v'))
      done;
      check bool "refreshed key survived the flood" true (Store.mem db "precious");
      check bool "evictions happened" true (Store.evictions db > 0))

let test_lru_order_tracked () =
  with_store (fun space db buf ->
      ignore (put space db buf "a" "1");
      ignore (put space db buf "b" "2");
      ignore (put space db buf "c" "3");
      check (Alcotest.list string) "insertion recency" [ "c"; "b"; "a" ]
        (Store.lru_keys db);
      ignore (Store.get db "a");
      check (Alcotest.list string) "get bumps" [ "a"; "c"; "b" ] (Store.lru_keys db);
      ignore (Store.delete db "c");
      check (Alcotest.list string) "delete unlinks" [ "a"; "b" ] (Store.lru_keys db);
      check (Alcotest.list string) "healthy" [] (Store.check db))

let test_server_eviction_end_to_end () =
  let w = Scenario.world ~size_mib:128 () in
  let cfg =
    { Server.default_config with variant = Server.Baseline; workers = 1;
      max_db_bytes = 2 * Slab.slab_page_size }
  in
  let { Scenario.server = s; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
        let c = Netsim.connect w.net ~port:11211 in
        for i = 0 to 149 do
          Netsim.send c
            (Proto.fmt_set ~key:(Printf.sprintf "k%03d" i) ~flags:0
               ~value:(String.make 1000 'v'));
          check bool "stored (with eviction)" true
            (Proto.parse_reply (Option.get (Netsim.recv c)) = Proto.Stored)
        done;
        Netsim.send c (Proto.fmt_get "k149");
        check bool "newest served" true
          (Proto.parse_reply (Option.get (Netsim.recv c)) <> Proto.Miss);
        Netsim.send c (Proto.fmt_get "k000");
        check bool "oldest evicted" true
          (Proto.parse_reply (Option.get (Netsim.recv c)) = Proto.Miss);
        Netsim.close c))
  in
  check bool "server reported evictions" true (Server.evictions s > 0);
  check (Alcotest.list string) "db healthy" [] (Server.db_check s)

(* {1 YCSB driver} *)

let run_ycsb variant =
  let r =
    Scenario.kvcache
      (Scenario.world ~size_mib:128 ?monitor:(Scenario.monitor_for variant) ())
      { Server.default_config with variant; workers = 2 }
      (Ycsb
         {
           Workload.Ycsb.default_config with
           records = 200;
           operations = 600;
           clients = 4;
         })
  in
  (r.result, r.server)

let test_ycsb_baseline () =
  let r, srv = run_ycsb Server.Baseline in
  check int "no failures" 0 r.Workload.Ycsb.failures;
  check int "all records loaded" 200 (Store.count (Server.store srv));
  check bool "load time positive" true (r.Workload.Ycsb.load_cycles > 0.0);
  check bool "run time positive" true (r.Workload.Ycsb.run_cycles > 0.0)

let test_ycsb_sdrad () =
  let r, srv = run_ycsb Server.Sdrad in
  check int "no failures" 0 r.Workload.Ycsb.failures;
  check int "all records loaded" 200 (Store.count (Server.store srv));
  check int "no rewinds" 0 (Server.rewinds srv);
  check (Alcotest.list string) "db healthy" [] (Server.db_check srv)

let test_ycsb_deterministic () =
  let r1, _ = run_ycsb Server.Baseline in
  let r2, _ = run_ycsb Server.Baseline in
  check (Alcotest.float 0.0) "identical load time" r1.Workload.Ycsb.load_cycles
    r2.Workload.Ycsb.load_cycles;
  check (Alcotest.float 0.0) "identical run time" r1.Workload.Ycsb.run_cycles
    r2.Workload.Ycsb.run_cycles

let test_sdrad_slower_than_baseline () =
  let rb, _ = run_ycsb Server.Baseline in
  let rs, _ = run_ycsb Server.Sdrad in
  let overhead =
    (rs.Workload.Ycsb.run_cycles -. rb.Workload.Ycsb.run_cycles)
    /. rb.Workload.Ycsb.run_cycles
  in
  check bool "sdrad adds some overhead" true (overhead > 0.0);
  check bool "overhead bounded (< 30%)" true (overhead < 0.30)


let test_stats_command () =
  let srv =
    run_server_test ~variant:Server.Sdrad ~vulnerable:false (fun _ net _ ->
        let replies =
          client_request net 11211
            [
              Proto.fmt_set ~key:"a" ~flags:0 ~value:"one";
              Proto.fmt_set ~key:"b" ~flags:0 ~value:"four";
              Proto.fmt_stats;
            ]
        in
        match List.rev replies with
        | Some stats :: _ -> (
            match Proto.parse_reply stats with
            | Proto.StatsReply kvs ->
                check (Alcotest.option string) "curr_items" (Some "2")
                  (List.assoc_opt "curr_items" kvs);
                check (Alcotest.option string) "bytes" (Some "7")
                  (List.assoc_opt "bytes" kvs);
                check (Alcotest.option string) "rewinds" (Some "0")
                  (List.assoc_opt "rewinds" kvs)
            | _ -> Alcotest.fail "expected stats reply")
        | _ -> Alcotest.fail "no stats reply")
  in
  ignore srv

let test_workload_d_inserts_grow_keyspace () =
  let cfg = { Server.default_config with variant = Server.Baseline; workers = 2 } in
  let ycfg =
    {
      Workload.Ycsb.workload_d with
      records = 100;
      operations = 400;
      clients = 4;
      read_fraction = 0.5;
    }
  in
  let { Scenario.server = s; result = r; _ } =
    Scenario.kvcache (Scenario.world ~size_mib:128 ()) cfg (Ycsb ycfg)
  in
  check int "no failures" 0 r.Workload.Ycsb.failures;
  (* ~200 inserts on top of the 100 loaded records. *)
  check bool "keyspace grew" true (Store.count (Server.store s) > 150)

(* Uniform clients never draw a Zipfian key, so a single-record keyspace
   (below the Zipf generator's n >= 2 floor) must still run. *)
let test_uniform_single_record () =
  let cfg = { Server.default_config with variant = Server.Baseline; workers = 1 } in
  let ycfg =
    {
      Workload.Ycsb.default_config with
      records = 1;
      operations = 20;
      clients = 2;
      distribution = Workload.Ycsb.Uniform;
    }
  in
  let r =
    (Scenario.kvcache (Scenario.world ~size_mib:32 ()) cfg (Ycsb ycfg)).result
  in
  check int "no failures" 0 r.Workload.Ycsb.failures;
  check int "every op completed" 20 (List.length r.Workload.Ycsb.run_latencies)

(* {1 Zipf} *)

let test_zipf_skew () =
  let rng = Simkern.Rng.create 1 in
  let z = Workload.Zipf.create rng ~n:1000 ~theta:0.99 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let v = Workload.Zipf.next z in
    counts.(v) <- counts.(v) + 1
  done;
  check bool "item 0 most popular" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  let head = counts.(0) + counts.(1) + counts.(2) in
  check bool "head is heavy (>15%)" true (float_of_int head > 0.15 *. 20_000.0);
  let in_range = Array.for_all (fun c -> c >= 0) counts in
  check bool "all samples in range" true in_range

(* {1 Differential: the in-place wire code against the references} *)

let hex16 rng =
  String.init 16 (fun _ -> "0123456789abcdef".[Random.State.int rng 16])

(* A request line biased to the scanner's edge cases: runs of spaces,
   leading and trailing spaces, tabs, trace tokens of the wrong length,
   case or id (0, 2^62 and above, not last), [id=] tokens and keys that
   begin with [id=], 250- and 251-byte keys, and numbers with signs,
   hex and underscores. *)
let edge_message rng =
  let int n = Random.State.int rng n in
  let pick a = a.(int (Array.length a)) in
  let trace () =
    match int 10 with
    | 0 -> "trace=" ^ String.sub (hex16 rng) 0 15
    | 1 -> "trace=" ^ hex16 rng ^ "0"
    | 2 -> "trace=" ^ String.uppercase_ascii (hex16 rng)
    | 3 -> "trace=0000000000000000"
    | 4 -> "trace=4000000000000000"
    | 5 -> "trace=c000000000000000"
    | 6 -> "trace=ffffffffffffffff"
    | 7 -> "trace="
    | _ -> "trace=" ^ hex16 rng
  in
  let key () =
    match int 9 with
    | 0 -> String.make 250 'k'
    | 1 -> String.make 251 'k'
    | 2 -> "id=" ^ string_of_int (int 100)
    | 3 -> "id="
    | 4 -> "k\tt"
    | 5 -> trace ()
    | 6 -> "a\nb"
    | _ -> "user" ^ string_of_int (int 1000)
  in
  let num () =
    pick
      [| "0"; "5"; "17"; "-3"; "+5"; "0x1f"; "1_0"; "007"; "-0";
         "99999999999999999999"; "123456789012345678";
         "1234567890123456789"; "abc"; "5\t"; "2" |]
  in
  let rid () = pick [| "id=r1"; "id="; "id=abc-7"; "id=id=x"; "id=\t" |] in
  let any () =
    match int 6 with
    | 0 -> key ()
    | 1 -> num ()
    | 2 -> trace ()
    | 3 -> rid ()
    | 4 -> "telemetry"
    | _ -> pick [| "get"; "set"; "delete"; "stats" |]
  in
  let verb =
    pick
      [| "get"; "get"; "set"; "add"; "replace"; "delete"; "incr"; "decr";
         "quit"; "stats"; "munge"; "GET"; "" |]
  in
  let args =
    match int 4 with
    | 0 -> List.init (int 7) (fun _ -> any ())
    | _ -> (
        match verb with
        | "get" -> List.init (1 + int 3) (fun _ -> key ())
        | "set" | "add" | "replace" -> [ key (); num (); num (); num () ]
        | "delete" -> [ key () ]
        | "incr" | "decr" -> [ key (); num () ]
        | "stats" -> if int 2 = 0 then [] else [ "telemetry" ]
        | _ -> [])
  in
  let words =
    (verb :: args)
    @ (if int 3 = 0 then [ rid () ] else [])
    @ match int 4 with 0 -> [] | 1 -> [ trace (); key () ] | _ -> [ trace () ]
  in
  let sep () = pick [| " "; " "; " "; "  "; "   "; "\t"; " \t" |] in
  let line =
    (if int 4 = 0 then sep () else "")
    ^ String.concat "" (List.map (fun w -> w ^ sep ()) words)
  in
  let line =
    if int 3 = 0 then line
    else String.sub line 0 (String.length line - 1)
  in
  if int 20 = 0 then line
  else
    line ^ "\r\n"
    ^ pick [| ""; "hello\r\n"; "he"; String.make (int 30) 'd' ^ "\r\n" |]

(* Parse every message with one implementation in a fresh simulated
   thread: each result with the clock after it. The same charges in the
   same order give bit-identical clocks. *)
let run_lines msgs ~parse ~parse_trace =
  let out = ref [] in
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      List.iter
        (fun msg ->
          Space.store_string space buf msg;
          let len = String.length msg in
          let tr = parse_trace space ~addr:buf ~len in
          let cmd = parse space ~addr:buf ~len in
          out := (msg, tr, cmd, Sched.now ()) :: !out)
        msgs);
  List.rev !out

let test_scanner_differential () =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let msgs = List.init 2_000 (fun _ -> edge_message rng) in
      let old = run_lines msgs ~parse:Ref.parse ~parse_trace:Ref.parse_trace in
      let now = run_lines msgs ~parse:Proto.parse ~parse_trace:Proto.parse_trace in
      List.iter2
        (fun (msg, tr0, cmd0, t0) (_, tr1, cmd1, t1) ->
          let what = Printf.sprintf "seed %d, %S" seed msg in
          check bool (what ^ ": parse") true (cmd0 = cmd1);
          check bool (what ^ ": parse_trace") true (Int64.equal tr0 tr1);
          check bool (what ^ ": clock") true (Float.equal t0 t1);
          check bool (what ^ ": trace_of_string") true
            (Int64.equal (Ref.trace_of_string msg) (Proto.trace_of_string msg));
          let verb, key, rid, trace = Ref.parse_request msg in
          let r = Cluster.Fleet.parse_request msg in
          check bool (what ^ ": router") true
            (verb = r.verb && key = r.key && rid = r.rid
            && Int64.equal trace r.trace))
        old now)
    [ 1; 2; 3; 4; 5 ]

let test_formatters_differential () =
  let rng = Random.State.make [| 7 |] in
  let int n = Random.State.int rng n in
  let pick a = a.(int (Array.length a)) in
  let base = String.init 2048 (fun i -> Char.chr (i land 255)) in
  for _ = 1 to 2_000 do
    let key = pick [| ""; "k"; "user00000042"; "a b"; String.make 250 'z' |] in
    let flags = pick [| 0; 1; -1; 7; 12345; max_int; min_int; int 100_000 |] in
    let value =
      pick [| ""; "x"; "hello\r\nEND\r\n"; String.make (int 2000) 'v' |]
    in
    let rid = pick [| None; Some "r1"; Some ""; Some "id=x" |] in
    let trace =
      pick
        [| None; Some 0L; Some 1L; Some (-1L); Some Int64.min_int;
           Some (Random.State.int64 rng Int64.max_int) |]
    in
    let d = pick [| 0; 5; -3; max_int; min_int |] in
    let same name a b = check string name a b in
    same "fmt_get" (Ref.fmt_get ?trace key) (Proto.fmt_get ?trace key);
    List.iter
      (fun op ->
        same ("fmt_storage " ^ op)
          (Ref.fmt_storage op ?rid ?trace ~key ~flags ~value ())
          (Proto.fmt_storage op ?rid ?trace ~key ~flags ~value ()))
      [ "set"; "add"; "replace" ];
    same "fmt_set_lying"
      (Ref.fmt_set_lying ~key ~flags ~declared:d ~value)
      (Proto.fmt_set_lying ~key ~flags ~declared:d ~value);
    (match trace with
    | Some trace ->
        same "fmt_set_lying_traced"
          (Ref.fmt_set_lying_traced ~trace ~key ~flags ~declared:d ~value)
          (Proto.fmt_set_lying_traced ~trace ~key ~flags ~declared:d ~value)
    | None -> ());
    same "fmt_delete" (Ref.fmt_delete ?rid ?trace key) (Proto.fmt_delete ?rid ?trace key);
    same "fmt_incr" (Ref.fmt_incr ?rid ?trace key d) (Proto.fmt_incr ?rid ?trace key d);
    same "fmt_decr" (Ref.fmt_decr ?rid ?trace key d) (Proto.fmt_decr ?rid ?trace key d);
    let i =
      pick [| 0; 1; int 2000; 99_999_999; 100_000_000; 123_456_789_012; -1;
              -5; -1234567; min_int; max_int |]
    in
    same "key_of" (Ref.key_of i) (Workload.Ycsb.key_of i);
    let value_size = pick [| 0; 1; 9; 10; 11; 12; 1024; int 2048 |] in
    same "value_for"
      (Ref.value_for ~base ~value_size i)
      (Workload.Ycsb.value_for ~base ~value_size i);
    let path = pick [| "/"; "/index.html"; "/a b"; String.make 300 'p' |] in
    same "request" (Ref.http_request ~path) (Workload.Http_load.request ~path)
  done

(* The multi-get reply, written hit by hit from simulated memory, is the
   old concatenation. *)
let test_values_reply_bytes () =
  let hits =
    [ ("a", 1, "alpha"); ("bb", -7, ""); ("c", max_int, String.make 5000 'c') ]
  in
  let space = mk_space () in
  let hits =
    List.map
      (fun (key, flags, v) ->
        let a = Space.mmap space ~len:(String.length v + 4096) ~prot:Prot.rw ~pkey:0 in
        Space.store_string space (a + 4090) v;
        (key, flags, v, a + 4090))
      hits
  in
  let order = ref [] in
  let reply =
    Proto.values_reply
      (List.map (fun (key, flags, v, a) -> (key, flags, String.length v, (key, a))) hits)
      ~write:(fun (key, a) b off len ->
        Space.read_into space a b off len;
        order := key :: !order)
  in
  check string "bytes"
    (String.concat ""
       (List.map
          (fun (key, flags, v, _) ->
            Ref.value_header ~key ~flags ~len:(String.length v) ^ v ^ "\r\n")
          hits)
    ^ Proto.end_)
    reply;
  check (Alcotest.list string) "hits written in order" [ "a"; "bb"; "c" ]
    (List.rev !order);
  check string "no hits" Proto.end_ (Proto.values_reply [] ~write:(fun _ _ _ _ -> ()))

(* {1 Host allocation of the wire path}

   Measured as INTERNALS §17 describes: [Gc.minor_words] deltas around
   work running in simulated threads, after a warm-up, on a fixed seed
   (the counts repeat exactly). The budgets are the measured figures
   plus under 10%. *)

(* One 1 KiB text GET round trip to a 1-worker SDRaD kvcache, the client
   sending a prebuilt request: client send and receive, the server's
   copy-in, both parses, the domain switch, the value read and the
   reply. 550.0 words measured; 737.0 when each hop copied the value
   through a string and parsed the line into word lists. *)
let get_round_trip_budget = 600.0

let test_get_round_trip_alloc () =
  let w = Scenario.world ~size_mib:32 ~monitor:Api.create () in
  let cfg = { Server.default_config with variant = Server.Sdrad; workers = 1 } in
  let { Scenario.result = words; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
         let c = Netsim.connect w.net ~port:cfg.port in
         let value = String.make 1024 'v' in
         Netsim.send c (Proto.fmt_set ~key:"user00000001" ~flags:0 ~value);
         ignore (Netsim.recv c);
         let req = Proto.fmt_get "user00000001" in
         let expect = "VALUE user00000001 0 1024\r\n" ^ value ^ "\r\nEND\r\n" in
         let round () =
           Netsim.send c req;
           match Netsim.recv c with
           | Some r when String.equal r expect -> ()
           | _ -> Alcotest.fail "bad GET reply"
         in
         for _ = 1 to 200 do round () done;
         let n = 2_000 in
         let w0 = Gc.minor_words () in
         for _ = 1 to n do round () done;
         let words = (Gc.minor_words () -. w0) /. float_of_int n in
         Netsim.close c;
         words))
  in
  check bool
    (Printf.sprintf "%.1f minor words per GET, budget %.0f" words
       get_round_trip_budget)
    true
    (words <= get_round_trip_budget)

(* A 16-client YCSB-B run of 8,000 ops on 500 records against a SDRaD
   kvcache: the words of the run less those of the same set-up with no
   run phase, per op. 592.2 measured; 1,058.3 with the copying and
   [Printf] wire code. *)
let ycsb_words_per_op_budget = 645.0

let ycsb_words ~ops =
  let w0 = Gc.minor_words () in
  let r =
    Scenario.kvcache
      (Scenario.world ~size_mib:32 ~monitor:Api.create ())
      { Server.default_config with variant = Server.Sdrad }
      (Ycsb
         {
           Workload.Ycsb.workload_b with
           records = 500;
           operations = ops;
           clients = 16;
         })
  in
  check int "no failures" 0 r.result.failures;
  Gc.minor_words () -. w0

let test_ycsb_alloc () =
  let ops = 8_000 in
  let per_op = (ycsb_words ~ops -. ycsb_words ~ops:0) /. float_of_int ops in
  check bool
    (Printf.sprintf "%.1f minor words per op, budget %.0f" per_op
       ycsb_words_per_op_budget)
    true
    (per_op <= ycsb_words_per_op_budget)

let () =
  Alcotest.run "kvcache"
    [
      ( "slab",
        [
          Alcotest.test_case "classes" `Quick test_slab_classes;
          Alcotest.test_case "distinct chunks" `Quick test_slab_alloc_distinct;
          Alcotest.test_case "free reuse" `Quick test_slab_free_reuses;
        ] );
      ( "store",
        [
          Alcotest.test_case "set/get" `Quick test_store_set_get;
          Alcotest.test_case "replace" `Quick test_store_replace;
          Alcotest.test_case "delete" `Quick test_store_delete;
          Alcotest.test_case "many keys" `Quick test_store_many_keys;
          Alcotest.test_case "oversized" `Quick test_store_oversized_rejected;
          QCheck_alcotest.to_alcotest store_random_ops;
        ] );
      ( "proto",
        [
          Alcotest.test_case "parse" `Quick test_proto_parse;
          Alcotest.test_case "reply roundtrip" `Quick test_proto_reply_roundtrip;
          Alcotest.test_case "parse_reply table" `Quick
            test_proto_parse_reply_table;
          Alcotest.test_case "value reply bytes" `Quick
            test_proto_value_reply_bytes;
          Alcotest.test_case "trace token" `Quick test_proto_trace_token;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request lines match the split-list parser, 5 seeds"
            `Quick test_scanner_differential;
          Alcotest.test_case "formatters match Printf" `Quick
            test_formatters_differential;
          Alcotest.test_case "multi-get reply bytes" `Quick
            test_values_reply_bytes;
          Alcotest.test_case "1 KiB GET round trip host allocation" `Quick
            test_get_round_trip_alloc;
          Alcotest.test_case "YCSB-B host allocation per op" `Quick
            test_ycsb_alloc;
        ] );
      ( "binproto",
        [
          Alcotest.test_case "roundtrip" `Quick test_binproto_roundtrip;
          Alcotest.test_case "sign extension" `Quick test_binproto_sign_extension;
          Alcotest.test_case "reply roundtrip" `Quick test_binproto_reply_roundtrip;
          Alcotest.test_case "trace cas field" `Quick test_binproto_trace_cas_field;
          Alcotest.test_case "server binary ops" `Quick test_server_binary_ops;
          Alcotest.test_case "mixed protocols" `Quick test_server_mixed_protocols;
          Alcotest.test_case "cve binary baseline" `Quick test_cve_binary_baseline_crashes;
          Alcotest.test_case "cve binary sdrad" `Quick test_cve_binary_sdrad_rewinds;
        ] );
      ( "server",
        [
          Alcotest.test_case "basic ops" `Quick test_server_basic_ops;
          Alcotest.test_case "sdrad ops" `Quick test_server_sdrad_ops;
          Alcotest.test_case "multiple clients" `Quick test_server_multiple_clients;
          Alcotest.test_case "cve baseline crash" `Quick test_cve_baseline_crashes;
          Alcotest.test_case "cve sdrad rewind" `Quick test_cve_sdrad_rewinds;
        ] );
      ( "nvx",
        [
          Alcotest.test_case "serves requests" `Quick test_nvx_serves_requests;
          Alcotest.test_case "attack fail-stops" `Quick test_nvx_attack_fail_stops;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction under pressure" `Quick test_lru_eviction_under_pressure;
          Alcotest.test_case "get refreshes" `Quick test_lru_get_refreshes;
          Alcotest.test_case "order tracked" `Quick test_lru_order_tracked;
          Alcotest.test_case "server end to end" `Quick test_server_eviction_end_to_end;
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "baseline" `Quick test_ycsb_baseline;
          Alcotest.test_case "sdrad" `Quick test_ycsb_sdrad;
          Alcotest.test_case "deterministic" `Quick test_ycsb_deterministic;
          Alcotest.test_case "overhead bounded" `Quick test_sdrad_slower_than_baseline;
          Alcotest.test_case "stats command" `Quick test_stats_command;
          Alcotest.test_case "workload d inserts" `Quick test_workload_d_inserts_grow_keyspace;
          Alcotest.test_case "uniform single record" `Quick test_uniform_single_record;
          Alcotest.test_case "multi-get" `Quick test_multi_get;
          Alcotest.test_case "incr/decr" `Quick test_incr_decr;
          Alcotest.test_case "add/replace" `Quick test_add_replace_semantics;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        ] );
    ]
