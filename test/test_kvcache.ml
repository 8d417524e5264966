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

(* A store over a fresh [mk_slab] whose tables are mappings of their
   own. *)
let mk_store space ~buckets =
  Store.create space ~buckets ~slab:(mk_slab space)
    ~alloc_table:(fun len -> Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
    ~free_table:(Space.munmap space)

(* {1 References}

   The protocol code as it was before it scanned and wrote text in place:
   the command variant and the split-list request parser, the binary
   parser that built it, the [Printf] formatters and the concatenated
   replies. The differential tests below hold the new code to them. The
   router's line grammar is kept with one deliberate change: it takes
   the rid by the server's rule (the last word after the trace token)
   instead of the last [id=] word anywhere on the line. Numbers follow
   the decimal rule memcached reads its fields with. *)
module Ref = struct
  type cmd =
    | Get of string
    | Multi_get of string list
    | Set of {
        mode : [ `Set | `Add | `Replace ];
        key : string;
        flags : int;
        declared_len : int;
        data_off : int;
        data_len : int;
        rid : string option;
      }
    | Delete of { key : string; rid : string option }
    | Arith of { key : string; delta : int; negate : bool; rid : string option }
    | Stats
    | Stats_telemetry
    | Quit
    | Bad of string

  let max_key_len = 250

  (* An optional sign, then digits: checked byte by byte, the magnitude
     read by [int_of_string_opt], which fails past [max_int]. *)
  let decimal ~signed w =
    let n = String.length w in
    let sign, digits =
      if n > 0 && (w.[0] = '+' || w.[0] = '-') then
        (w.[0], String.sub w 1 (n - 1))
      else ('+', w)
    in
    if
      digits = ""
      || (sign = '-' && not signed)
      || not (String.for_all (fun c -> c >= '0' && c <= '9') digits)
    then None
    else
      Option.map
        (fun v -> if sign = '-' then -v else v)
        (int_of_string_opt digits)

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
        | None -> (words, 0))
    | _ -> (words, 0)

  let parse_trace space ~addr ~len =
    match Space.memchr space ~addr ~len '\r' with
    | -1 -> 0
    | cr ->
        let line = Space.read_string space addr (cr - addr) in
        snd (strip_trace (split_words line))

  let trace_of_words words = snd (strip_trace words)

  let trace_of_string msg =
    match String.index_opt msg '\r' with
    | None -> 0
    | Some cr -> trace_of_words (split_words (String.sub msg 0 cr))

  let parse space ~addr ~len =
    match Space.memchr space ~addr ~len '\r' with
    | -1 -> Bad "no CRLF"
    | cr -> (
        let line = Space.read_string space addr (cr - addr) in
        let data_off = cr - addr + 2 in
        let words, _trace = strip_trace (split_words line) in
        match words with
        | [ "get"; key ] when String.length key <= max_key_len -> Get key
        | "get" :: (_ :: _ :: _ as keys)
          when List.for_all (fun k -> String.length k <= max_key_len) keys ->
            Multi_get keys
        | [ "quit" ] -> Quit
        | [ "stats" ] -> Stats
        | [ "stats"; "telemetry" ] -> Stats_telemetry
        | _ -> (
            let mwords, rid = strip_rid words in
            match mwords with
            | [ "delete"; key ] when String.length key <= max_key_len ->
                Delete { key; rid }
            | [ (("incr" | "decr") as op); key; delta ]
              when String.length key <= max_key_len -> (
                match decimal ~signed:false delta with
                | Some d -> Arith { key; delta = d; negate = op = "decr"; rid }
                | None -> Bad "bad incr/decr delta")
            | [ (("set" | "add" | "replace") as op); key; flags; exptime; bytes ]
              -> (
                match
                  ( decimal ~signed:false flags,
                    decimal ~signed:true exptime,
                    decimal ~signed:true bytes )
                with
                | Some flags, Some _, Some declared_len ->
                    if String.length key > max_key_len then Bad "key too long"
                    else if data_off > len then Bad "missing data block"
                    else
                      Set
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
                | _ -> Bad "bad set arguments")
            | _ -> Bad "unknown command"))

  (* The binary parser as it built the command, reading the header byte
     by byte and the key as a string. *)
  let be16 space a = (Space.load8 space a lsl 8) lor Space.load8 space (a + 1)
  let be32 space a = (be16 space a lsl 16) lor be16 space (a + 2)

  let parse_binary space ~addr ~len =
    let module B = Kvcache.Binproto in
    if len < B.header_size then Bad "short binary header"
    else if Space.load8 space addr <> B.magic_request then Bad "bad magic"
    else begin
      let opcode = Space.load8 space (addr + 1) in
      let keylen = be16 space (addr + 2) in
      let extlen = Space.load8 space (addr + 4) in
      let bodylen =
        let v = be32 space (addr + 8) in
        if v land 0x80000000 <> 0 then v - 0x100000000 else v
      in
      if keylen = 0 || keylen > max_key_len then Bad "bad key length"
      else if B.header_size + extlen + keylen > len then Bad "truncated key"
      else
        let key =
          Space.read_string space (addr + B.header_size + extlen) keylen
        in
        let opaque = be32 space (addr + 12) in
        let rid =
          if opaque <> 0 then Some (Printf.sprintf "bin-%d" opaque) else None
        in
        match opcode with
        | 0x00 -> Get key
        | 0x04 -> Delete { key; rid }
        | 0x01 ->
            if extlen <> 8 then Bad "set needs 8 extras bytes"
            else
              let flags = be32 space (addr + B.header_size) in
              Set
                {
                  mode = `Set;
                  key;
                  flags;
                  declared_len = bodylen - keylen - extlen;
                  data_off = addr + B.header_size + extlen + keylen;
                  data_len = max 0 (len - (B.header_size + extlen + keylen));
                  rid;
                }
        | _ -> Bad "unsupported opcode"
    end

  (* The command a scanned request stands for. *)
  let of_req (r : Proto.req) =
    let key = Proto.key_string r in
    let rid = if r.rid_len = 0 then None else Some (Proto.rid_string r) in
    match r.kind with
    | Get -> Get key
    | Multi_get ->
        Multi_get (split_words (String.sub r.src r.key (r.stop - r.key)))
    | (Set | Add | Replace) as k ->
        Set
          {
            mode = (match k with Add -> `Add | Replace -> `Replace | _ -> `Set);
            key;
            flags = r.flags;
            declared_len = r.declared_len;
            data_off = r.data_off;
            data_len = r.data_len;
            rid;
          }
    | Delete -> Delete { key; rid }
    | (Incr | Decr) as k ->
        Arith { key; delta = r.delta; negate = k = Decr; rid }
    | Stats -> Stats
    | Stats_telemetry -> Stats_telemetry
    | Quit -> Quit
    | Bad -> Bad r.reason

  let keyed_verbs = [ "get"; "set"; "add"; "replace"; "delete"; "incr"; "decr" ]
  let mutation_verbs = [ "set"; "add"; "replace"; "delete"; "incr"; "decr" ]

  (* The router's grammar as [Fleet.parse_request] read it before the
     router ran the servers' scanner: (verb, key, rid, trace) of the line
     up to its first CR, else its first LF, else the message's end,
     words scanned by the server's rule. The rid is the server's, and
     only a mutation verb's; only a CR-terminated line carries a
     trace. *)
  let route_request msg =
    let len = String.length msg in
    let stop =
      match String.index_opt msg '\r' with
      | Some i -> i
      | None -> (
          match String.index_opt msg '\n' with Some i -> i | None -> len)
    in
    let v0 = Proto.word_start msg 0 stop in
    let v1 = Proto.word_stop msg v0 stop in
    let verb = String.sub msg v0 (v1 - v0) in
    let k0 = Proto.word_start msg v1 stop in
    ( verb,
      (if k0 < stop && List.mem verb keyed_verbs then
         Some (String.sub msg k0 (Proto.word_stop msg k0 stop - k0))
       else None),
      (if List.mem verb mutation_verbs then
         snd (strip_rid (fst (strip_trace (split_words (String.sub msg 0 stop)))))
       else None),
      trace_of_string msg )

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
    | Some tr -> if tr = 0 then "" else Printf.sprintf " trace=%016x" tr

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

(* A request parsed into a fresh record, as the reference's command. *)
let text_cmd space ~addr ~len =
  let r = Proto.create () in
  Proto.parse r space ~addr ~len;
  Ref.of_req r

let binary_cmd space ~addr ~len =
  let r = Proto.create () in
  Kvcache.Binproto.parse r space ~addr ~len;
  Ref.of_req r

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
  let chunks = List.init 100 (fun _ -> Slab.alloc slab 500) in
  check int "100 distinct chunks" 100 (List.length (List.sort_uniq compare chunks));
  check int "in use" 100 (Slab.chunks_in_use slab)

let test_slab_free_reuses () =
  let space = mk_space () in
  let slab = mk_slab space in
  let a = Slab.alloc slab 500 in
  Slab.free slab ~addr:a ~size:500;
  let b = Slab.alloc slab 500 in
  check int "LIFO reuse" a b;
  check int "pages stay flat" 1 (Slab.pages_allocated slab)

(* {1 Store} *)

let with_store f =
  Sched.main (fun _ ->
      let space = mk_space () in
      let db = mk_store space ~buckets:64 in
      (* staging buffer for values *)
      let buf = Space.mmap space ~len:(64 * 1024) ~prot:Prot.rw ~pkey:0 in
      f space db buf)

let put space db buf key value =
  Space.store_string space buf value;
  Store_ops.set db ~key ~flags:7 ~value_src:buf ~value_len:(String.length value)

let got space db key =
  Option.map
    (fun (addr, len, flags) -> (Space.read_string space addr len, flags))
    (Store_ops.get db key)

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
      check bool "delete hit" true (Store_ops.delete db "k");
      check bool "delete miss" false (Store_ops.delete db "k");
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
        (Store_ops.set db ~key:"big" ~flags:0 ~value_src:buf
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
                ignore (Store_ops.delete db key);
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

(* {1 Store.check against its reference}

   [Store.check] walks its chains with top-level functions; the walk it
   replaced, a closure per bucket, is [Store_check_ref.check]. Each case
   corrupts a fresh 48-item store, grown from 16 buckets to 32, one way
   the check reports, then runs both on it: the same messages, in the
   same order, the same checked loads in the same order (seen through
   the space's access hook) and the same simulated clock. *)

let store_keys = List.init 48 (fun i -> Printf.sprintf "key%02d" i)

(* The item of the first of [store_keys] whose item satisfies [p]. *)
let item_where db p =
  let rec go = function
    | [] -> Alcotest.fail "no item fits the corruption"
    | k :: rest ->
        let item = Store.find db k 0 (String.length k) in
        if p item then item else go rest
  in
  go store_keys

let bucket_of db key = Store.hash key land ((Store.layout db).buckets - 1)

(* Each corruption, by what the check should say. *)
let corruptions =
  let next space item = Space.load64 space item in
  [
    ("healthy", fun _ _ -> ());
    ( "bad key length",
      fun space db ->
        Space.store32 space (item_where db (fun _ -> true) + 24) 300 );
    ( "bad value length",
      fun space db ->
        Space.store32 space (item_where db (fun _ -> true) + 28)
          (Slab.max_chunk_size + 1) );
    ( "wrong bucket",
      (* A key byte rewritten so that the key hashes to another bucket. *)
      fun space db ->
        let k = List.nth store_keys 7 in
        let item = Store.find db k 0 (String.length k) in
        let rec moved c =
          let k' = String.mapi (fun i x -> if i = 0 then c else x) k in
          if bucket_of db k' <> bucket_of db k then c
          else moved (Char.chr (Char.code c + 1))
        in
        Space.store8 space (item + Store.header_size) (Char.code (moved 'a')) );
    ( "linked twice",
      (* A chain's last item links on to an item of another chain. *)
      fun space db ->
        let last = item_where db (fun i -> next space i = 0) in
        let other =
          item_where db (fun i ->
              i <> last && next space i <> 0 && next space (next space i) <> last)
        in
        Space.store64 space last other );
    ( "LRU back-link broken",
      fun space db ->
        Space.store64 space (item_where db (fun _ -> true) + 16) 0x40 );
    ( "count mismatch",
      (* A chain cut short: its tail's items drop out of the table. *)
      fun space db ->
        Space.store64 space (item_where db (fun i -> next space i <> 0)) 0
    );
    ( "LRU list too long",
      fun space db ->
        let { Store.lru_head; lru_tail; _ } = Store.layout db in
        Space.store64 space (lru_tail + 8) lru_head );
    ( "LRU tail mismatch",
      fun space db ->
        let { Store.lru_head; _ } = Store.layout db in
        Space.store64 space (Space.load64 space (lru_head + 8) + 8) 0 );
  ]

let test_store_check_matches_reference () =
  List.iter
    (fun (what, corrupt) ->
      Sched.main (fun _ ->
          let space = mk_space () in
          let db = mk_store space ~buckets:16 in
          let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
          List.iter (fun k -> ignore (put space db buf k ("v-" ^ k))) store_keys;
          check int "grown" 32 (Store.layout db).buckets;
          corrupt space db;
          let traced f =
            let loads = ref [] and t0 = Sched.now () in
            Space.set_access_hook space
              (Some (fun a len _ -> loads := (a, len) :: !loads));
            let r = f () in
            Space.set_access_hook space None;
            (r, List.rev !loads, Sched.now () -. t0)
          in
          let want, want_loads, want_cycles =
            traced (fun () -> Store_check_ref.check space db)
          in
          let got, got_loads, got_cycles = traced (fun () -> Store.check db) in
          let name x = Printf.sprintf "%s: %s" what x in
          check (Alcotest.list string) (name "messages") want got;
          check
            Alcotest.(list (pair int int))
            (name "checked loads") want_loads got_loads;
          check (Alcotest.float 0.0) (name "simulated cycles") want_cycles
            got_cycles;
          if what <> "healthy" && got = [] then
            Alcotest.failf "%s: the corruption went unreported" what))
    corruptions

(* An empty bucket costs [Store.check] its load and no allocation: the
   words of a check of an empty 16,384-bucket store less those of an
   empty 16-bucket one. 8.0 words a bucket while every bucket's walk was
   a closure. *)
let test_store_check_alloc () =
  let words buckets =
    Sched.main (fun _ ->
        let space = mk_space () in
        let db = mk_store space ~buckets in
        Alloc_probe.words_per_call ~warmup:2 ~n:20 (fun () ->
            ignore (Store.check db)))
  in
  let per_bucket = (words 16_384 -. words 16) /. float_of_int (16_384 - 16) in
  if per_bucket > 0.0 then
    Alcotest.failf
      "Store.check allocates %.2f minor words per empty bucket; the budget \
       is 0"
      per_bucket

(* {1 Table growth} *)

(* A store whose tables come from a region mapped up front, so that
   growing one charges no mmap: [room] tables can be had, then none. *)
let arena_store space ~buckets ~room =
  let arena = Space.mmap space ~len:(1024 * 1024) ~prot:Prot.rw ~pkey:0 in
  let next = ref arena and left = ref room in
  let alloc_table len =
    if !left = 0 then 0
    else begin
      decr left;
      let p = !next in
      next := p + len;
      p
    end
  in
  Store.create space ~buckets ~slab:(mk_slab space) ~alloc_table
    ~free_table:ignore

let nth_key i = Printf.sprintf "key%03d" i

(* A store grown from 16 buckets through six doublings answers, orders
   and checks as one made at its final 1,024. *)
let test_store_growth_differential () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
      let grown = arena_store space ~buckets:16 ~room:max_int
      and sized = arena_store space ~buckets:1024 ~room:1 in
      let both f = f grown; f sized in
      let value i = Printf.sprintf "value-%d" i in
      for i = 0 to 999 do
        both (fun db -> ignore (put space db buf (nth_key i) (value i)));
        if i mod 7 = 0 then
          both (fun db -> ignore (Store_ops.get db (nth_key (i / 2))));
        if i mod 11 = 0 then
          both (fun db -> ignore (Store_ops.delete db (nth_key (i / 3))))
      done;
      check int "grown to the final size" 1024 (Store.layout grown).buckets;
      check int "count" (Store.count sized) (Store.count grown);
      check (Alcotest.list string) "LRU order" (Store.lru_keys sized)
        (Store.lru_keys grown);
      for i = 0 to 999 do
        check
          (Alcotest.option (Alcotest.pair string int))
          (nth_key i)
          (got space sized (nth_key i))
          (got space grown (nth_key i))
      done;
      check (Alcotest.list string) "LRU order after the gets"
        (Store.lru_keys sized) (Store.lru_keys grown);
      check (Alcotest.list string) "grown store checks clean" []
        (Store.check grown);
      check (Alcotest.list string) "sized store checks clean" []
        (Store.check sized))

(* 24 items in 16 buckets keep the table; the 25th doubles it, and the
   clock pays for sweeping both tables and at least a load and a store
   an item beyond an insert that does not grow its table. *)
let test_store_growth_charged () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
      let a = arena_store space ~buckets:16 ~room:2
      and b = arena_store space ~buckets:32 ~room:1 in
      let table = (Store.layout a).table in
      for i = 0 to 23 do
        ignore (put space a buf (nth_key i) "v");
        ignore (put space b buf (nth_key i) "v")
      done;
      check int "1.5 items a bucket: 16 buckets" 16 (Store.layout a).buckets;
      check int "1.5 items a bucket: the first table" table
        (Store.layout a).table;
      let cycles db =
        let t0 = Sched.now () in
        ignore (put space db buf (nth_key 24) "v");
        Sched.now () -. t0
      in
      let grew = cycles a and plain = cycles b in
      check int "the 25th item doubles it" 32 (Store.layout a).buckets;
      let c = Space.cost space in
      let sweeps = float_of_int ((16 + 32) * 8) *. c.Simkern.Cost.mem_byte in
      let floor = sweeps +. (25.0 *. 2.0 *. c.Simkern.Cost.mem_access) in
      if grew -. plain < floor then
        Alcotest.failf
          "growing 16 -> 32 buckets cost %.1f cycles over an insert; at least \
           %.1f"
          (grew -. plain) floor;
      check (Alcotest.list string) "checks clean" [] (Store.check a))

(* A table that cannot get the memory to double keeps its size and goes
   on serving. *)
let test_store_growth_without_memory () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
      let db = arena_store space ~buckets:16 ~room:1 in
      for i = 0 to 99 do
        ignore (put space db buf (nth_key i) (string_of_int i))
      done;
      check int "16 buckets" 16 (Store.layout db).buckets;
      for i = 0 to 99 do
        check
          (Alcotest.option (Alcotest.pair string int))
          (nth_key i) (Some (string_of_int i, 7)) (got space db (nth_key i))
      done;
      check (Alcotest.list string) "checks clean" [] (Store.check db))

(* {1 Proto} *)

let test_proto_parse () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
      let feed s =
        Space.store_string space buf s;
        text_cmd space ~addr:buf ~len:(String.length s)
      in
      (match feed "get somekey\r\n" with
      | Ref.Get k -> check string "get key" "somekey" k
      | _ -> Alcotest.fail "expected Get");
      (match feed "set k 3 0 5\r\nhello\r\n" with
      | Ref.Set { key; flags; declared_len; data_len; _ } ->
          check string "set key" "k" key;
          check int "flags" 3 flags;
          check int "declared" 5 declared_len;
          check int "present" 5 data_len
      | _ -> Alcotest.fail "expected Set");
      (match feed "set k 0 0 -1\r\nxy\r\n" with
      | Ref.Set { declared_len; _ } -> check int "negative len kept" (-1) declared_len
      | _ -> Alcotest.fail "expected Set");
      (match feed "delete k\r\n" with
      | Ref.Delete { key = k; _ } -> check string "delete key" "k" k
      | _ -> Alcotest.fail "expected Delete");
      (match feed "munge k\r\n" with
      | Ref.Bad _ -> ()
      | _ -> Alcotest.fail "expected Bad");
      (* Numbers are decimal as memcached reads them: these spellings
         were read by [int_of_string] once, and each is refused now. *)
      List.iter
        (fun line ->
          match feed line with
          | Ref.Bad _ -> ()
          | _ -> Alcotest.failf "expected Bad for %S" line)
        [
          "set k 0x1 0 5\r\nhello\r\n";
          "set k 1_0 abc 0b101\r\nhello\r\n";
          "set k 1 abc 5\r\nhello\r\n";
          "set k -1 0 5\r\nhello\r\n";
          "incr k 0x10\r\n";
          "incr k 0o17\r\n";
          "incr k -1\r\n";
          "set k 0 0 99999999999999999999\r\nhello\r\n";
        ];
      (match feed "set k +3 -1 +5\r\nhello\r\n" with
      | Ref.Set { flags; declared_len; _ } ->
          check int "signed flags" 3 flags;
          check int "signed length" 5 declared_len
      | _ -> Alcotest.fail "expected Set"))

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
  (* One buffer for every reply, so each must replace what the last one
     left, a longer one included. *)
  let out = Netsim.Buf.create () in
  let written f =
    f out;
    Netsim.Buf.contents out
  in
  List.iter
    (fun (key, flags, value) ->
      with_value ~off:4000 value (fun space addr len ->
          check string
            (Printf.sprintf "value_reply %s %d" key flags)
            (Ref.value_header ~key ~flags ~len ^ value ^ "\r\n" ^ Proto.end_)
            (written (fun b ->
                 let r = Proto.create () in
                 let line = "get " ^ key ^ "\r\n" in
                 Proto.scan_wire r line (String.length line);
                 Proto.value_reply space b r ~flags ~addr ~len));
          check string
            (Printf.sprintf "res_value %d" flags)
            (Ref.res_value ~flags ~value)
            (written (fun b -> Kvcache.Binproto.res_value space b ~flags ~addr ~len))))
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
        (* A client the crash catches idle, on the other worker. *)
        let bystander = Netsim.connect net ~port:11211 in
        Netsim.send bystander (Proto.fmt_get "victim0");
        ignore (Netsim.recv bystander);
        let evil = Netsim.connect net ~port:11211 in
        Netsim.send evil
          (Proto.fmt_set_lying ~key:"boom123" ~flags:0 ~declared:(-1)
             ~value:(String.make 900 'x'));
        (* The server dies; our connection gets closed rather than answered. *)
        check bool "no reply from dead server" true (Netsim.recv evil = None);
        check bool "the idle client's connection closed too" true
          (Netsim.recv bystander = None))
  in
  check bool "server crashed" true (Server.crashed srv);
  check int "no live connection left" 0 (Server.live_connections srv);
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
        binary_cmd space ~addr:buf ~len:(String.length s)
      in
      (match feed (Bin.req_get "mykey") with
      | Ref.Get k -> check string "get key" "mykey" k
      | _ -> Alcotest.fail "expected Get");
      (match feed (Bin.req_set ~key:"k" ~flags:0xdead ~value:"hello") with
      | Ref.Set { key; flags; declared_len; data_len; _ } ->
          check string "set key" "k" key;
          check int "flags" 0xdead flags;
          check int "declared equals actual" 5 declared_len;
          check int "present" 5 data_len
      | _ -> Alcotest.fail "expected Set");
      (match feed (Bin.req_delete "gone") with
      | Ref.Delete { key = k; _ } -> check string "delete key" "gone" k
      | _ -> Alcotest.fail "expected Delete");
      (match feed "garbage" with
      | Ref.Bad _ -> ()
      | _ -> Alcotest.fail "expected Bad"))

let test_binproto_sign_extension () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      (* body length 0xFFFFFFFF is -1 to the vulnerable signed read:
         vlen = -1 - keylen - extlen. *)
      let s = Bin.req_set_lying ~key:"k" ~flags:0 ~body_len:0xFFFFFFFF ~value:"xy" in
      Space.store_string space buf s;
      match binary_cmd space ~addr:buf ~len:(String.length s) with
      | Ref.Set { declared_len; _ } ->
          check int "negative derived length" (-10) declared_len
      | _ -> Alcotest.fail "expected Set")

let test_binproto_reply_roundtrip () =
  check bool "stored" true (Bin.parse_reply Bin.res_stored = Proto.Stored);
  check bool "deleted" true (Bin.parse_reply Bin.res_deleted = Proto.Deleted);
  check bool "miss" true (Bin.parse_reply Bin.res_not_found = Proto.Miss);
  with_value "payload" (fun space addr len ->
      check bool "value" true
        (let out = Netsim.Buf.create () in
         Bin.res_value space out ~flags:7 ~addr ~len;
         Bin.parse_reply (Netsim.Buf.contents out) = Proto.Value "payload"));
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
        (Proto.parse_trace (Proto.create ()) space ~addr:buf ~len = id);
      (match text_cmd space ~addr:buf ~len with
      | Ref.Get k -> check string "token stripped before dispatch" "k" k
      | _ -> Alcotest.fail "expected Get");
      check bool "string-side decoder agrees" true
        (Proto.trace_of_string req (String.length req) = id);
      let plain = Proto.fmt_get "k" in
      check bool "absent token reads zero" true
        (Proto.trace_of_string plain (String.length plain) = 0);
      check bool "zero id appends nothing" true
        (Proto.fmt_get ~trace:0 "k" = plain);
      (* The attack vector carries context too, so the fault it triggers
         links back to the request in forensics output. *)
      let lying =
        Proto.fmt_set_lying_traced ~trace:id ~key:"pwn" ~flags:0 ~declared:(-1)
          ~value:"xy"
      in
      check bool "lying set carries the token" true
        (Proto.trace_of_string lying (String.length lying) = id))

let test_binproto_trace_cas_field () =
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      let id = Telemetry.Context.trace (Telemetry.Context.root "bin-4") in
      let req = Bin.req_get "k" in
      let traced = Bin.with_trace req id in
      check int "frame length unchanged" (String.length req)
        (String.length traced);
      check bool "cas field round-trips" true (Bin.trace_of_string traced (String.length traced) = id);
      check bool "untraced frame reads zero" true
        (Bin.trace_of_string req (String.length req) = 0);
      check bool "zero id leaves the frame untouched" true
        (Bin.with_trace req 0 = req);
      (* Patching the CAS field must not disturb the command itself. *)
      Space.store_string space buf traced;
      (match binary_cmd space ~addr:buf ~len:(String.length traced) with
      | Ref.Get k -> check string "still parses" "k" k
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
      let db =
        Store.create space ~buckets:256 ~slab ~alloc_table
          ~free_table:(Space.munmap space)
      in
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
      check bool "newest present" true (Store_ops.mem db "k199");
      check bool "oldest gone" false (Store_ops.mem db "k000");
      check (Alcotest.list string) "healthy with LRU" [] (Store.check db))

let test_lru_get_refreshes () =
  with_capped_store (2 * Slab.slab_page_size) (fun space db buf ->
      ignore (put space db buf "precious" (String.make 1000 'p'));
      for i = 0 to 199 do
        (* Keep touching the protected key while flooding. *)
        ignore (Store_ops.get db "precious");
        ignore (put space db buf (Printf.sprintf "f%03d" i) (String.make 1000 'v'))
      done;
      check bool "refreshed key survived the flood" true (Store_ops.mem db "precious");
      check bool "evictions happened" true (Store.evictions db > 0))

let test_lru_order_tracked () =
  with_store (fun space db buf ->
      ignore (put space db buf "a" "1");
      ignore (put space db buf "b" "2");
      ignore (put space db buf "c" "3");
      check (Alcotest.list string) "insertion recency" [ "c"; "b"; "a" ]
        (Store.lru_keys db);
      ignore (Store_ops.get db "a");
      check (Alcotest.list string) "get bumps" [ "a"; "c"; "b" ] (Store.lru_keys db);
      ignore (Store_ops.delete db "c");
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

(* A space too small for the keys loaded into it: the slab stops where
   the space runs out, the store evicts, every key still stored reads
   back its value, and a connection made afterwards costs no thread. *)
let test_space_exhaustion_evicts variant () =
  let w =
    Scenario.world ~size_mib:16 ?monitor:(Scenario.monitor_for variant) ()
  in
  let cfg = { Server.default_config with variant; workers = 1 } in
  let keys = 12_000 in
  let value i = Printf.sprintf "%-1000d" i in
  let { Scenario.server = s; result = hits; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
           let c = Netsim.connect w.net ~port:11211 in
           let ask req =
             Netsim.send c req;
             Proto.parse_reply (Option.get (Netsim.recv c))
           in
           for i = 0 to keys - 1 do
             if ask (Proto.fmt_set ~key:(nth_key i) ~flags:0 ~value:(value i))
                <> Proto.Stored
             then Alcotest.failf "%s not stored" (nth_key i)
           done;
           let hits = ref 0 in
           for i = 0 to keys - 1 do
             match ask (Proto.fmt_get (nth_key i)) with
             | Proto.Miss -> ()
             | Proto.Value v when v = value i -> incr hits
             | _ -> Alcotest.failf "%s read back wrong" (nth_key i)
           done;
           (* Connections made now are served, or closed when their
              buffers find no room: 20 open at once outgrow the plain
              variants' first 256 KiB buffer arena. *)
           let late =
             List.init 20 (fun _ -> Netsim.connect w.net ~port:11211)
           in
           List.iter
             (fun l ->
               Netsim.send l (Proto.fmt_get (nth_key 0));
               ignore (Netsim.recv l))
             late;
           List.iter Netsim.close late;
           Netsim.send c Proto.fmt_stats_telemetry;
           let scrape = Option.get (Netsim.recv c) in
           Netsim.close c;
           let evictions =
             List.find_map
               (fun l ->
                 Scanf.sscanf_opt l "kvcache_evictions_total %d" Fun.id)
               (String.split_on_char '\n' scrape)
           in
           check bool "kvcache_evictions_total above 0" true
             (Option.value evictions ~default:0 > 0);
           !hits))
  in
  List.iter
    (fun (_, name, o) ->
      match o with
      | Sched.Failed e ->
          Alcotest.failf "%s failed: %s" name (Printexc.to_string e)
      | Sched.Completed -> ())
    (Sched.outcomes w.sched);
  check bool "some keys evicted" true (hits < keys);
  check int "the rest all stored" (Store.count (Server.store s)) hits;
  check (Alcotest.list string) "db healthy" [] (Server.db_check s)

(* Idle connections hold no buffer; the worker holds one. 64 connections
   are opened on one worker and held open, each served one GET of a key
   set before them. From the first GET served to the last, RSS grows by
   at most the worker's buffer pages, and no server thread fails; while
   the core kept a 16 KiB buffer per connection, each took a page. *)
let test_held_connections_served variant () =
  let w =
    Scenario.world ~size_mib:64 ?monitor:(Scenario.monitor_for variant) ()
  in
  let { Scenario.result = grown; _ } =
    Scenario.kvcache w
      { Server.default_config with variant; workers = 1 }
      (Script
         (fun _ ->
           ignore
             (client_request w.net 11211
                [ Proto.fmt_set ~key:"k" ~flags:0
                    ~value:(String.make 1024 'v') ]);
           let serve_one () =
             let c = Netsim.connect w.net ~port:11211 in
             Netsim.send c (Proto.fmt_get "k");
             (match Option.map Proto.parse_reply (Netsim.recv c) with
             | Some (Proto.Value v) ->
                 check int "the value" 1024 (String.length v)
             | _ -> Alcotest.fail "a held connection was not served");
             c
           in
           let held = ref [ serve_one () ] in
           let rss0 = Space.rss_bytes w.space in
           for _ = 2 to 64 do
             held := serve_one () :: !held
           done;
           let grown = Space.rss_bytes w.space - rss0 in
           List.iter Netsim.close !held;
           grown))
  in
  check bool
    (Printf.sprintf "RSS grew %d bytes, at most the worker's buffer's %d" grown
       Serve.conn_buf_size)
    true
    (grown <= Serve.conn_buf_size);
  List.iter
    (fun (_, name, o) ->
      match o with
      | Sched.Failed e ->
          Alcotest.failf "%s failed: %s" name (Printexc.to_string e)
      | Sched.Completed -> ())
    (Sched.outcomes w.sched)

(* {1 Live connections}

   A connection is the server's while a worker's waitset watches it, and
   leaves the set when its worker sees the client's close. This counts
   rather than times: sessions that have closed leave nothing behind,
   after 1,000 of them as after 10,000, while each open one is held. *)
let test_live_set_drains () =
  let w = Scenario.world ~size_mib:32 () in
  (* A session whose GET was answered: its worker watches it. *)
  let session () =
    let c = Netsim.connect w.net ~port:11211 in
    Netsim.send c (Proto.fmt_get "k");
    ignore (Netsim.recv c);
    c
  in
  (* Long enough for the workers to see the last closes. *)
  let settle () = Sched.sleep 1e6 in
  let held, left =
    (Scenario.kvcache w
       { Server.default_config with variant = Server.Baseline }
       (Script
          (fun s ->
            let open_ = List.init 8 (fun _ -> session ()) in
            let held = Server.live_connections s in
            List.iter Netsim.close open_;
            let ran = ref 8 in
            let left_after n =
              while !ran < n do
                Netsim.close (session ());
                incr ran
              done;
              settle ();
              Server.live_connections s
            in
            let after_1k = left_after 1_000 in
            (held, [ after_1k; left_after 10_000 ]))))
      .result
  in
  check int "each open session is held" 8 held;
  check (Alcotest.list int) "left after 1,000 and 10,000 sessions" [ 0; 0 ]
    left

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

(* SDRaD's resident pages over baseline's after loading N and 4N 1 KiB
   records stay within a few pages: its database domain grows by its
   2 MiB pool, whose regions hold whole slab pages. Grown by 256 KiB
   regions, each held three slab pages and touched a page for its free
   remainder's header: a page every 165 records. *)
let test_sdrad_pages_flat () =
  let pages variant records =
    let r =
      Scenario.kvcache
        (Scenario.world ~size_mib:64 ?monitor:(Scenario.monitor_for variant) ())
        { Server.default_config with variant }
        (Ycsb { Workload.Ycsb.default_config with records; operations = 0 })
    in
    Space.max_rss_bytes r.world.space / 4096
  in
  let over records =
    pages Server.Sdrad records - pages Server.Baseline records
  in
  let n = over 1_500 and n4 = over 6_000 in
  if abs (n4 - n) > 4 then
    Alcotest.failf
      "SDRaD's pages over baseline's: %d at 1,500 records, %d at 6,000" n n4

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
   (below the Zipf generator's n >= 2 floor) must still run. Every
   configured op runs, also when the clients do not divide them: the
   last client takes the remainder. *)
let test_uniform_single_record () =
  let cfg = { Server.default_config with variant = Server.Baseline; workers = 1 } in
  List.iter
    (fun (operations, clients) ->
      let ycfg =
        {
          Workload.Ycsb.default_config with
          records = 1;
          operations;
          clients;
          distribution = Workload.Ycsb.Uniform;
        }
      in
      let r =
        (Scenario.kvcache (Scenario.world ~size_mib:32 ()) cfg (Ycsb ycfg)).result
      in
      let name x = Printf.sprintf "%d ops on %d clients: %s" operations clients x in
      check int (name "no failures") 0 r.Workload.Ycsb.failures;
      check int (name "every op completed") operations
        (List.length r.Workload.Ycsb.run_latencies);
      check int (name "ops reported") operations r.Workload.Ycsb.run_ops)
    [ (20, 2); (21, 2); (10, 16) ]

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
  match int 20 with
  | 0 -> line
  | 1 -> line ^ "\n" ^ pick [| ""; "hello\r\n"; "x\n" |]
  | _ ->
      line ^ "\r\n"
      ^ pick [| ""; "hello\r\n"; "he"; String.make (int 30) 'd' ^ "\r\n" |]

(* A binary request frame biased to the parser's edges: each opcode and
   an unsupported one, keys of 0, 250 and 251 bytes, extras of the
   wrong length, a lying body length, opaques and CAS-field trace ids
   (0, 62-bit, and with the top bits set), and strict prefixes. *)
let binary_message rng =
  let module B = Kvcache.Binproto in
  let int n = Random.State.int rng n in
  let pick a = a.(int (Array.length a)) in
  let key =
    pick [| "k"; "user00000042"; String.make 250 'k'; String.make 251 'k'; "" |]
  in
  let value = String.make (int 40) 'v' in
  let frame =
    match int 5 with
    | 0 -> B.req_get key
    | 1 -> B.req_set ~key ~flags:(int 70_000) ~value
    | 2 -> B.req_delete ~opaque:(pick [| 0; 1; 77; 0xFFFFFFFF |]) key
    | 3 -> B.req_set_opaque ~opaque:(1 + int 1000) ~key ~flags:3 ~value
    | _ ->
        B.req_set_lying ~key ~flags:0
          ~body_len:(pick [| 0xFFFFFFFF; 0x80000000; 3 |])
          ~value
  in
  let frame =
    B.with_trace frame
      (pick [| 0; 1; Telemetry.Context.trace (Telemetry.Context.root "b") |])
  in
  let b = Bytes.of_string frame in
  (match int 8 with
  | 0 when Bytes.length b > 24 -> Bytes.set b 1 '\x07'
  | 1 when Bytes.length b > 24 -> Bytes.set b 4 (Char.chr (int 12))
  | 2 when Bytes.length b > 24 ->
      (* CAS bytes with the top bits set: more than an id's 62. *)
      Bytes.set b 16 '\xff';
      Bytes.set b 17 '\x80'
  | _ -> ());
  let frame = Bytes.to_string b in
  if int 6 = 0 then String.sub frame 0 (int (String.length frame + 1))
  else frame

(* Parse every message as a server does — [is_binary], then the trace,
   then the request — with one implementation in a fresh simulated
   thread: each result with the clock after each charged read. The same
   charges in the same order give bit-identical clocks. *)
let run_lines msgs ~parse_trace ~parse =
  let out = ref [] in
  Sched.main (fun _ ->
      let space = mk_space () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      List.iter
        (fun msg ->
          Space.store_string space buf msg;
          let len = String.length msg in
          let binary = Kvcache.Binproto.is_binary space ~addr:buf ~len in
          let tr = parse_trace ~binary space ~addr:buf ~len in
          let t0 = Sched.now () in
          let cmd = parse ~binary space ~addr:buf ~len in
          out := (msg, tr, t0, cmd, Sched.now ()) :: !out)
        msgs);
  List.rev !out

(* The binary CAS field as the [Int64] decoder read it, less the top
   bit an int drops. *)
let ref_binary_trace space ~addr ~len =
  if len < 24 || Space.load8 space addr <> 0x80 then 0
  else
    let byte i = Int64.of_int (Space.load8 space (addr + i)) in
    let v = ref 0L in
    for i = 16 to 23 do
      v := Int64.logor (Int64.shift_left !v 8) (byte i)
    done;
    Int64.to_int !v

(* What a reused buffer may hold after a shorter message: a CR, an LF,
   a trace token and an id token that a scan past the message would
   take for its own. *)
let stale_tail = " id=stale trace=0123456789abcdef\r\nget k\r\n"

(* The router's decisions for a request line, from the scanned record:
   whether it quits, the key it routes by, the rid of an oplog entry and
   the trace of its flight event. *)
let router_view (r : Proto.req) =
  let keyed =
    match r.verb with
    | Get | Set | Add | Replace | Delete | Incr | Decr -> r.key_len > 0
    | _ -> false
  in
  ( r.verb = Quit,
    (if keyed then Some (Proto.key_string r) else None),
    (if r.rid_len > 0 then Some (Proto.rid_string r) else None),
    r.trace )

let test_scanner_differential () =
  let ring = Cluster.Hash_ring.create () in
  List.iter (Cluster.Hash_ring.add ring) [ 0; 1; 2; 3 ];
  let shard = function
    | Some k -> Cluster.Hash_ring.route ring k
    | None -> List.hd (Cluster.Hash_ring.members ring)
  in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let msgs =
        List.init 2_000 (fun i ->
            if i mod 5 = 0 then binary_message rng else edge_message rng)
      in
      let old =
        run_lines msgs
          ~parse_trace:(fun ~binary ->
            if binary then ref_binary_trace else Ref.parse_trace)
          ~parse:(fun ~binary -> if binary then Ref.parse_binary else Ref.parse)
      in
      (* One record for every message, as a server worker keeps it. *)
      let r = Proto.create () in
      let now =
        run_lines msgs
          ~parse_trace:(fun ~binary space ~addr ~len ->
            if binary then Kvcache.Binproto.parse_trace space ~addr ~len
            else Proto.parse_trace r space ~addr ~len)
          ~parse:(fun ~binary space ~addr ~len ->
            if binary then Kvcache.Binproto.parse r space ~addr ~len
            else Proto.parse r space ~addr ~len;
            Ref.of_req r)
      in
      List.iter2
        (fun (msg, tr0, c0, cmd0, t0) (_, tr1, c1, cmd1, t1) ->
          let what = Printf.sprintf "seed %d, %S" seed msg in
          check bool (what ^ ": parse") true (cmd0 = cmd1);
          check int (what ^ ": parse_trace") tr0 tr1;
          check bool (what ^ ": clock after the trace read") true
            (Float.equal c0 c1);
          check bool (what ^ ": clock after the parse") true
            (Float.equal t0 t1);
          (* The wire scanners read only the message's [len] bytes:
             bytes after them, as a reused buffer holds, change
             nothing. *)
          if String.length msg = 0 || msg.[0] <> '\x80' then
            List.iter
              (fun wire ->
                let len = String.length msg in
                check int (what ^ ": trace_of_string") (Ref.trace_of_string msg)
                  (Proto.trace_of_string wire len);
                let verb, key, rid, trace = Ref.route_request msg in
                Proto.scan_wire r wire len;
                let quits, key', rid', trace' = router_view r in
                check bool (what ^ ": router") true
                  ((quits, key', rid', trace') = (verb = "quit", key, rid, trace));
                check int (what ^ ": shard") (shard key)
                  (if key' = None then shard None
                   else Cluster.Hash_ring.route_sub ring r.src r.key r.key_len))
              [ msg; msg ^ stale_tail ])
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
        [| None; Some 0; Some 1; Some max_int;
           Some (Telemetry.Context.trace (Telemetry.Context.root "f"));
           Some (Random.State.bits rng lor (Random.State.bits rng lsl 30)) |]
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

   Measured with [Alloc_probe] around work running in simulated threads,
   on a fixed seed (the counts repeat exactly). The budgets are the
   measured figures plus under 10%. *)

(* Minor words of one 1 KiB text GET round trip to a 1-worker SDRaD
   kvcache: client send and receive, the server's copy-in, both parses,
   the domain switch, the value read and the reply. [client c ~req
   ~expect] makes the round trip on connection [c], for the request
   string [req] and the reply [expect]. *)
let get_round_trip_words ?supervisor client =
  let w = Scenario.world ~size_mib:32 ~monitor:Api.create ?supervisor () in
  let cfg = { Server.default_config with variant = Server.Sdrad; workers = 1 } in
  let { Scenario.result = words; _ } =
    Scenario.kvcache w cfg
      (Script
         (fun _ ->
         let c = Netsim.connect w.net ~port:cfg.port in
         let value = String.make 1024 'v' in
         Netsim.send c (Proto.fmt_set ~key:"user00000001" ~flags:0 ~value);
         ignore (Netsim.recv c);
         let round =
           client c ~req:(Proto.fmt_get "user00000001")
             ~expect:("VALUE user00000001 0 1024\r\n" ^ value ^ "\r\nEND\r\n")
         in
         let words = Alloc_probe.words_per_call ~warmup:200 ~n:2_000 round in
         Netsim.close c;
         words))
  in
  words

(* The client sends a prebuilt request string and receives the reply as
   a string, which copies it out of its pooled frame. Pinned at the
   140.0 words measured; 142.0 while the server's wait returned its
   connection in an option, 146.0 while each wake boxed its time, 197.0
   while the
   server's handler built its closures and
   read its request lines as strings, 272.0 while the server wrote each
   reply into a fresh string, 359.0 while each suspension built closures
   and each message a queue cell, 550.0 while the monitor's gates and
   TLSF allocated, and 737.0 before that, when each hop copied the value
   through a string and parsed the line into word lists. *)
let get_round_trip_budget = 140.0

let test_get_round_trip_alloc () =
  let words =
    get_round_trip_words (fun c ~req ~expect () ->
        Netsim.send c req;
        match Netsim.recv c with
        | Some r when String.equal r expect -> ()
        | _ -> Alcotest.fail "bad GET reply")
  in
  check bool
    (Printf.sprintf "%.1f minor words per GET, budget %.0f" words
       get_round_trip_budget)
    true
    (words <= get_round_trip_budget)

(* The same GET from a client that keeps its request in a buffer and
   receives the reply into another, as the YCSB clients do: what is
   left is the two wakes' continuations and the server's own 1 word.
   Pinned at the 9.0 words measured; 11.0 while the server's wait
   returned its connection in an option, 15.0 while each wake boxed its
   time, 66.0 while the handler built its closures and read its request
   lines as strings. *)
let get_round_trip_buffer_budget = 9.0

let test_get_round_trip_buffer_alloc () =
  let words =
    get_round_trip_words (fun c ~req ~expect ->
        let out = Netsim.Buf.create () and into = Netsim.Buf.create () in
        Netsim.Buf.add_string out req;
        fun () ->
          Netsim.send_buf c out;
          if not (Netsim.recv_buf c into && Netsim.Buf.equal_string into expect)
          then Alcotest.fail "bad GET reply")
  in
  check bool
    (Printf.sprintf "%.1f minor words per GET, budget %.0f" words
       get_round_trip_buffer_budget)
    true
    (words <= get_round_trip_buffer_budget)

(* The buffered GET with the event domain supervised, as the fleet's
   shards run it: the request's whole trip through the kvcache worker,
   [Serve.run], [Supervisor.run] and [Api.run] allocates nothing but the
   wakes' continuations. Pinned at the 9.0 words measured, as without
   the supervisor; 11.0 while the server's wait returned its connection
   in an option, 15.0 while each wake boxed its time, 72.0 while the
   handler built its closures and read its lines as strings and the
   supervisor wrapped each body in a closure. *)
let supervised_get_budget = 9.0

let test_supervised_get_alloc () =
  let words =
    get_round_trip_words
      ~supervisor:(fun sd -> Resilience.Supervisor.attach sd)
      (fun c ~req ~expect ->
        let out = Netsim.Buf.create () and into = Netsim.Buf.create () in
        Netsim.Buf.add_string out req;
        fun () ->
          Netsim.send_buf c out;
          if not (Netsim.recv_buf c into && Netsim.Buf.equal_string into expect)
          then Alcotest.fail "bad GET reply")
  in
  check bool
    (Printf.sprintf "%.1f minor words per supervised GET, budget %.0f" words
       supervised_get_budget)
    true
    (words <= supervised_get_budget)

(* A SET carrying a rid, each with a fresh one, supervised, from
   prebuilt buffers: the journal copies the rid into a slot it keeps,
   so what is left is the wakes' continuations and a slot's first key
   buffer while the journal fills. Pinned at the 9.9 words measured;
   11.9 while the server's wait returned its connection in an option,
   24.0 while the rid was copied out of the line into a string,
   journaled in a [Hashtbl] and a [Queue] and each wake boxed its time,
   165.2 while the bracket, the deferred write and the slab allocator
   built closures, tuples and options. *)
let set_rid_budget = 10.0

let test_set_rid_alloc () =
  let words =
    get_round_trip_words
      ~supervisor:(fun sd -> Resilience.Supervisor.attach sd)
      (fun c ~req:_ ~expect:_ ->
        let value = String.make 32 's' in
        let reqs =
          Array.init 2_200 (fun i ->
              let b = Netsim.Buf.create () in
              Netsim.Buf.add_string b
                (Proto.fmt_set_rid ~rid:(Printf.sprintf "r%d" i)
                   ~key:"user00000002" ~flags:0 ~value);
              b)
        in
        let into = Netsim.Buf.create () and i = ref 0 in
        fun () ->
          Netsim.send_buf c reqs.(!i);
          incr i;
          if not (Netsim.recv_buf c into && Netsim.Buf.equal_string into Proto.stored)
          then Alcotest.fail "bad SET reply")
  in
  check bool
    (Printf.sprintf "%.1f minor words per SET with a rid, budget %.0f" words
       set_rid_budget)
    true
    (words <= set_rid_budget)

(* A 16-client YCSB-B run of 8,000 ops on 500 records against a SDRaD
   kvcache: the words of the run less those of the same set-up with no
   run phase, per op. Pinned at the 8.6 measured; 10.8 while the
   server's wait returned its connection in an option and each client
   built its kit from closures, 17.4 while each wake boxed its time
   and each draw of the key and the operation a float, 79.0 while the
   server's handler
   built its closures, read its request lines as strings and the store
   allocated per write, 318.1 while every message was a fresh string
   (requests, keys, values and replies) and store lookups allocated,
   401.1 while each suspension built closures and each message a queue
   cell, 592.2 while the monitor's gates and TLSF allocated, and 1,058.3
   with the copying and [Printf] wire code. *)
let ycsb_words_per_op_budget = 8.7

let ycsb_words ~ops =
  Alloc_probe.words_per_call ~warmup:0 ~n:1 (fun () ->
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
      check int "no failures" 0 r.result.failures)

(* What an open-loop session costs the host: its run-phase thread, its
   kit, its connection and one retried op. The words of a run of 1,000
   clients of one op each less those of a run of one such client, per
   added client. The load phase is the same in both: the last client
   loads every record, and the others, with nothing to load, are not
   spawned. Pinned at the 205.1 words measured; 214.1 while the serving
   core kept each connection's buffer in a table by connection id;
   280.1 while each of them was spawned as an idle load-phase thread, a
   connection's set-up allocated options, queue cells and boxed charges
   and its inboxes four slots each, and the retry-id prefix was built
   by concatenation;
   514.1 while each client built its kit from closures, its thread
   names and retry-id prefix with [Printf], its retry engine's metric
   closures and its open-loop wait's boxed float, and each wait of the
   server's returned an option. *)
let session_words_budget = 205.2

let session_words ~clients =
  Alloc_probe.words_per_call ~warmup:0 ~n:1 (fun () ->
      let r =
        Scenario.kvcache (Scenario.world ~size_mib:32 ())
          { Server.default_config with variant = Server.Baseline }
          (Ycsb
             {
               Workload.Ycsb.default_config with
               records = 100;
               operations = clients;
               clients;
               distribution = Workload.Ycsb.Uniform;
               retry = Some Resilience.Retry.default_policy;
               arrival_interval = 20_000.0;
             })
      in
      check int "no failures" 0 r.result.failures)

let test_session_alloc () =
  let clients = 1_000 in
  let per_client =
    (session_words ~clients -. session_words ~clients:1)
    /. float_of_int (clients - 1)
  in
  check bool
    (Printf.sprintf "%.1f minor words per session, budget %.1f" per_client
       session_words_budget)
    true
    (per_client <= session_words_budget)

(* A connection holds no buffer, only its worker does: accepting a
   connection into the serving core and closing it allocate nothing,
   in host words or in simulated memory. One run opens and closes
   connections one at a time against the core's acceptor and one
   worker, another against a bare acceptor and event loop made of the
   same Netsim calls. Their host words and their server threads' busy
   cycles per connection must match: the core's own words would show in
   the first, and an allocator call in the second, as the glibc model's
   charges. While the core kept a buffer per connection, a connection
   cost 130 cycles and 17 host words more than the bare loop's 3,000
   and 42. *)
let bare_server sched net ~port =
  let l = Netsim.listen net ~port and ws = Netsim.Waitset.create () in
  let req = Netsim.Buf.create () in
  let rec accept_loop () =
    match Netsim.accept l with
    | None -> ()
    | Some c ->
        Netsim.Waitset.add ws c;
        accept_loop ()
  in
  let rec serve () =
    let c = Netsim.Waitset.wait ws in
    if c != Netsim.no_conn then begin
      if not (Netsim.recv_buf c req) then begin
        Netsim.Waitset.remove ws c;
        Netsim.close c
      end;
      serve ()
    end
  in
  let tids =
    [ Sched.spawn sched ~name:"bare-accept" accept_loop;
      Sched.spawn sched ~name:"bare-worker" serve ]
  in
  ( tids,
    fun () ->
      Netsim.close_listener l;
      Netsim.Waitset.close ws )

let core_server sched net ~port =
  let space = Space.create ~size_mib:32 () in
  let counters m =
    let module M = Telemetry.Metrics in
    {
      Serve.served = M.counter m "pin_served_total";
      rewinds = M.counter m "pin_rewinds_total";
      busy = M.counter m "pin_busy_total";
      shed = M.counter m "pin_shed_total";
      dropped = M.counter m "pin_dropped_total";
      rewind_cycles = M.histogram m "pin_rewind_cycles";
    }
  in
  let core =
    Serve.create space Serve.Baseline net ~port ~workers:1 One_process
      ~name:"pin" ~alloc_site:"pin.alloc"
      ~malloc_region:(fun len -> Space.mmap space ~len ~prot:Prot.rw ~pkey:0)
      ~journal_cap:16 ~proc_cycles:0.0 ~shed_queue_limit:0
      ~gate_batch_limit:0 ~race_detector:false ~counters ()
  in
  Serve.start core sched ~threads:"pin" ~shed:(fun _ _ _ -> ())
    ~serve:(fun _ _ _ -> ());
  (Serve.threads core, fun () -> Serve.stop core)

(* Host words and server busy cycles per connection opened and closed,
   after a warm-up. *)
let lifecycle_cost server =
  let n = 1_000 and port = 11211 in
  Sched.main (fun sched ->
      let net = Netsim.create Simkern.Cost.default in
      let tids, stop = server sched net ~port in
      let busy () =
        List.fold_left
          (fun acc tid ->
            match
              (Sched.thread_clock sched tid, Sched.thread_waited sched tid)
            with
            | Some c, Some w -> acc +. (c -. w)
            | _ -> acc)
          0.0 tids
      in
      let cycle () =
        let c = Netsim.connect net ~port in
        Sched.sleep 10_000.0;
        Netsim.close c;
        Sched.sleep 10_000.0
      in
      for _ = 1 to 100 do
        cycle ()
      done;
      let w0 = Gc.minor_words () and b0 = busy () in
      for _ = 1 to n do
        cycle ()
      done;
      let w1 = Gc.minor_words () and b1 = busy () in
      stop ();
      ((w1 -. w0) /. float_of_int n, (b1 -. b0) /. float_of_int n))

let test_accept_close_alloc () =
  let core_words, core_busy = lifecycle_cost core_server in
  let bare_words, bare_busy = lifecycle_cost bare_server in
  check bool
    (Printf.sprintf "%.1f host words a connection, the bare loop's %.1f"
       core_words bare_words)
    true (core_words <= bare_words);
  check bool
    (Printf.sprintf "%.0f busy cycles a connection, the bare loop's %.0f"
       core_busy bare_busy)
    true (core_busy = bare_busy)

let test_ycsb_alloc () =
  let ops = 8_000 in
  let per_op = (ycsb_words ~ops -. ycsb_words ~ops:0) /. float_of_int ops in
  check bool
    (Printf.sprintf "%.1f minor words per op, budget %.1f" per_op
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
          Alcotest.test_case "table grows like one made at its size" `Quick
            test_store_growth_differential;
          Alcotest.test_case "table growth is charged" `Quick
            test_store_growth_charged;
          Alcotest.test_case "table growth without memory" `Quick
            test_store_growth_without_memory;
          Alcotest.test_case "check matches its reference" `Quick
            test_store_check_matches_reference;
          Alcotest.test_case "check host allocation" `Quick
            test_store_check_alloc;
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
          Alcotest.test_case "1 KiB GET round trip from buffers host allocation"
            `Quick test_get_round_trip_buffer_alloc;
          Alcotest.test_case "supervised 1 KiB GET from buffers host allocation"
            `Quick test_supervised_get_alloc;
          Alcotest.test_case "SET with a rid host allocation" `Quick
            test_set_rid_alloc;
          Alcotest.test_case "open-loop session host allocation" `Quick
            test_session_alloc;
          Alcotest.test_case "accepting and closing a connection allocates nothing"
            `Quick test_accept_close_alloc;
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
          Alcotest.test_case "live set drains" `Quick test_live_set_drains;
          Alcotest.test_case "64 held connections served, baseline" `Quick
            (test_held_connections_served Server.Baseline);
          Alcotest.test_case "64 held connections served, sdrad" `Quick
            (test_held_connections_served Server.Sdrad);
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
          Alcotest.test_case "space exhaustion evicts, baseline" `Quick
            (test_space_exhaustion_evicts Server.Baseline);
          Alcotest.test_case "space exhaustion evicts, sdrad" `Quick
            (test_space_exhaustion_evicts Server.Sdrad);
        ] );
      ( "ycsb",
        [
          Alcotest.test_case "baseline" `Quick test_ycsb_baseline;
          Alcotest.test_case "sdrad" `Quick test_ycsb_sdrad;
          Alcotest.test_case "deterministic" `Quick test_ycsb_deterministic;
          Alcotest.test_case "overhead bounded" `Quick test_sdrad_slower_than_baseline;
          Alcotest.test_case "sdrad pages over baseline's stay flat" `Quick
            test_sdrad_pages_flat;
          Alcotest.test_case "stats command" `Quick test_stats_command;
          Alcotest.test_case "workload d inserts" `Quick test_workload_d_inserts_grow_keyspace;
          Alcotest.test_case "uniform single record" `Quick test_uniform_single_record;
          Alcotest.test_case "multi-get" `Quick test_multi_get;
          Alcotest.test_case "incr/decr" `Quick test_incr_decr;
          Alcotest.test_case "add/replace" `Quick test_add_replace_semantics;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        ] );
    ]
