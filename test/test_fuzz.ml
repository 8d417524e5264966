(* Fuzzing-style robustness properties: the parsers and decoders that face
   untrusted bytes must never raise anything but their declared errors,
   whether they run unprotected (on inputs that cannot corrupt memory) or
   inside a domain (where a memory fault is an acceptable, contained
   outcome). *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types
module Proto = Kvcache.Proto
module Bin = Kvcache.Binproto
module Hp = Httpd.Http_parse

let with_buffer data f =
  let result = ref true in
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:8 () in
      let buf = Space.mmap space ~len:(max 4096 (String.length data + 64)) ~prot:Prot.rw ~pkey:0 in
      if String.length data > 0 then Space.store_string space buf data;
      result := f space buf);
  !result

(* Arbitrary bytes, plus mutations of valid frames (more likely to reach
   deep parser states than pure noise). *)
let mutated_frame base =
  QCheck.Gen.(
    let* flips = int_range 1 6 in
    let* positions = list_size (return flips) (int_range 0 (String.length base - 1)) in
    let* values = list_size (return flips) (int_range 0 255) in
    let b = Bytes.of_string base in
    List.iter2 (fun p v -> Bytes.set b p (Char.chr v)) positions values;
    return (Bytes.to_string b))

let fuzz_input =
  QCheck.make
    QCheck.Gen.(
      oneof
        [
          string_size (int_range 0 200);
          mutated_frame (Proto.fmt_set ~key:"somekey" ~flags:3 ~value:"value body");
          mutated_frame (Bin.req_set ~key:"somekey" ~flags:3 ~value:"value body");
          mutated_frame "GET /a/b/../c%41?q=1 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
        ])

(* Every strict prefix of a valid frame — the truncations a lossy link
   can produce. Unlike random mutation this deterministically covers each
   boundary (mid-token, mid-header, mid-length-field, mid-payload). Each
   frame is paired with the idempotency key it carries (if any), because
   the property under test is about rid integrity. *)
let truncation_corpus =
  let frames =
    [
      (Proto.fmt_set ~key:"somekey" ~flags:3 ~value:"value body", None);
      ( Proto.fmt_set_rid ~rid:"abc-7" ~key:"somekey" ~flags:3 ~value:"vv",
        Some "abc-7" );
      (Proto.fmt_incr ~rid:"abc-8" "counter" 2, Some "abc-8");
      (Proto.fmt_delete ~rid:"abc-9" "somekey", Some "abc-9");
      (Bin.req_set ~key:"somekey" ~flags:3 ~value:"value body", None);
      ( Bin.req_set_opaque ~opaque:77 ~key:"somekey" ~flags:3 ~value:"vv",
        Some "bin-77" );
      (Bin.req_delete ~opaque:78 "somekey", Some "bin-78");
    ]
  in
  List.concat_map
    (fun (frame, rid) ->
      List.init (String.length frame) (fun len -> (String.sub frame 0 len, rid)))
    frames

let truncated_input =
  QCheck.make
    ~print:(fun (data, _) -> Printf.sprintf "%S" data)
    QCheck.Gen.(oneofl truncation_corpus)

(* Idempotency keys are all-or-nothing under truncation: a cut frame must
   parse totally (no exception) and, if it still parses as a mutation,
   carry either no rid or exactly the original one — never a prefix.
   A partial rid would be catastrophic for at-most-once: it could collide
   with a different operation's journal entry and replay its response. *)
let truncation_never_invents_a_rid =
  let corpus_ok (data, orig_rid) =
    with_buffer data (fun space buf ->
        let len = String.length data in
        let r = Proto.create () in
        let rid_ok () =
          match r.Proto.kind with
          | Set | Add | Replace | Delete | Incr | Decr ->
              r.rid_len = 0 || Some (Proto.rid_string r) = orig_rid
          | _ -> true
        in
        (Proto.parse r space ~addr:buf ~len;
         rid_ok ())
        && (Bin.parse r space ~addr:buf ~len;
            rid_ok ()))
  in
  QCheck.Test.make
    ~name:"truncated frames never carry a partial rid"
    ~count:(List.length truncation_corpus)
    truncated_input corpus_ok

(* A truncated [set] must never be stored: either the frame no longer
   parses, or the payload is shorter than declared and the server-side
   length check rejects it before it reaches the store. *)
let truncation_never_stores_short_data =
  let corpus_ok (data, _) =
    with_buffer data (fun space buf ->
        let len = String.length data in
        let r = Proto.create () in
        let short_detectable () =
          match r.Proto.kind with
          | Set | Add | Replace -> r.declared_len <> r.data_len
          | _ -> true
        in
        (Proto.parse r space ~addr:buf ~len;
         short_detectable ())
        && (Bin.parse r space ~addr:buf ~len;
            short_detectable ()))
  in
  QCheck.Test.make
    ~name:"truncated sets are detectably short"
    ~count:(List.length truncation_corpus)
    truncated_input corpus_ok

let text_proto_total =
  QCheck.Test.make ~name:"memcached text parser never throws" ~count:300 fuzz_input
    (fun data ->
      with_buffer data (fun space buf ->
          Proto.parse (Proto.create ()) space ~addr:buf
            ~len:(String.length data);
          true))

let bin_proto_total =
  QCheck.Test.make ~name:"memcached binary parser never throws" ~count:300 fuzz_input
    (fun data ->
      with_buffer data (fun space buf ->
          Bin.parse (Proto.create ()) space ~addr:buf
            ~len:(String.length data);
          true))

(* Replies a client can receive: every strict prefix of a text value
   reply (one hit and two) and of a binary one — what a truncating link
   delivers — plus value blocks with negative and oversized lengths and
   binary frames whose lengths disagree with their body. *)
let bin_value_reply =
  (* [res_value ~flags:7] of "hello": 4 extras bytes, then the value. *)
  "\x81\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x09" ^ String.make 12 '\000'
  ^ "\x00\x00\x00\x07hello"

let strict_prefixes s = List.init (String.length s) (fun n -> String.sub s 0 n)

let reply_corpus =
  strict_prefixes "VALUE k 0 5\r\nhello\r\nEND\r\n"
  @ strict_prefixes "VALUE a 0 1\r\nx\r\nVALUE b 3 2\r\nyz\r\nEND\r\n"
  @ strict_prefixes bin_value_reply
  @ [
      "VALUE k 0 -3\r\nhello\r\nEND\r\n";
      "VALUE k 0 -1\r\n\r\nEND\r\n";
      "VALUE k 0 -12\r\nhello\r\nEND\r\n";
      "VALUE a 0 1\r\nx\r\nVALUE b 0 -3\r\nyz\r\nEND\r\n";
      "VALUE k 0 4611686018427387903\r\nhello\r\nEND\r\n";
      "VALUE k 0 4611686018427387900\r\nhello\r\nEND\r\n";
      "VALUE k 0 0x3fffffffffffffff\r\nhello\r\nEND\r\n";
      "VALUE k 0 99999999999999999999\r\nhello\r\nEND\r\n";
      "VALUE k 0 6\r\nhello\r\nEND\r\n";
      String.sub bin_value_reply 0 8 ^ "\xff\xff\xff\xff"
      ^ String.sub bin_value_reply 12 (String.length bin_value_reply - 12);
      String.sub bin_value_reply 0 4 ^ "\xff"
      ^ String.sub bin_value_reply 5 (String.length bin_value_reply - 5);
      bin_value_reply ^ "!";
    ]

let reply_parsers_total () =
  List.iter
    (fun data ->
      match (Proto.parse_reply data, Bin.parse_reply data) with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%S raised %s" data (Printexc.to_string e))
    reply_corpus;
  List.iter
    (fun data ->
      match Bin.parse_reply data with
      | Proto.Value v ->
          Alcotest.failf "binary prefix %S parsed as Value %S" data v
      | _ -> ())
    (strict_prefixes bin_value_reply);
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 fuzz_input (fun data ->
         match (Proto.parse_reply data, Bin.parse_reply data) with _ -> true))

(* The text reply parser as it was before it walked VALUE blocks in
   place: the new one returns the same for every input on which this one
   returns. *)
module Ref_reply = struct
  let split_words s =
    String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

  let parse_stats s =
    List.filter_map
      (fun line ->
        match split_words (String.trim line) with
        | [ "STAT"; k; v ] -> Some (k, v)
        | _ -> None)
      (String.split_on_char '\n' s)

  let has_at s off lit =
    off >= 0
    && String.length s - off >= String.length lit
    && String.sub s off (String.length lit) = lit

  let number_prefix s =
    let t = String.trim s in
    t <> "" && match t.[0] with '0' .. '9' | '-' | '+' -> true | _ -> false

  let parse_reply s =
    let open Proto in
    if s = not_stored then NotFound
    else if
      String.length s >= 3 && number_prefix s
      && Option.is_some (int_of_string_opt (String.trim s))
    then Number (int_of_string (String.trim s))
    else if has_at s 0 "STAT " then StatsReply (parse_stats s)
    else if s = stored then Stored
    else if s = deleted then Deleted
    else if s = not_found then NotFound
    else if s = end_ then Miss
    else if String.length s > 6 && has_at s 0 "VALUE " then begin
      let rec blocks off acc =
        if off >= String.length s then Some (List.rev acc)
        else if has_at s off end_ then Some (List.rev acc)
        else
          match String.index_from_opt s off '\r' with
          | None -> None
          | Some cr -> (
              match split_words (String.sub s off (cr - off)) with
              | [ "VALUE"; key; _flags; len ] -> (
                  (* A VALUE length is plain digits, as memcached
                     writes it: no sign, base prefix or underscore. *)
                  match
                    if String.for_all (fun c -> c >= '0' && c <= '9') len
                    then int_of_string_opt len
                    else None
                  with
                  | Some n when cr + 2 + n + 2 <= String.length s ->
                      blocks (cr + 2 + n + 2)
                        ((key, String.sub s (cr + 2) n) :: acc)
                  | _ -> None)
              | _ -> None)
      in
      match blocks 0 [] with
      | Some [ (_, v) ] -> Value v
      | Some hits -> Values hits
      | None -> Failed "malformed VALUE block"
    end
    else Failed s
end

let reply_samples =
  reply_corpus
  @ [
      "42\r\n"; "  7\r\n"; "\t12 \r\n"; "-3\r\n"; "+5\r\n"; "12"; "-\r\n";
      "STAT pid 1\r\nSTAT uptime 5\r\nEND\r\n"; " STAT a b\r\n";
      "STAT a\tb c\r\n"; Proto.stored; Proto.not_stored; Proto.deleted;
      Proto.not_found; Proto.end_; Proto.error; Proto.server_error_busy;
      "VALUE k 0 5\r\nhello\r\nEND\r\ntrailing"; "VALUE  k  0  5 \r\nhello\r\n";
      "VALUE k\t0 5\r\nhello\r\nEND\r\n"; "VALUE k 0 +5\r\nhello\r\nEND\r\n";
      "VALUE k 0 0x5\r\nhello\r\nEND\r\n"; "VALUE k 0 0_5\r\nhello\r\nEND\r\n";
    ]

(* [reply_ok] is "[parse_reply] is not [Failed]", and [parse_reply] is
   the old parser wherever the old one returned (it raised on negative
   and oversized value lengths; those are [Failed] now). *)
let reply_check_agrees () =
  let agree data =
    let r = Proto.parse_reply data in
    (* Read in place, as a reply in a reused buffer is: only its length
       counts, whatever follows it. *)
    let ok = Proto.reply_ok data (String.length data) in
    if Proto.reply_ok (data ^ "VALUE x 0 1\r\nz\r\n") (String.length data) <> ok
    then Alcotest.failf "%S: reply_ok read past the reply" data;
    (match r with
    | Proto.Failed _ ->
        if ok then Alcotest.failf "%S: reply_ok but Failed" data
    | _ ->
        if not ok then
          Alcotest.failf "%S: not reply_ok but parsed" data);
    match Ref_reply.parse_reply data with
    | old -> if old <> r then Alcotest.failf "%S: differs from the old parser" data
    | exception Invalid_argument _ -> (
        match r with
        | Proto.Failed _ -> ()
        | _ -> Alcotest.failf "%S: old parser raised, new one parsed" data)
  in
  List.iter agree reply_samples;
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:1000 fuzz_input (fun data ->
         agree data;
         true))

(* The patched HTTP parser may reject (Bad_request) but must not raise
   anything else or touch memory out of bounds. *)
let http_parser_total =
  QCheck.Test.make ~name:"patched http parser: Bad_request or success" ~count:300
    fuzz_input (fun data ->
      with_buffer data (fun space buf ->
          let len = String.length data in
          match
            let rl, hdr_off = Hp.parse_request_line space ~addr:buf ~len in
            let dst = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
            let _ =
              Hp.parse_complex_uri space ~src:rl.Hp.raw_uri_off
                ~len:rl.Hp.raw_uri_len ~dst ~dst_cap:2048 ~vulnerable:false
            in
            Hp.parse_headers space ~addr:hdr_off ~len:(len - (hdr_off - buf))
          with
          | _ -> true
          | exception Hp.Bad_request _ -> true))

(* The *vulnerable* parser inside a domain: any input either parses,
   rejects, or rewinds — the thread must survive regardless. *)
let http_vulnerable_in_domain_contained =
  QCheck.Test.make ~name:"vulnerable http parser contained by a domain" ~count:120
    fuzz_input (fun data ->
      let survived = ref false in
      Sched.main (fun _ ->
          let space = Space.create ~size_mib:16 () in
          let sd = Api.create space in
          let verdict =
            Api.run sd ~udi:1
              ~on_rewind:(fun _ -> `Rewound)
              (fun () ->
                let len = String.length data in
                let copy = Api.malloc sd ~udi:1 (max 8 (len + 8)) in
                let dst = Api.malloc sd ~udi:1 2048 in
                if len > 0 then Space.store_string space copy data;
                Api.enter sd 1;
                let r =
                  match
                    let rl, _ = Hp.parse_request_line space ~addr:copy ~len in
                    Hp.parse_complex_uri space ~src:rl.Hp.raw_uri_off
                      ~len:rl.Hp.raw_uri_len ~dst ~dst_cap:2048 ~vulnerable:true
                  with
                  | _ -> `Parsed
                  | exception Hp.Bad_request _ -> `Rejected
                in
                Api.exit_domain sd;
                r)
          in
          (match verdict with `Parsed | `Rejected | `Rewound -> ());
          survived := Api.current sd = Types.root_udi);
      !survived)

(* Image decoder: patched build totals to Bad_image; vulnerable build in a
   domain totals to Ok/Error-fault. *)
let image_input =
  QCheck.make
    QCheck.Gen.(
      oneof
        [
          string_size (int_range 0 120);
          mutated_frame (Render.encode ~width:6 ~height:5 (fun x y -> (x, y, 42)));
        ])

let render_patched_total =
  QCheck.Test.make ~name:"patched image decoder: Bad_image or success" ~count:200
    image_input (fun data ->
      with_buffer data (fun space buf ->
          match
            Render.decode space
              ~alloc:(fun n -> Space.mmap space ~len:(max 16 n) ~prot:Prot.rw ~pkey:0)
              ~src:buf ~len:(String.length data) ~vulnerable:false
          with
          | _ -> true
          | exception Render.Bad_image _ -> true
          | exception Failure _ ->
              (* Allocation failure on a large-but-legal image: the tiny
                 8 MiB fuzz arena, not the decoder, ran out. *)
              true))

let render_vulnerable_contained =
  QCheck.Test.make ~name:"vulnerable image decoder contained by a domain" ~count:100
    image_input (fun data ->
      let survived = ref false in
      Sched.main (fun _ ->
          let space = Space.create ~size_mib:16 () in
          let sd = Api.create space in
          (match Render.decode_isolated sd ~vulnerable:true data with
          | Ok _ | Error _ -> ()
          | exception Render.Bad_image _ -> ());
          survived := Api.current sd = Types.root_udi);
      !survived)

(* GCM decryption must reject every forged tag. *)
let gcm_forgery_rejected =
  QCheck.Test.make ~name:"gcm rejects forged ciphertexts" ~count:150
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 100)) (int_range 0 115))
    (fun (p, flip) ->
      let key = String.make 32 'K' and iv = String.make 12 'I' in
      let c, tag = Crypto.Gcm.one_shot_encrypt ~key ~iv p in
      let blob = Bytes.of_string (c ^ tag) in
      let pos = flip mod Bytes.length blob in
      Bytes.set blob pos (Char.chr (Char.code (Bytes.get blob pos) lxor 0x20));
      let forged = Bytes.to_string blob in
      let c' = String.sub forged 0 (String.length c) in
      let tag' = String.sub forged (String.length c) 16 in
      Crypto.Gcm.one_shot_decrypt ~key ~iv ~tag:tag' c' = None)

let vfs_paths_total =
  QCheck.Test.make ~name:"vfs path handling: Fs_error or success" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 40))
    (fun path ->
      let ok = ref true in
      Sched.main (fun _ ->
          let space = Space.create ~size_mib:8 () in
          let fs = Vfs.format space ~blocks:64 () in
          (match Vfs.exists fs path with
          | _ -> ()
          | exception Vfs.Fs_error _ -> ());
          (match Vfs.create fs ~path ~data:"x" with
          | () -> if Vfs.read_all fs path <> "x" then ok := false
          | exception Vfs.Fs_error _ -> ());
          if Vfs.check fs <> [] then ok := false);
      !ok)

let () =
  Alcotest.run "fuzz"
    [
      ( "parsers",
        [
          QCheck_alcotest.to_alcotest text_proto_total;
          QCheck_alcotest.to_alcotest bin_proto_total;
          Alcotest.test_case "client reply parsers never throw" `Quick
            reply_parsers_total;
          Alcotest.test_case "reply check agrees with parse_reply" `Quick
            reply_check_agrees;
          QCheck_alcotest.to_alcotest http_parser_total;
        ] );
      ( "truncation",
        [
          QCheck_alcotest.to_alcotest truncation_never_invents_a_rid;
          QCheck_alcotest.to_alcotest truncation_never_stores_short_data;
        ] );
      ( "containment",
        [
          QCheck_alcotest.to_alcotest http_vulnerable_in_domain_contained;
          QCheck_alcotest.to_alcotest render_vulnerable_contained;
        ] );
      ( "decoders",
        [
          QCheck_alcotest.to_alcotest render_patched_total;
          QCheck_alcotest.to_alcotest gcm_forgery_rejected;
          QCheck_alcotest.to_alcotest vfs_paths_total;
        ] );
    ]
