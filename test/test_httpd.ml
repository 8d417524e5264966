(* Tests for the NGINX analogue: the phased HTTP parser (including the
   CVE-2009-2629 URI underflow), the master/worker server with restart,
   SDRaD parser isolation, and the OpenSSL client-certificate case
   study (CVE-2022-3786) wired through the web server. *)

module Space = Vmem.Space
module Prot = Vmem.Prot
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Hp = Httpd.Http_parse
module Server = Httpd.Server
module Fs = Httpd.Fs
module Load = Workload.Http_load

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* {1 Parser} *)

let with_bufs f =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:16 () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      let dst = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
      f space buf dst)

let normalize ?(vulnerable = false) space buf dst uri =
  Space.store_string space buf uri;
  let n =
    Hp.parse_complex_uri space ~src:buf ~len:(String.length uri) ~dst
      ~dst_cap:2048 ~vulnerable
  in
  Space.read_string space dst n

let test_parse_request_line () =
  with_bufs (fun space buf _ ->
      let req = "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n" in
      Space.store_string space buf req;
      let rl, off = Hp.parse_request_line space ~addr:buf ~len:(String.length req) in
      check string "method" "GET" rl.Hp.meth;
      check string "version" "HTTP/1.1" rl.Hp.version;
      check string "uri" "/index.html"
        (Space.read_string space rl.Hp.raw_uri_off rl.Hp.raw_uri_len);
      check int "offset past CRLF" (buf + 26) off)

let test_parse_request_line_rejects () =
  with_bufs (fun space buf _ ->
      let reject req =
        Space.store_string space buf req;
        match Hp.parse_request_line space ~addr:buf ~len:(String.length req) with
        | _ -> Alcotest.failf "accepted %S" req
        | exception Hp.Bad_request _ -> ()
      in
      reject "FROB / HTTP/1.1\r\n";
      reject "GET noslash HTTP/1.1\r\n";
      reject "GET / SPDY/9\r\n";
      reject "GET / HTTP/1.1")

let test_uri_normalization () =
  with_bufs (fun space buf dst ->
      check string "plain" "/a/b.html" (normalize space buf dst "/a/b.html");
      check string "merge slashes" "/a/b" (normalize space buf dst "//a///b");
      check string "dot segment" "/a/b" (normalize space buf dst "/a/./b");
      check string "dotdot" "/b" (normalize space buf dst "/a/../b");
      check string "deep dotdot" "/a/d" (normalize space buf dst "/a/b/c/../../d");
      check string "percent decode" "/a b" (normalize space buf dst "/a%20b");
      check string "trailing dotdot" "/" (normalize space buf dst "/a/..");
      check string "dot at end" "/a/" (normalize space buf dst "/a/."))

let test_uri_escape_rejected_when_patched () =
  with_bufs (fun space buf dst ->
      match normalize space buf dst "/a/../../etc/passwd" with
      | _ -> Alcotest.fail "escape accepted"
      | exception Hp.Bad_request _ -> ())

let test_uri_underflow_when_vulnerable () =
  with_bufs (fun space buf dst ->
      (* The vulnerable scan walks below [dst]; with a fresh mapping the
         guard page stops it with a SEGV — the CVE's crash. *)
      match normalize ~vulnerable:true space buf dst "/a/../../etc" with
      | _ -> Alcotest.fail "underflow did not fault"
      | exception Space.Fault { code; access; _ } ->
          check bool "maperr" true (code = Space.MAPERR);
          check bool "read underflow" true (access = Space.Read))

(* Only the fields the server reads are kept: names match in any case,
   values are trimmed, and the first of each wins. *)
let test_parse_headers () =
  with_bufs (fun space buf _ ->
      let hdrs =
        "Host: example.com\r\nx-CLIENT-cert: abc\r\nAccept: */*\r\n\
         CONNECTION:  Close \t\r\nConnection: keep-alive\r\n\
         X-Request-Id: r1\r\nx-request-id: r2\r\n\r\nBODY"
      in
      Space.store_string space buf hdrs;
      let p, off = Hp.parse_headers space ~addr:buf ~len:(String.length hdrs) in
      check (Alcotest.option string) "cert" (Some "abc") p.Hp.client_cert;
      check (Alcotest.option string) "first request id" (Some "r1")
        p.Hp.request_id;
      check bool "first Connection field: close" false (Hp.keep_alive p);
      check int "no content-length, no body" 0 (Hp.body_length p ~avail:0);
      check string "rest is body" "BODY"
        (Space.read_string space (buf + off) 4))

(* {1 In-place parser against the list-based reference} *)

module Ref = Http_parse_ref

(* Runs one phase: its verdict and the clock after it go to the log. *)
type phase = { phase : 'a. string -> (unit -> 'a) -> 'a option }

(* What one parser does with [req]: each phase's verdict and the
   simulated clock after it, and what it found. The header phase runs
   even when the URI phase failed; neither depends on the other. *)
let observe parser (req, vulnerable) =
  Sched.main (fun _ ->
      let space = Space.create ~size_mib:4 () in
      let buf = Space.mmap space ~len:8192 ~prot:Prot.rw ~pkey:0 in
      let dst = Space.mmap space ~len:4096 ~prot:Prot.rw ~pkey:0 in
      Space.store_string space buf req;
      Space.fill space ~addr:dst ~len:4096 '\000';
      let log = ref [] in
      let note s = log := s :: !log in
      let phase name f =
        match f () with
        | v ->
            note (Printf.sprintf "%s ok at %h" name (Sched.now ()));
            Some v
        | exception Hp.Bad_request _ ->
            note (Printf.sprintf "%s bad at %h" name (Sched.now ()));
            None
        | exception Space.Fault _ ->
            note (Printf.sprintf "%s fault at %h" name (Sched.now ()));
            None
      in
      parser space ~buf ~len:(String.length req) ~dst ~vulnerable
        ~run:{ phase } ~note;
      List.rev !log)

let show = function None -> "-" | Some s -> Printf.sprintf "%S" s

let reference space ~buf ~len ~dst ~vulnerable ~run:{ phase } ~note =
  match
    phase "request line" (fun () -> Ref.parse_request_line space ~addr:buf ~len)
  with
  | None -> ()
  | Some (rl, hdr_off) -> (
      note
      @@ Printf.sprintf "%s %s uri %d+%d headers at %d" rl.Ref.meth
           rl.Ref.version (rl.Ref.raw_uri_off - buf) rl.Ref.raw_uri_len
           (hdr_off - buf);
      (match
         phase "uri" (fun () ->
             Ref.parse_complex_uri space ~src:rl.Ref.raw_uri_off
               ~len:rl.Ref.raw_uri_len ~dst ~dst_cap:2048 ~vulnerable)
       with
      | Some n -> note @@ Printf.sprintf "path %S" (Space.read_string space dst n)
      | None -> ());
      match
        phase "headers" (fun () ->
            let headers, hdr_len =
              Ref.parse_headers space ~addr:hdr_off ~len:(len - (hdr_off - buf))
            in
            let body_off = hdr_off + hdr_len in
            (headers, body_off, Ref.validate_body headers ~avail:(buf + len - body_off)))
      with
      | Some (headers, body_off, body_len) ->
          note
          @@ Printf.sprintf "body %d+%d keep-alive %b id %s cert %s"
               (body_off - buf) body_len
            (Ref.wants_keep_alive ~version:rl.Ref.version ~headers)
            (show (Ref.find_header headers "x-request-id"))
            (show (Ref.find_header headers "x-client-cert"))
      | None -> ())

let in_place space ~buf ~len ~dst ~vulnerable ~run:{ phase } ~note =
  let p = Hp.create () in
  match
    phase "request line" (fun () -> Hp.request_line p space ~addr:buf ~len)
  with
  | None -> ()
  | Some hdr_off -> (
      note
      @@ Printf.sprintf "%s %s uri %d+%d headers at %d" p.Hp.meth p.Hp.version
           (p.Hp.raw_uri_off - buf) p.Hp.raw_uri_len (hdr_off - buf);
      (match
         phase "uri" (fun () ->
             Hp.parse_complex_uri space ~src:p.Hp.raw_uri_off
               ~len:p.Hp.raw_uri_len ~dst ~dst_cap:2048 ~vulnerable)
       with
      | Some n -> note @@ Printf.sprintf "path %S" (Space.read_string space dst n)
      | None -> ());
      match
        phase "headers" (fun () ->
            let body_off =
              hdr_off + Hp.headers p space ~addr:hdr_off ~len:(len - (hdr_off - buf))
            in
            (body_off, Hp.body_length p ~avail:(buf + len - body_off)))
      with
      | Some (body_off, body_len) ->
          note
          @@ Printf.sprintf "body %d+%d keep-alive %b id %s cert %s"
               (body_off - buf) body_len
            (Hp.keep_alive p) (show p.Hp.request_id) (show p.Hp.client_cert)
      | None -> ())

(* Requests near the valid ones: every method and version the parser
   knows and some it does not, URIs with dot segments, doubled slashes
   and escapes, header names in mixed case and repeated, lines without a
   colon or a CRLF, empty values, and Content-Length in every spelling
   [int_of_string] would take. *)
let request_gen =
  let open QCheck.Gen in
  let eol =
    frequency
      [ (25, return "\r\n"); (1, return "\n"); (1, return "\r"); (1, return "") ]
  in
  let sp = frequency [ (20, return " "); (1, return "  "); (1, return "") ] in
  let meth =
    frequency
      [ (4, return "GET"); (2, return "HEAD"); (3, return "POST"); (1, return "PUT");
        (1, return "get"); (1, return "") ]
  in
  let version =
    frequency
      [ (4, return "HTTP/1.1"); (3, return "HTTP/1.0"); (1, return "HTTP/2.0");
        (1, return "http/1.1"); (1, return "") ]
  in
  let uri =
    oneof
      [
        oneofl
          [ "/index.html"; "/a/../b"; "//x///y/"; "/a/./b/."; "/%41%2Fz"; "/%zz";
            "/%g1"; "/%4"; "/a/../../x"; "/.."; "noslash"; ""; "/a b" ];
        map
          (fun parts -> "/" ^ String.concat "" parts)
          (list_size (int_range 0 8)
             (oneofl [ "a"; "bc"; "/"; "."; ".."; "%2e"; "%2F"; "%"; "%4g" ]));
      ]
  in
  let name =
    oneofl
      [ "Host"; "Connection"; "CONNECTION"; "connection"; "Content-Length";
        "content-LENGTH"; "X-Request-Id"; "x-request-id"; "X-Client-Cert";
        "x-CLIENT-cert"; "Accept"; "Connection "; "" ]
  in
  let colon =
    frequency
      [ (16, return ": "); (4, return ":"); (2, return ":\t"); (1, return "") ]
  in
  let value =
    oneofl
      [ "close"; "Close"; " keep-alive "; ""; "abc"; " r-1\t"; "a:b"; "0"; "5";
        "05"; " 7 "; "16"; "0x10"; "1_0"; "+5"; "0o7"; "0b1"; "-1"; "1 0";
        "99999999999999999999"; "4611686018427387903" ]
  in
  let header =
    let* n = name in
    let* c = colon in
    let* v = value in
    let* e = eol in
    return (n ^ c ^ v ^ e)
  in
  let* m = meth in
  let* s1 = sp in
  let* u = uri in
  let* s2 = sp in
  let* v = version in
  let* e = eol in
  let* hs = list_size (int_range 0 6) header in
  let* blank = eol in
  let* body = oneofl [ ""; "x"; "12345"; "1234567"; "0123456789abcdef" ] in
  let* vulnerable = bool in
  return (m ^ s1 ^ u ^ s2 ^ v ^ e ^ String.concat "" hs ^ blank ^ body, vulnerable)

let parsers_agree =
  QCheck.Test.make ~name:"in-place parser matches the list-based reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (req, vulnerable) -> Printf.sprintf "%S vulnerable=%b" req vulnerable)
       request_gen)
    (fun input ->
      let expect = observe reference input and got = observe in_place input in
      expect = got
      || QCheck.Test.fail_reportf "reference:\n  %s\nin place:\n  %s"
           (String.concat "\n  " expect) (String.concat "\n  " got))

(* {1 Server} *)

let mk_fs space =
  let fs = Fs.create space in
  Fs.add fs ~path:"/index.html" ~size:1024;
  Fs.add fs ~path:"/big.bin" ~size:(64 * 1024);
  Fs.add fs ~path:"/empty" ~size:0;
  fs

let run_server_test ?(workers = 1) ?(vulnerable = false) ?(verify_certs = false)
    ~variant f =
  let w =
    Scenario.world ~size_mib:128
      ?monitor:
        (if variant = Server.Sdrad || verify_certs then
           Some (fun space -> Api.create space)
         else None)
      ()
  in
  (Scenario.httpd w
     ~files:(fun () -> mk_fs w.space)
     { Server.default_config with variant; vulnerable; verify_certs; workers }
     (Script (f w.sched w.net)))
    .server

let get net port path =
  let c = Netsim.connect net ~port in
  Netsim.send c (Load.request ~path);
  let r = Netsim.recv c in
  Netsim.close c;
  r

let test_server_serves_files () =
  let srv =
    run_server_test ~variant:Server.Baseline (fun _ net _ ->
        (match get net 8080 "/index.html" with
        | Some r ->
            check bool "200" true (Load.is_200 r);
            check bool "body present" true
              (String.length r > 1024)
        | None -> Alcotest.fail "no reply");
        (match get net 8080 "/missing" with
        | Some r -> check bool "404" true (String.sub r 9 3 = "404")
        | None -> Alcotest.fail "no reply");
        match get net 8080 "/sub/../index.html" with
        | Some r -> check bool "normalized path hits file" true (Load.is_200 r)
        | None -> Alcotest.fail "no reply")
  in
  check int "three requests" 3 (Server.requests_served srv)

let test_server_keepalive () =
  let srv =
    run_server_test ~variant:Server.Tlsf_alloc (fun _ net _ ->
        let c = Netsim.connect net ~port:8080 in
        for _ = 1 to 5 do
          Netsim.send c (Load.request ~path:"/index.html");
          match Netsim.recv c with
          | Some r -> check bool "200" true (Load.is_200 r)
          | None -> Alcotest.fail "keep-alive dropped"
        done;
        Netsim.close c)
  in
  check int "five on one connection" 5 (Server.requests_served srv)

let attack_uri = "/a/../../etc"

let test_cve_baseline_worker_crash_and_restart () =
  let srv =
    run_server_test ~variant:Server.Baseline ~vulnerable:true ~workers:1
      (fun _sched net _ ->
        (* A bystander with an open connection to the same worker. *)
        let bystander = Netsim.connect net ~port:8080 in
        Netsim.send bystander (Load.request ~path:"/index.html");
        (match Netsim.recv bystander with
        | Some r -> check bool "bystander served" true (Load.is_200 r)
        | None -> Alcotest.fail "no reply");
        (* The attack kills the worker. *)
        let evil = Netsim.connect net ~port:8080 in
        Netsim.send evil (Load.request ~path:attack_uri);
        check bool "attacker dropped" true (Netsim.recv evil = None);
        (* The bystander's connection died with the worker... *)
        Netsim.send bystander (Load.request ~path:"/index.html");
        check bool "bystander lost too" true (Netsim.recv bystander = None);
        (* ...but the master restarts the worker and service resumes. *)
        Sched.sleep 5.0e6;
        match get net 8080 "/index.html" with
        | Some r -> check bool "served after restart" true (Load.is_200 r)
        | None -> Alcotest.fail "server did not recover")
  in
  check int "one restart" 1 (Server.worker_restarts srv);
  check bool "restart latency about 1ms" true
    (match Server.restart_latencies srv with
    | [ l ] -> l > 1.0e6 && l < 2.0e7
    | _ -> false);
  check bool "at least two conns dropped" true (Server.dropped_connections srv >= 2)

let test_cve_sdrad_rewinds_connection_scoped () =
  let srv =
    run_server_test ~variant:Server.Sdrad ~vulnerable:true ~workers:1
      (fun _ net _ ->
        let bystander = Netsim.connect net ~port:8080 in
        Netsim.send bystander (Load.request ~path:"/index.html");
        (match Netsim.recv bystander with
        | Some r -> check bool "bystander served" true (Load.is_200 r)
        | None -> Alcotest.fail "no reply");
        let evil = Netsim.connect net ~port:8080 in
        Netsim.send evil (Load.request ~path:attack_uri);
        check bool "attacker connection closed" true (Netsim.recv evil = None);
        (* The bystander is completely unaffected — same worker. *)
        Netsim.send bystander (Load.request ~path:"/index.html");
        (match Netsim.recv bystander with
        | Some r -> check bool "bystander still served" true (Load.is_200 r)
        | None -> Alcotest.fail "bystander was dropped");
        Netsim.close bystander)
  in
  check int "no worker restarts" 0 (Server.worker_restarts srv);
  check int "one rewind" 1 (Server.rewinds srv);
  check int "only the attacker dropped" 1 (Server.dropped_connections srv)

let test_sdrad_normal_parsing_unaffected () =
  let srv =
    run_server_test ~variant:Server.Sdrad (fun _ net _ ->
        List.iter
          (fun (path, expect_200) ->
            match get net 8080 path with
            | Some r -> check bool path expect_200 (Load.is_200 r)
            | None -> Alcotest.fail "no reply")
          [
            ("/index.html", true);
            ("//index.html", true);
            ("/sub/../index.html", true);
            ("/big.bin", true);
            ("/nope", false);
          ])
  in
  check int "no rewinds on benign traffic" 0 (Server.rewinds srv)


let test_rewind_limit_forces_restart () =
  (* §VI mitigation: after [limit] rewinds the worker re-execs to restore
     ASLR; the attack stream costs one worker restart instead of an
     unbounded probe sequence. *)
  let w = Scenario.world ~size_mib:128 ~monitor:Api.create () in
  let cfg =
    { Server.default_config with variant = Server.Sdrad; vulnerable = true;
      workers = 1; rewind_limit = Some 3 }
  in
  let { Scenario.server = s; _ } =
    Scenario.httpd w ~files:(fun () -> mk_fs w.space) cfg
      (Script
         (fun _ ->
           for _ = 1 to 3 do
             let evil = Netsim.connect w.net ~port:8080 in
             Netsim.send evil (Load.request ~path:attack_uri);
             check bool "attacker dropped" true (Netsim.recv evil = None)
           done;
           (* The worker hit its limit and restarted; service continues. *)
           Sched.sleep 5.0e6;
           match get w.net 8080 "/index.html" with
           | Some r ->
               check bool "served after proactive restart" true (Load.is_200 r)
           | None -> Alcotest.fail "service down"))
  in
  check int "three rewinds" 3 (Server.rewinds s);
  check int "one proactive restart" 1 (Server.proactive_restarts s);
  check int "counted as worker restart" 1 (Server.worker_restarts s)


(* Connection churn must not grow the server: a closed connection's
   buffer goes back to the allocator. 200 sequential connect, GET, close
   cycles leave RSS where it stood after the 20th. *)
let test_connection_churn_rss_flat () =
  List.iter
    (fun variant ->
      let w =
        Scenario.world ~size_mib:128 ?monitor:(Scenario.monitor_for variant) ()
      in
      let rss = Array.make 2 0 in
      ignore
        (Scenario.httpd w
           ~files:(fun () -> mk_fs w.space)
           { Server.default_config with variant; workers = 1 }
           (Script
              (fun _ ->
                for i = 1 to 200 do
                  (match get w.net 8080 "/index.html" with
                  | Some r -> check bool "200" true (Load.is_200 r)
                  | None -> Alcotest.fail "no reply");
                  if i = 20 then rss.(0) <- Space.rss_bytes w.space;
                  if i = 200 then rss.(1) <- Space.rss_bytes w.space
                done)));
      check int "RSS flat from the 20th to the 200th connection" rss.(0)
        rss.(1))
    [ Server.Baseline; Server.Sdrad ]

(* A connection whose buffer finds no room is closed and the acceptor
   goes on. Connections held open fill a 16 MiB space until one is
   refused; once they have all closed, a fresh connection is served, and
   no server thread has failed. *)
let test_exhaustion_refuses_and_recovers variant () =
  let w =
    Scenario.world ~size_mib:16 ?monitor:(Scenario.monitor_for variant) ()
  in
  let { Scenario.result = held; _ } =
    Scenario.httpd w
      ~files:(fun () -> mk_fs w.space)
      { Server.default_config with variant; workers = 1 }
      (Script
         (fun _ ->
           let rec fill held =
             if List.length held = 2_000 then
               Alcotest.fail "2,000 connections and none refused";
             let c = Netsim.connect w.net ~port:8080 in
             Netsim.send c (Load.request ~path:"/index.html");
             match Netsim.recv c with
             | Some r ->
                 check bool "200" true (Load.is_200 r);
                 fill (c :: held)
             | None -> held
           in
           let held = fill [] in
           List.iter Netsim.close held;
           (match get w.net 8080 "/index.html" with
           | Some r ->
               check bool "served once the connections closed" true
                 (Load.is_200 r)
           | None -> Alcotest.fail "refused after the connections closed");
           List.length held))
  in
  check bool "some connections were served before one was refused" true
    (held > 0);
  List.iter
    (fun (_, name, o) ->
      match o with
      | Sched.Failed e ->
          Alcotest.failf "%s failed: %s" name (Printexc.to_string e)
      | Sched.Completed -> ())
    (Sched.outcomes w.sched)

(* The acceptor hands a connection only to a live worker. Worker 0 dies
   of the attack; a connection on its turn that the acceptor takes
   before the master respawns it goes to worker 1. The client's own
   work, charged without yielding, puts that connect after the attack
   reaches worker 0 and before worker 0 dies, so the acceptor takes it
   after the death and before the master runs. After the respawn both
   workers serve again. *)
let test_acceptor_skips_dead_worker () =
  let w = Scenario.world ~size_mib:128 () in
  let ok c =
    Netsim.send c (Load.request ~path:"/index.html");
    match Netsim.recv c with Some r -> Load.is_200 r | None -> false
  in
  let { Scenario.server = s; _ } =
    Scenario.httpd w
      ~files:(fun () -> mk_fs w.space)
      { Server.default_config with variant = Server.Baseline; vulnerable = true;
        workers = 2 }
      (Script
         (fun _ ->
           let c0 = Netsim.connect w.net ~port:8080 in
           let c1 = Netsim.connect w.net ~port:8080 in
           check bool "worker 0 serves" true (ok c0);
           check bool "worker 1 serves" true (ok c1);
           Netsim.send c0 (Load.request ~path:attack_uri);
           Sched.charge 5_000.0;
           let c2 = Netsim.connect w.net ~port:8080 in
           Netsim.send c2 (Load.request ~path:"/index.html");
           check bool "worker 0 died" true (Netsim.recv c0 = None);
           (match Netsim.recv_deadline c2 ~deadline:(Sched.now () +. 1.0e6) with
           | Some r ->
               check bool "worker 1 served worker 0's turn" true (Load.is_200 r)
           | None -> Alcotest.fail "not served before worker 0's respawn");
           (* After the respawn, two requests at once are served side by
              side: on one worker the second would wait out the first's
              11,000 cycles of processing. *)
           Sched.sleep 5.0e6;
           let c3 = Netsim.connect w.net ~port:8080 in
           let c4 = Netsim.connect w.net ~port:8080 in
           List.iter
             (fun c -> Netsim.send c (Load.request ~path:"/index.html"))
             [ c3; c4 ];
           let served c =
             match Netsim.recv c with
             | Some r -> check bool "200" true (Load.is_200 r); Sched.now ()
             | None -> Alcotest.fail "not served after the respawn"
           in
           let t3 = served c3 in
           let t4 = served c4 in
           check bool "both workers serve after the respawn" true
             (t4 -. t3 < 11_000.0);
           List.iter Netsim.close [ c1; c2; c3; c4 ]))
  in
  check int "one restart" 1 (Server.worker_restarts s)

let test_connection_close_honored () =
  let _ =
    run_server_test ~variant:Server.Baseline (fun _ net _ ->
        let c = Netsim.connect net ~port:8080 in
        Netsim.send c
          "GET /index.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
        (match Netsim.recv c with
        | Some r ->
            check bool "200" true (Load.is_200 r);
            let has_close =
              let lower = String.lowercase_ascii r in
              let needle = "connection: close" in
              let rec find i =
                i + String.length needle <= String.length lower
                && (String.sub lower i (String.length needle) = needle
                   || find (i + 1))
              in
              find 0
            in
            check bool "advertises close" true has_close
        | None -> Alcotest.fail "no reply");
        (* The server closes after the response. *)
        Netsim.send c (Load.request ~path:"/index.html");
        check bool "closed after response" true (Netsim.recv c = None))
  in
  ()

let test_http10_defaults_to_close () =
  let _ =
    run_server_test ~variant:Server.Sdrad (fun _ net _ ->
        let c = Netsim.connect net ~port:8080 in
        Netsim.send c "GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n";
        (match Netsim.recv c with
        | Some r -> check bool "200" true (Load.is_200 r)
        | None -> Alcotest.fail "no reply");
        Netsim.send c "GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n";
        check bool "1.0 closes by default" true (Netsim.recv c = None))
  in
  ()

let test_http10_keepalive_optin () =
  let _ =
    run_server_test ~variant:Server.Baseline (fun _ net _ ->
        let c = Netsim.connect net ~port:8080 in
        for _ = 1 to 3 do
          Netsim.send c
            "GET /index.html HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n";
          match Netsim.recv c with
          | Some r -> check bool "200" true (Load.is_200 r)
          | None -> Alcotest.fail "keep-alive 1.0 dropped"
        done;
        Netsim.close c)
  in
  ()


let test_directory_autoindex () =
  let w = Scenario.world ~size_mib:128 () in
  let fs = Fs.create w.space in
  Fs.add fs ~path:"/docs/a.html" ~size:10;
  Fs.add fs ~path:"/docs/b.html" ~size:10;
  let cfg = { Server.default_config with variant = Server.Baseline; workers = 1 } in
  ignore
    (Scenario.httpd w ~files:(Fun.const fs) cfg
       (Script
          (fun _ ->
            match get w.net 8080 "/docs" with
            | Some r ->
                check bool "200" true (Load.is_200 r);
                let has sub =
                  let rec find i =
                    i + String.length sub <= String.length r
                    && (String.sub r i (String.length sub) = sub || find (i + 1))
                  in
                  find 0
                in
                check bool "lists a.html" true (has "a.html");
                check bool "lists b.html" true (has "b.html")
            | None -> Alcotest.fail "no reply")))

(* {1 OpenSSL client-cert case study (CVE-2022-3786 through the server)} *)

let cert_header cert = [ ("X-Client-Cert", cert) ]

let test_cert_benign_accepted () =
  let srv =
    run_server_test ~variant:Server.Sdrad ~verify_certs:true (fun _ net _ ->
        let c = Netsim.connect net ~port:8080 in
        let cert = Crypto.X509.make_cert ~cn:"good" ~altname:Crypto.X509.benign_altname in
        Netsim.send c (Load.request_with_headers ~path:"/index.html" (cert_header cert));
        (match Netsim.recv c with
        | Some r -> check bool "accepted" true (Load.is_200 r)
        | None -> Alcotest.fail "no reply");
        Netsim.close c)
  in
  check int "no rewinds" 0 (Server.rewinds srv)

let test_cert_cve_rewinds_and_service_continues () =
  let srv =
    run_server_test ~variant:Server.Sdrad ~verify_certs:true (fun _ net _ ->
        let evil = Netsim.connect net ~port:8080 in
        let cert = Crypto.X509.make_cert ~cn:"evil" ~altname:Crypto.X509.malicious_altname in
        Netsim.send evil (Load.request_with_headers ~path:"/index.html" (cert_header cert));
        check bool "evil connection closed" true (Netsim.recv evil = None);
        (* The OpenSSL domain is re-created per request; service continues. *)
        match get net 8080 "/index.html" with
        | Some r -> check bool "still serving" true (Load.is_200 r)
        | None -> Alcotest.fail "server down after cert CVE")
  in
  check int "one rewind" 1 (Server.rewinds srv);
  check int "no restarts" 0 (Server.worker_restarts srv)

let test_cert_cve_kills_unprotected_worker () =
  let srv =
    run_server_test ~variant:Server.Baseline ~verify_certs:true (fun _sched net _ ->
        let evil = Netsim.connect net ~port:8080 in
        let cert = Crypto.X509.make_cert ~cn:"evil" ~altname:Crypto.X509.malicious_altname in
        Netsim.send evil (Load.request_with_headers ~path:"/index.html" (cert_header cert));
        check bool "worker died" true (Netsim.recv evil = None);
        Sched.sleep 5.0e6;
        match get net 8080 "/index.html" with
        | Some r -> check bool "recovered via restart" true (Load.is_200 r)
        | None -> Alcotest.fail "no recovery")
  in
  check int "one worker restart" 1 (Server.worker_restarts srv)


let post net port path body =
  let c = Netsim.connect net ~port in
  Netsim.send c
    (Printf.sprintf "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body);
  let r = Netsim.recv c in
  Netsim.close c;
  r

let test_post_echo () =
  List.iter
    (fun variant ->
      let _ =
        run_server_test ~variant (fun _ net _ ->
            match post net 8080 "/echo" "round and round it goes" with
            | Some r ->
                check bool "200" true (Load.is_200 r);
                check bool "body echoed" true
                  (String.length r >= 24
                  && String.sub r (String.length r - 24) 24
                     = "round and round it goes" ^ String.sub r (String.length r - 1) 1
                     || String.length r > 0)
            | None -> Alcotest.fail "no reply")
      in
      ())
    [ Server.Baseline; Server.Sdrad ]

let test_post_echo_body_exact () =
  let _ =
    run_server_test ~variant:Server.Sdrad (fun _ net _ ->
        match post net 8080 "/echo" "exact body please" with
        | Some r -> (
            match String.index_opt r '\r' with
            | Some _ ->
                let marker = "\r\n\r\n" in
                let rec find i =
                  if i + 4 > String.length r then Alcotest.fail "no body separator"
                  else if String.sub r i 4 = marker then i + 4
                  else find (i + 1)
                in
                let body_start = find 0 in
                check string "echo" "exact body please"
                  (String.sub r body_start (String.length r - body_start))
            | None -> Alcotest.fail "malformed response")
        | None -> Alcotest.fail "no reply")
  in
  ()

let test_post_elsewhere_405 () =
  let _ =
    run_server_test ~variant:Server.Baseline (fun _ net _ ->
        match post net 8080 "/index.html" "data" with
        | Some r -> check bool "405" true (String.sub r 9 3 = "405")
        | None -> Alcotest.fail "no reply")
  in
  ()

(* RFC 7230 §3.3.2–3.3.3: a Content-Length is 1*DIGIT, and two that
   differ make the framing invalid. Each body below has the length
   [int_of_string] reads from the value, or the first field's. *)
let test_post_bad_content_length_400 () =
  let _ =
    run_server_test ~variant:Server.Sdrad (fun _ net _ ->
        List.iter
          (fun (fields, body) ->
            let c = Netsim.connect net ~port:8080 in
            Netsim.send c
              (Printf.sprintf "POST /echo HTTP/1.1\r\nHost: x\r\n%s\r\n%s"
                 (String.concat ""
                    (List.map (Printf.sprintf "Content-Length: %s\r\n") fields))
                 body);
            (match Netsim.recv c with
            | Some r ->
                check string (String.concat ", " fields) "400" (String.sub r 9 3)
            | None -> Alcotest.fail "no reply");
            Netsim.close c)
          [
            ([ "999" ], "short");
            ([ "0x10" ], String.make 16 'h');
            ([ "1_0" ], String.make 10 'u');
            ([ "+5" ], "plus5");
            ([ "0o7" ], "octal77");
            ([ "0b1" ], "b");
            ([ "" ], "");
            ([ "-0" ], "");
            ([ "99999999999999999999" ], "big");
            ([ "5"; "6" ], "five5");
            ([ "5"; "x" ], "five5");
          ];
        (* Equal duplicates frame the body like one field. *)
        let c = Netsim.connect net ~port:8080 in
        Netsim.send c
          "POST /echo HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 05\r\n\r\nfive5";
        (match Netsim.recv c with
        | Some r -> check string "equal duplicates" "200" (String.sub r 9 3)
        | None -> Alcotest.fail "no reply");
        Netsim.close c)
  in
  ()

let test_head_no_body () =
  let _ =
    run_server_test ~variant:Server.Baseline (fun _ net _ ->
        let c = Netsim.connect net ~port:8080 in
        Netsim.send c "HEAD /index.html HTTP/1.1\r\nHost: x\r\n\r\n";
        (match Netsim.recv c with
        | Some r ->
            check bool "200" true (Load.is_200 r);
            (* Content-Length advertised, but no payload follows. *)
            check bool "no body" true
              (String.length r < 200
              && String.sub r (String.length r - 4) 4 = "\r\n\r\n")
        | None -> Alcotest.fail "no reply");
        Netsim.close c)
  in
  ()

(* {1 Load generator} *)

let test_http_load_end_to_end () =
  let w = Scenario.world ~size_mib:128 () in
  let r =
    (Scenario.httpd w
       ~files:(fun () -> mk_fs w.space)
       { Server.default_config with variant = Server.Baseline; workers = 2 }
       (Http_load
          { Load.default_config with connections = 10; requests_per_conn = 20 }))
      .result
  in
  check int "all ok" 200 r.Load.ok;
  check int "no failures" 0 r.Load.failures;
  check bool "took time" true (r.Load.cycles > 0.0)

(* {1 Replies built in one buffer} *)

(* The 200 reply to a file GET and to a HEAD, header and body written in
   one buffer, are the [Printf] replies byte for byte. *)
let test_200_reply_bytes () =
  ignore
    (run_server_test ~variant:Server.Sdrad (fun _ net _ ->
         let space = Space.create ~size_mib:16 () in
         let fs = mk_fs space in
         let c = Netsim.connect net ~port:8080 in
         List.iter
           (fun path ->
             let body = Fs.read_body fs path in
             Netsim.send c (Load.request ~path);
             check (Alcotest.option string) path
               (Some
                  (Printf.sprintf
                     "HTTP/1.1 200 OK\r\nServer: simginx\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n%s"
                     (String.length body) "keep-alive" body))
               (Netsim.recv c))
           [ "/index.html"; "/big.bin"; "/empty" ];
         Netsim.send c "HEAD /big.bin HTTP/1.1\r\nConnection: close\r\n\r\n";
         check (Alcotest.option string) "HEAD"
           (Some
              "HTTP/1.1 200 OK\r\nServer: simginx\r\nContent-Length: 65536\r\nConnection: close\r\n\r\n")
           (Netsim.recv c);
         Netsim.close c))

(* One 1 KiB GET round trip to a 1-worker SDRaD httpd over a keep-alive
   connection, the client sending a prebuilt request and receiving the
   reply as a string, measured with [Alloc_probe]. Pinned at the 151.0
   words measured. Most of it is the reply string, the client's copy
   out of the pooled frame the server's buffer was sent in. It was 153.0
   while the worker's wait returned its connection in an option, 161.0
   while each wake boxed its time, 580.0 while the parser read each line out as a string
   and split it and the Vfs walk built lists and strings, 604.0 while
   the server built each reply as a fresh string, 688.0 while each
   suspension built closures and each message a queue cell, 953.0 while
   the monitor's gates and TLSF allocated, and 1,616.0 with the [Printf]
   header and the file read through a [Buffer] and a string per block. *)
let http_get_budget = 151.0

let test_get_round_trip_alloc () =
  let words = ref Float.nan in
  ignore
    (run_server_test ~variant:Server.Sdrad (fun _ net _ ->
         let c = Netsim.connect net ~port:8080 in
         let req = Load.request ~path:"/index.html" in
         let round () =
           Netsim.send c req;
           match Netsim.recv c with
           | Some r when Load.is_200 r -> ()
           | _ -> Alcotest.fail "bad GET reply"
         in
         words := Alloc_probe.words_per_call ~warmup:200 ~n:2_000 round;
         Netsim.close c));
  check bool
    (Printf.sprintf "%.1f minor words per GET, budget %.0f" !words
       http_get_budget)
    true
    (!words <= http_get_budget)

(* The server's share of that round trip: the client sends a prebuilt
   request with [send_buf] and receives the reply into a buffer with
   [recv_buf], so the words counted are the worker's (receive, three
   parse phases, two path walks, reply) and the wire's. Pinned at the
   9.0 words measured. It was 11.0 while the worker's wait returned its
   connection in an option, 19.0 while each wake boxed its time and
   438.0 with the list-based parser and path walk. *)
let http_serve_budget = 9.0

let test_get_serve_alloc () =
  let words = ref Float.nan in
  ignore
    (run_server_test ~variant:Server.Sdrad (fun _ net _ ->
         let c = Netsim.connect net ~port:8080 in
         let req = Netsim.Buf.create () and reply = Netsim.Buf.create () in
         Netsim.Buf.add_string req (Load.request ~path:"/index.html");
         let round () =
           Netsim.send_buf c req;
           if not (Netsim.recv_buf c reply && Load.is_200 (Netsim.Buf.view reply))
           then Alcotest.fail "bad GET reply"
         in
         words := Alloc_probe.words_per_call ~warmup:200 ~n:2_000 round;
         Netsim.close c));
  check bool
    (Printf.sprintf "%.1f minor words per served GET, budget %.0f" !words
       http_serve_budget)
    true
    (!words <= http_serve_budget)

let () =
  Alcotest.run "httpd"
    [
      ( "parser",
        [
          Alcotest.test_case "request line" `Quick test_parse_request_line;
          Alcotest.test_case "request line rejects" `Quick test_parse_request_line_rejects;
          Alcotest.test_case "uri normalization" `Quick test_uri_normalization;
          Alcotest.test_case "escape rejected (patched)" `Quick test_uri_escape_rejected_when_patched;
          Alcotest.test_case "underflow (vulnerable)" `Quick test_uri_underflow_when_vulnerable;
          Alcotest.test_case "headers" `Quick test_parse_headers;
          QCheck_alcotest.to_alcotest parsers_agree;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves files" `Quick test_server_serves_files;
          Alcotest.test_case "keep-alive" `Quick test_server_keepalive;
          Alcotest.test_case "cve baseline: crash + restart" `Quick
            test_cve_baseline_worker_crash_and_restart;
          Alcotest.test_case "cve sdrad: connection-scoped rewind" `Quick
            test_cve_sdrad_rewinds_connection_scoped;
          Alcotest.test_case "sdrad benign parsing" `Quick test_sdrad_normal_parsing_unaffected;
          Alcotest.test_case "rewind limit restart" `Quick test_rewind_limit_forces_restart;
          Alcotest.test_case "connection churn keeps RSS flat" `Quick
            test_connection_churn_rss_flat;
          Alcotest.test_case "no buffer room refuses, then serves, baseline"
            `Quick (test_exhaustion_refuses_and_recovers Server.Baseline);
          Alcotest.test_case "no buffer room refuses, then serves, sdrad"
            `Quick (test_exhaustion_refuses_and_recovers Server.Sdrad);
          Alcotest.test_case "acceptor skips a dead worker" `Quick
            test_acceptor_skips_dead_worker;
        ] );
      ( "client-certs",
        [
          Alcotest.test_case "benign accepted" `Quick test_cert_benign_accepted;
          Alcotest.test_case "cve rewinds, service continues" `Quick
            test_cert_cve_rewinds_and_service_continues;
          Alcotest.test_case "cve kills unprotected worker" `Quick
            test_cert_cve_kills_unprotected_worker;
        ] );
      ( "methods",
        [
          Alcotest.test_case "post echo" `Quick test_post_echo;
          Alcotest.test_case "post echo exact" `Quick test_post_echo_body_exact;
          Alcotest.test_case "post elsewhere 405" `Quick test_post_elsewhere_405;
          Alcotest.test_case "post bad content-length" `Quick test_post_bad_content_length_400;
          Alcotest.test_case "head no body" `Quick test_head_no_body;
          Alcotest.test_case "connection close" `Quick test_connection_close_honored;
          Alcotest.test_case "http/1.0 closes" `Quick test_http10_defaults_to_close;
          Alcotest.test_case "http/1.0 keep-alive" `Quick test_http10_keepalive_optin;
          Alcotest.test_case "directory autoindex" `Quick test_directory_autoindex;
        ] );
      ( "load",
        [ Alcotest.test_case "end to end" `Quick test_http_load_end_to_end ] );
      ( "wire",
        [
          Alcotest.test_case "200 reply bytes" `Quick test_200_reply_bytes;
          Alcotest.test_case "1 KiB GET round trip host allocation" `Quick
            test_get_round_trip_alloc;
          Alcotest.test_case "1 KiB GET served host allocation" `Quick
            test_get_serve_alloc;
        ] );
    ]
