(* The list-based HTTP request parser httpd used before it parsed in
   place: each line is read out of simulated memory as a string and
   split, and the headers are kept as an association list. It is the
   reference [test_httpd]'s differential checks [Httpd.Http_parse]
   against, with the same accesses, charges and verdicts; Content-Length
   follows RFC 7230 §3.3.2–3.3.3 (1*DIGIT without overflow, and every
   field the same value). *)

module Space = Vmem.Space

type request_line = {
  meth : string;
  raw_uri_off : int;
  raw_uri_len : int;
  version : string;
}

let bad fmt =
  Printf.ksprintf (fun s -> raise (Httpd.Http_parse.Bad_request s)) fmt

let find_crlf space ~addr ~len =
  match Space.memchr space ~addr ~len '\r' with
  | cr when cr >= 0 && cr + 1 < addr + len && Space.load8 space (cr + 1) = 10
    ->
      Some cr
  | _ -> None

let parse_request_line space ~addr ~len =
  match find_crlf space ~addr ~len with
  | None -> bad "request line: no CRLF"
  | Some cr -> (
      let line = Space.read_string space addr (cr - addr) in
      match String.split_on_char ' ' line with
      | [ meth; uri; version ] ->
          if uri = "" || uri.[0] <> '/' then bad "uri must be absolute";
          if meth <> "GET" && meth <> "HEAD" && meth <> "POST" then
            bad "unsupported method %s" meth;
          if version <> "HTTP/1.0" && version <> "HTTP/1.1" then
            bad "unsupported version %s" version;
          let uri_off = addr + String.length meth + 1 in
          ( { meth; raw_uri_off = uri_off; raw_uri_len = String.length uri; version },
            cr + 2 )
      | _ -> bad "malformed request line")

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> bad "bad percent escape"

let parse_complex_uri space ~src ~len ~dst ~dst_cap ~vulnerable =
  let u = ref dst in
  let put c =
    if !u >= dst + dst_cap then bad "uri too long";
    Space.store8 space !u (Char.code c);
    incr u
  and get i = Char.chr (Space.load8 space (src + i)) in
  let pop_segment () =
    u := !u - 1;
    if vulnerable then begin
      while Space.load8 space (!u - 1) <> Char.code '/' do
        u := !u - 1
      done;
      u := !u - 1
    end
    else begin
      if !u <= dst then bad "uri escapes root";
      while !u > dst && Space.load8 space (!u - 1) <> Char.code '/' do
        u := !u - 1
      done;
      if !u = dst then bad "uri escapes root" else u := !u - 1
    end
  in
  let n = len in
  let i = ref 0 in
  put '/';
  if n = 0 || get 0 <> '/' then bad "uri must start with /";
  incr i;
  while !i < n do
    (match get !i with
    | '/' -> if Space.load8 space (!u - 1) <> Char.code '/' then put '/'
    | '.' when Space.load8 space (!u - 1) = Char.code '/' -> (
        let next k = if !i + k < n then Some (get (!i + k)) else None in
        match (next 1, next 2) with
        | Some '.', (Some '/' | None) ->
            pop_segment ();
            put '/';
            i := !i + (match next 2 with Some '/' -> 2 | _ -> 1)
        | (Some '/' | None), _ ->
            i := !i + (match next 1 with Some '/' -> 1 | _ -> 0)
        | _ -> put '.')
    | '%' ->
        if !i + 2 >= n then bad "truncated escape";
        let v = (16 * hex_digit (get (!i + 1))) + hex_digit (get (!i + 2)) in
        put (Char.chr v);
        i := !i + 2
    | c -> put c);
    incr i
  done;
  !u - dst

let parse_headers space ~addr ~len =
  let rec go off acc =
    if off >= len then bad "headers: missing terminator";
    match find_crlf space ~addr:(addr + off) ~len:(len - off) with
    | None -> bad "headers: no CRLF"
    | Some cr ->
        let line_len = cr - (addr + off) in
        if line_len = 0 then (List.rev acc, off + 2)
        else begin
          let line = Space.read_string space (addr + off) line_len in
          match String.index_opt line ':' with
          | None -> bad "header without colon"
          | Some colon ->
              let name = String.lowercase_ascii (String.sub line 0 colon) in
              let value =
                String.trim
                  (String.sub line (colon + 1) (String.length line - colon - 1))
              in
              go (off + line_len + 2) ((name, value) :: acc)
        end
  in
  go 0 []

let find_header headers name =
  List.assoc_opt (String.lowercase_ascii name) headers

let validate_body headers ~avail =
  let decimal v =
    if v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v then
      int_of_string_opt v
    else None
  in
  match
    List.filter_map
      (fun (name, v) -> if name = "content-length" then Some v else None)
      headers
  with
  | [] -> 0
  | values -> (
      match List.map decimal values with
      | Some n :: rest when List.for_all (( = ) (Some n)) rest ->
          if n <> avail then bad "content-length %d != body bytes %d" n avail
          else n
      | _ -> bad "bad content-length %S" (String.concat ", " values))

let wants_keep_alive ~version ~headers =
  match find_header headers "connection" with
  | Some v -> String.lowercase_ascii v <> "close"
  | None -> version <> "HTTP/1.0"
