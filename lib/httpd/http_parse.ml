module Space = Vmem.Space

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

type connection = No_field | Close | Persist

type t = {
  mutable line : Bytes.t;  (* the line being scanned *)
  mutable meth : string;
  mutable raw_uri_off : int;
  mutable raw_uri_len : int;
  mutable version : string;
  mutable connection : connection;  (* the first Connection field *)
  mutable content_length : int;  (* [cl_absent], [cl_bad] or the length *)
  mutable request_id : string option;
  mutable client_cert : string option;
}

let cl_absent = -1
let cl_bad = -2

let create () =
  {
    line = Bytes.create 256;
    meth = "";
    raw_uri_off = 0;
    raw_uri_len = 0;
    version = "";
    connection = No_field;
    content_length = cl_absent;
    request_id = None;
    client_cert = None;
  }

let get = "GET"
let head = "HEAD"
let post = "POST"
let http10 = "HTTP/1.0"
let http11 = "HTTP/1.1"

(* The CR of the first CRLF in [addr, addr + len), or -1. *)
let find_crlf space ~addr ~len =
  let cr = Space.memchr space ~addr ~len '\r' in
  if cr >= 0 && cr + 1 < addr + len && Space.load8 space (cr + 1) = 10 then cr
  else -1

(* Read the [n] bytes at [addr] into [p.line], checked and charged as
   [Space.read_string] would. *)
let read_line p space addr n =
  if Bytes.length p.line < n then
    p.line <- Bytes.create (Int.max n (2 * Bytes.length p.line));
  Space.read_into space addr p.line 0 n

(* {1 Scanning a line in place}

   The line buffer is lent to [Serve]'s string scanners as [Netsim.Buf]
   lends a message: the view is read only until the next [read_line]. *)

let view p = Bytes.unsafe_to_string p.line

(* [s]'s bytes from [a] on, lowercased when [fold], start with [lit]
   from [k] on. *)
let rec sub_is ~fold s a lit k =
  k = String.length lit
  || (let c = s.[a + k] in
      (if fold then Char.lowercase_ascii c else c) = String.unsafe_get lit k)
     && sub_is ~fold s a lit (k + 1)

(* [s]'s bytes [a, a + len) are [lit]. *)
let is s a len lit = len = String.length lit && sub_is ~fold:false s a lit 0

(* The same, ASCII case folded; [lit] is lowercase. *)
let is_ci s a len lit = len = String.length lit && sub_is ~fold:true s a lit 0

(* {1 Request line} *)

let request_line p space ~addr ~len =
  let cr = find_crlf space ~addr ~len in
  if cr < 0 then bad "request line: no CRLF";
  let n = cr - addr in
  read_line p space addr n;
  let s = view p in
  (* Exactly two spaces: method, URI and version. *)
  let s1 = Serve.index_from s 0 n ' ' in
  let s2 = if s1 < 0 then -1 else Serve.index_from s (s1 + 1) n ' ' in
  if s2 < 0 || Serve.index_from s (s2 + 1) n ' ' >= 0 then
    bad "malformed request line";
  if s2 = s1 + 1 || s.[s1 + 1] <> '/' then bad "uri must be absolute";
  p.meth <-
    (if is s 0 s1 get then get
     else if is s 0 s1 head then head
     else if is s 0 s1 post then post
     else bad "unsupported method %s" (String.sub s 0 s1));
  p.version <-
    (if is s (s2 + 1) (n - s2 - 1) http10 then http10
     else if is s (s2 + 1) (n - s2 - 1) http11 then http11
     else bad "unsupported version %s" (String.sub s (s2 + 1) (n - s2 - 1)));
  p.raw_uri_off <- addr + s1 + 1;
  p.raw_uri_len <- s2 - s1 - 1;
  cr + 2

let parse_request_line space ~addr ~len =
  let p = create () in
  let off = request_line p space ~addr ~len in
  (p, off)

(* {1 Complex URI} *)

let slash = Char.code '/'
let dot = Char.code '.'

let hex_digit c =
  if c >= Char.code '0' && c <= Char.code '9' then c - Char.code '0'
  else if c >= Char.code 'a' && c <= Char.code 'f' then c - Char.code 'a' + 10
  else if c >= Char.code 'A' && c <= Char.code 'F' then c - Char.code 'A' + 10
  else bad "bad percent escape"

(* Write byte [c] at [u]; returns the next write position. *)
let put space ~dst ~dst_cap u c =
  if u >= dst + dst_cap then bad "uri too long";
  Space.store8 space u c;
  u + 1

(* Byte [k] of the source, or -1 past its end. *)
let peek space ~src ~n k = if k < n then Space.load8 space (src + k) else -1

(* Back up from [u] to just past the previous '/', not below [floor]. *)
let rec back_to_slash space ~floor u =
  if u > floor && Space.load8 space (u - 1) <> slash then
    back_to_slash space ~floor (u - 1)
  else u

(* Drop the trailing "/segment/" ending at [u]: back up over the slash,
   then scan for the previous one. The vulnerable build has no lower
   bound: it reads below [dst] until a '/' appears in foreign memory or
   the hardware objects. *)
let pop_segment space ~dst ~vulnerable u =
  let u = u - 1 in
  if vulnerable then back_to_slash space ~floor:min_int u - 1
  else begin
    if u <= dst then bad "uri escapes root";
    let u = back_to_slash space ~floor:dst u in
    if u = dst then bad "uri escapes root" else u - 1
  end

(* NGINX's ngx_http_parse_complex_uri, reduced to the behaviour that
   matters: percent-decoding, duplicate-slash merging, "." and ".."
   segment resolution with an in-place destination write pointer [u].
   Popping a segment scans backwards for the previous '/'; the vulnerable
   build omits the lower-bound check (CVE-2009-2629's underflow). *)
let parse_complex_uri space ~src ~len ~dst ~dst_cap ~vulnerable =
  let n = len in
  let u = ref (put space ~dst ~dst_cap dst slash) in
  if n = 0 || Space.load8 space src <> slash then bad "uri must start with /";
  let i = ref 1 in
  while !i < n do
    let c = Space.load8 space (src + !i) in
    (if c = slash then begin
       (* merge duplicate slashes *)
       if Space.load8 space (!u - 1) <> slash then
         u := put space ~dst ~dst_cap !u slash
     end
     else if c = dot && Space.load8 space (!u - 1) = slash then begin
       (* The step past a dot segment reads its next byte again: every
          read is a charged access. *)
       let c2 = peek space ~src ~n (!i + 2) in
       let c1 = peek space ~src ~n (!i + 1) in
       if c1 = dot && (c2 = slash || c2 < 0) then begin
         (* "/../": pop the previous segment *)
         u := pop_segment space ~dst ~vulnerable !u;
         u := put space ~dst ~dst_cap !u slash;
         i := !i + if peek space ~src ~n (!i + 2) = slash then 2 else 1
       end
       else if c1 = slash || c1 < 0 then
         (* "/./": skip *)
         i := !i + if peek space ~src ~n (!i + 1) = slash then 1 else 0
       else u := put space ~dst ~dst_cap !u dot
     end
     else if c = Char.code '%' then begin
       if !i + 2 >= n then bad "truncated escape";
       let lo = hex_digit (Space.load8 space (src + !i + 2)) in
       let hi = hex_digit (Space.load8 space (src + !i + 1)) in
       u := put space ~dst ~dst_cap !u ((16 * hi) + lo);
       i := !i + 2
     end
     else u := put space ~dst ~dst_cap !u c);
    incr i
  done;
  !u - dst

(* {1 Headers} *)

(* [s]'s bytes [a, z) as 1*DIGIT (RFC 7230 §3.3.2), or [cl_bad]: no
   sign, base prefix or separator, and no overflow. *)
let rec digits s i z n =
  if i = z then n
  else
    match s.[i] with
    | '0' .. '9' as c ->
        let d = Char.code c - Char.code '0' in
        if n > (max_int - d) / 10 then cl_bad
        else digits s (i + 1) z ((n * 10) + d)
    | _ -> cl_bad

(* A further Content-Length field [v] after [prev]: any malformed field,
   or two that differ, make the framing bad (§3.3.3). *)
let merge_length prev v =
  if prev = cl_absent then v else if v = prev then prev else cl_bad

(* The header line in [p.line]'s first [n] bytes: only the fields the
   server reads are kept, the first of each, and every Content-Length. *)
let field p n =
  let s = view p in
  let colon = Serve.index_from s 0 n ':' in
  if colon < 0 then bad "header without colon";
  (* The value, trimmed as [String.trim] trims. *)
  let a = Serve.skip_blanks s (colon + 1) n in
  let z = Serve.trim_blanks s a n in
  if is_ci s 0 colon "connection" then begin
    if p.connection = No_field then
      p.connection <- (if is_ci s a (z - a) "close" then Close else Persist)
  end
  else if is_ci s 0 colon "content-length" then
    p.content_length <-
      merge_length p.content_length (if a = z then cl_bad else digits s a z 0)
  else if is_ci s 0 colon "x-request-id" then begin
    if Option.is_none p.request_id then
      p.request_id <- Some (String.sub s a (z - a))
  end
  else if is_ci s 0 colon "x-client-cert" then
    if Option.is_none p.client_cert then
      p.client_cert <- Some (String.sub s a (z - a))

let rec fields p space ~addr ~len off =
  if off >= len then bad "headers: missing terminator";
  let cr = find_crlf space ~addr:(addr + off) ~len:(len - off) in
  if cr < 0 then bad "headers: no CRLF";
  let n = cr - (addr + off) in
  if n = 0 then off + 2
  else begin
    read_line p space (addr + off) n;
    field p n;
    fields p space ~addr ~len (off + n + 2)
  end

let headers p space ~addr ~len =
  p.connection <- No_field;
  p.content_length <- cl_absent;
  p.request_id <- None;
  p.client_cert <- None;
  fields p space ~addr ~len 0

let parse_headers space ~addr ~len =
  let p = create () in
  let off = headers p space ~addr ~len in
  (p, off)

let body_length p ~avail =
  let n = p.content_length in
  if n = cl_absent then 0
  else if n = cl_bad then bad "bad content-length"
  else if n <> avail then bad "content-length %d != body bytes %d" n avail
  else n

(* RFC 7230 §6.3: HTTP/1.1 persists unless "Connection: close"; HTTP/1.0
   closes unless "Connection: keep-alive". *)
let keep_alive p =
  match p.connection with
  | No_field -> not (String.equal p.version http10)
  | Close -> false
  | Persist -> true
