module Space = Vmem.Space

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

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* An optional trailing [id=<rid>] token on mutating commands carries the
   client's idempotency key. Reads never take one: a trailing token on
   [get] is just another key, so the rid grammar cannot change what a
   read means. *)
let strip_rid words =
  match List.rev words with
  | last :: rest
    when String.length last > 3 && String.sub last 0 3 = "id=" ->
      (List.rev rest, Some (String.sub last 3 (String.length last - 3)))
  | _ -> (words, None)

(* A trailing [trace=<16 hex>] token carries the client's causal trace
   context. Unlike [id=], it may ride on any command — reads included —
   so it is stripped before dispatch; a malformed value is left alone
   (and then parses as a key or argument, exactly as before). *)
let strip_trace words =
  match List.rev words with
  | last :: rest when String.length last > 6 && String.sub last 0 6 = "trace="
    -> (
      match
        Telemetry.Context.of_trace_hex
          (String.sub last 6 (String.length last - 6))
      with
      | Some ctx -> (List.rev rest, Telemetry.Context.trace ctx)
      | None -> (words, 0L))
  | _ -> (words, 0L)

(* The trace id of a request, without interpreting the command — servers
   call this once on arrival to install the context, then [parse]. *)
let parse_trace space ~addr ~len =
  match Space.memchr space ~addr ~len '\r' with
  | None -> 0L
  | Some cr ->
      let line = Space.read_string space addr (cr - addr) in
      snd (strip_trace (split_words line))

(* Same extraction from raw wire bytes — for decisions taken before the
   request is admitted into simulated memory (load shedding). *)
let trace_of_words words = snd (strip_trace words)

let trace_of_string msg =
  match String.index_opt msg '\r' with
  | None -> 0L
  | Some cr -> trace_of_words (split_words (String.sub msg 0 cr))

let parse space ~addr ~len =
  match Space.memchr space ~addr ~len '\r' with
  | None -> Bad "no CRLF"
  | Some cr ->
      let line = Space.read_string space addr (cr - addr) in
      let data_off = cr - addr + 2 in
      let words, _trace = strip_trace (split_words line) in
      (match words with
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
          | [ ("incr" | "decr") as op; key; delta ]
            when String.length key <= max_key_len -> (
              match int_of_string_opt delta with
              | Some d when d >= 0 ->
                  Arith { key; delta = d; negate = op = "decr"; rid }
              | _ -> Bad "bad incr/decr delta")
          | [ ("set" | "add" | "replace") as op; key; flags; _exptime; bytes ]
            -> (
              match (int_of_string_opt flags, int_of_string_opt bytes) with
              | Some flags, Some declared_len ->
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

let stored = "STORED\r\n"
let not_stored = "NOT_STORED\r\n"
let server_error_oom = "SERVER_ERROR out of memory storing object\r\n"
let server_error_busy = "SERVER_ERROR busy\r\n"
let deleted = "DELETED\r\n"
let not_found = "NOT_FOUND\r\n"
let end_ = "END\r\n"
let error = "ERROR\r\n"

let value_header ~key ~flags ~len =
  Printf.sprintf "VALUE %s %d %d\r\n" key flags len

(* Width of [n] rendered by [%d]. Digits are taken from the non-positive
   value, which cannot overflow (unlike [-min_int]). *)
let dec_width n =
  let rec go m w = if m > -10 then w else go (m / 10) (w + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* Render [n] as [%d] into [b], ending just before [stop]. *)
let put_dec b ~stop n =
  let rec go i m =
    Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
    if m <= -10 then go (i - 1) (m / 10)
  in
  go (stop - 1) (if n < 0 then n else -n);
  if n < 0 then Bytes.unsafe_set b (stop - dec_width n) '-'

(* The single-hit text reply — [value_header ^ value ^ "\r\n" ^ end_] —
   written into one buffer: it carries a whole stored value, and the
   concatenation chain would copy that value three times. *)
let value_reply ~key ~flags ~value =
  let klen = String.length key and vlen = String.length value in
  let fw = dec_width flags and lw = dec_width vlen in
  let n = 6 + klen + 1 + fw + 1 + lw + 2 + vlen + 2 + String.length end_ in
  let b = Bytes.create n in
  Bytes.blit_string "VALUE " 0 b 0 6;
  Bytes.blit_string key 0 b 6 klen;
  let p = 6 + klen in
  Bytes.unsafe_set b p ' ';
  put_dec b ~stop:(p + 1 + fw) flags;
  let p = p + 1 + fw in
  Bytes.unsafe_set b p ' ';
  put_dec b ~stop:(p + 1 + lw) vlen;
  let p = p + 1 + lw in
  Bytes.blit_string "\r\n" 0 b p 2;
  Bytes.blit_string value 0 b (p + 2) vlen;
  let p = p + 2 + vlen in
  Bytes.blit_string "\r\n" 0 b p 2;
  Bytes.blit_string end_ 0 b (p + 2) (String.length end_);
  Bytes.unsafe_to_string b

let rid_suffix = function None -> "" | Some r -> " id=" ^ r

(* Trace rides last on the line ([... id=<rid> trace=<hex>]): it is the
   first token stripped on the server. Zero = no context = no token. *)
let trace_suffix = function
  | None -> ""
  | Some tr -> if tr = 0L then "" else Printf.sprintf " trace=%016Lx" tr

let fmt_get ?trace key =
  Printf.sprintf "get %s%s\r\n" key (trace_suffix trace)

let fmt_multi_get keys = Printf.sprintf "get %s\r\n" (String.concat " " keys)

let fmt_storage op ?rid ?trace ~key ~flags ~value () =
  Printf.sprintf "%s %s %d 0 %d%s%s\r\n%s\r\n" op key flags
    (String.length value) (rid_suffix rid) (trace_suffix trace) value

let fmt_set ~key ~flags ~value = fmt_storage "set" ~key ~flags ~value ()
let fmt_add ~key ~flags ~value = fmt_storage "add" ~key ~flags ~value ()
let fmt_replace ~key ~flags ~value = fmt_storage "replace" ~key ~flags ~value ()

(* [_rid] variants carry the idempotency key ([rid] is required there:
   with no positional argument in these signatures an optional label
   could never be erased). *)
let fmt_set_rid ~rid ~key ~flags ~value =
  fmt_storage "set" ~rid ~key ~flags ~value ()

let fmt_add_rid ~rid ~key ~flags ~value =
  fmt_storage "add" ~rid ~key ~flags ~value ()

let fmt_replace_rid ~rid ~key ~flags ~value =
  fmt_storage "replace" ~rid ~key ~flags ~value ()

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
let fmt_stats = "stats\r\n"
let fmt_stats_telemetry = "stats telemetry\r\n"
let quit = "quit\r\n"

let fmt_stats_reply kvs =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "STAT %s %s\r\n" k v) kvs)
  ^ end_

type reply =
  | Value of string
  | Values of (string * string) list
  | Number of int
  | Miss
  | Stored
  | Deleted
  | NotFound
  | StatsReply of (string * string) list
  | Failed of string

let parse_stats s =
  let lines = String.split_on_char '\n' s in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      match split_words line with
      | [ "STAT"; k; v ] -> Some (k, v)
      | _ -> None)
    lines

(* Whether [s] can be a number reply: after the whitespace [String.trim]
   drops, [int_of_string] needs a sign or a digit first. Checked before
   anything is copied — a value reply carries a whole stored value. *)
let rec number_prefix s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | ' ' | '\012' | '\n' | '\r' | '\t' -> number_prefix s (i + 1)
  | '0' .. '9' | '-' | '+' -> true
  | _ -> false

(* [lit] occurs in [s] at [off] — compared in place, without a substring. *)
let rec has_at_from s off lit i =
  i = String.length lit
  || (String.unsafe_get s (off + i) = String.unsafe_get lit i
     && has_at_from s off lit (i + 1))

let has_at s off lit =
  off >= 0 && String.length s - off >= String.length lit
  && has_at_from s off lit 0

let parse_reply s =
  if s = not_stored then NotFound
  else if
    String.length s >= 3 && number_prefix s 0
    && Option.is_some (int_of_string_opt (String.trim s))
  then Number (int_of_string (String.trim s))
  else if has_at s 0 "STAT " then
    StatsReply (parse_stats s)
  else if s = stored then Stored
  else if s = deleted then Deleted
  else if s = not_found then NotFound
  else if s = end_ then Miss
  else if String.length s > 6 && has_at s 0 "VALUE " then begin
    (* One or more [VALUE <key> <flags> <len>\r\n<data>\r\n] blocks, END. *)
    let rec blocks off acc =
      if off >= String.length s then Some (List.rev acc)
      else if has_at s off end_ then Some (List.rev acc)
      else
        match String.index_from_opt s off '\r' with
        | None -> None
        | Some cr -> (
            match split_words (String.sub s off (cr - off)) with
            | [ "VALUE"; key; _flags; len ] -> (
                match int_of_string_opt len with
                | Some n when cr + 2 + n + 2 <= String.length s ->
                    blocks (cr + 2 + n + 2) ((key, String.sub s (cr + 2) n) :: acc)
                | _ -> None)
            | _ -> None)
    in
    match blocks 0 [] with
    | Some [ (_, v) ] -> Value v
    | Some hits -> Values hits
    | None -> Failed "malformed VALUE block"
  end
  else Failed s
