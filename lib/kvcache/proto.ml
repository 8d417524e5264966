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

(* {1 Line scanning}

   A request line is scanned where it lies: a word is a maximal run of
   bytes other than ' ' (a tab belongs to its word), and a scan passes
   positions around as ints, so it allocates nothing. A command copies
   out only what it keeps — its key and its rid. *)

let rec word_start s i stop =
  if i < stop && String.unsafe_get s i = ' ' then word_start s (i + 1) stop
  else i

let rec word_stop s i stop =
  if i < stop && String.unsafe_get s i <> ' ' then word_stop s (i + 1) stop
  else i

(* [stop] less any trailing spaces: the end of the last word. *)
let rec trim_stop s start stop =
  if stop > start && String.unsafe_get s (stop - 1) = ' ' then
    trim_stop s start (stop - 1)
  else stop

(* Start of the word that ends at [stop]. *)
let rec last_word s start stop =
  if stop > start && String.unsafe_get s (stop - 1) <> ' ' then
    last_word s start (stop - 1)
  else stop

(* [lit] occurs in [s] at [off] — compared in place, without a substring. *)
let rec has_at_from s off lit i =
  i = String.length lit
  || (String.unsafe_get s (off + i) = String.unsafe_get lit i
     && has_at_from s off lit (i + 1))

(* [lit] occurs in [s.[0, n)] at [off]. *)
let has_at s n off lit =
  off >= 0 && n - off >= String.length lit && has_at_from s off lit 0

let word_is s a b lit = b - a = String.length lit && has_at_from s a lit 0
let sub s a b = String.sub s a (b - a)

let word_int s a b = int_of_string_opt (sub s a b)

(* The value of the digits [s.[i, b)] after [v], or -1 at a byte that
   is not a digit. *)
let rec digits s i b v =
  if i = b then v
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits s (i + 1) b ((v * 10) + Char.code c - 48)
    | _ -> -1

(* [word_int] when it is a non-negative value, else -1, with no option:
   up to 18 plain digits, which cannot overflow, are read in place, and
   any other word (a sign, a base prefix, an underscore, a long one) is
   copied out and parsed. *)
let word_nat s a b =
  let v = if b > a && b - a <= 18 then digits s a b 0 else -1 in
  if v >= 0 then v
  else
    match word_int s a b with Some v when v >= 0 -> v | _ -> -1

(* The id carried by a [trace=<16 hex>] word at [a, b), as
   [Telemetry.Context.trace_id_at] decodes it; 0 when the word is no such
   token, or carries id 0, which means "no context". *)
let trace_id s a b =
  if b - a = 22 && has_at_from s a "trace=" 0 then
    Telemetry.Context.trace_id_at s (a + 6)
  else 0

(* A trailing [trace=<16 hex>] token carries the client's causal trace
   context. Unlike [id=], it may ride on any command — reads included —
   so it is dropped before dispatch; a malformed one is left in place
   (and then parses as a key or argument). This is the end of [s]'s
   command part: [stop], or the start of the trace token. *)
let command_stop s stop =
  let e = trim_stop s 0 stop in
  let a = last_word s 0 e in
  if trace_id s a e <> 0 then a else stop

let line_trace s stop =
  let e = trim_stop s 0 stop in
  trace_id s (last_word s 0 e) e

(* An optional trailing [id=<rid>] token on mutating commands carries the
   client's idempotency key: the start of that word in [s]'s command
   part [0, stop), or -1. Reads never take one: a trailing token on
   [get] is just another key, so the rid grammar cannot change what a
   read means. *)
let rid_start s stop =
  let e = trim_stop s 0 stop in
  let a = last_word s 0 e in
  if e - a > 3 && has_at_from s a "id=" 0 then a else -1

let rid_at s a stop =
  if a < 0 then None else Some (sub s (a + 3) (trim_stop s a stop))

let line_rid s stop =
  let stop = command_stop s stop in
  rid_at s (rid_start s stop) stop

let to_trace id = if id = 0 then 0L else Int64.of_int id

(* The trace id of a request, without interpreting the command — servers
   call this once on arrival to install the context, then [parse]. *)
let parse_trace space ~addr ~len =
  match Space.memchr space ~addr ~len '\r' with
  | -1 -> 0L
  | cr ->
      let line = Space.read_string space addr (cr - addr) in
      to_trace (line_trace line (String.length line))

(* Same extraction from raw wire bytes — for decisions taken before the
   request is admitted into simulated memory (load shedding). *)
let trace_of_string msg len =
  match Serve.index_from msg 0 len '\r' with
  | -1 -> 0L
  | cr -> to_trace (line_trace msg cr)

let unknown = Bad "unknown command"

(* [get k1 k2 ...] from [i]: at least two keys, each short enough. *)
let multi_get s i stop =
  let rec go i keys =
    let a = word_start s i stop in
    if a = stop then Multi_get (List.rev keys)
    else
      let b = word_stop s a stop in
      if b - a > max_key_len then unknown else go b (sub s a b :: keys)
  in
  go i []

(* The commands that may carry a rid, over the command part [0, stop)
   of [s] with its rid token dropped. *)
let mutation s stop ~rid ~addr ~len ~data_off =
  let v0 = word_start s 0 stop in
  let v1 = word_stop s v0 stop in
  let a1 = word_start s v1 stop in
  let b1 = word_stop s a1 stop in
  let a2 = word_start s b1 stop in
  let b2 = word_stop s a2 stop in
  let a3 = word_start s b2 stop in
  let b3 = word_stop s a3 stop in
  let a4 = word_start s b3 stop in
  let b4 = word_stop s a4 stop in
  let key_ok = b1 - a1 <= max_key_len in
  if word_is s v0 v1 "delete" then
    if a1 < stop && a2 = stop && key_ok then Delete { key = sub s a1 b1; rid }
    else unknown
  else if word_is s v0 v1 "incr" || word_is s v0 v1 "decr" then
    if a2 < stop && a3 = stop && key_ok then
      match word_int s a2 b2 with
      | Some d when d >= 0 ->
          Arith
            {
              key = sub s a1 b1;
              delta = d;
              negate = word_is s v0 v1 "decr";
              rid;
            }
      | _ -> Bad "bad incr/decr delta"
    else unknown
  else if
    word_is s v0 v1 "set" || word_is s v0 v1 "add"
    || word_is s v0 v1 "replace"
  then
    if a4 < stop && word_start s b4 stop = stop then
      match (word_int s a2 b2, word_int s a4 b4) with
      | Some flags, Some declared_len ->
          if not key_ok then Bad "key too long"
          else if data_off > len then Bad "missing data block"
          else
            Set
              {
                mode =
                  (if word_is s v0 v1 "add" then `Add
                   else if word_is s v0 v1 "replace" then `Replace
                   else `Set);
                key = sub s a1 b1;
                flags;
                declared_len;
                data_off = addr + data_off;
                data_len = max 0 (len - data_off - 2);
                rid;
              }
      | _ -> Bad "bad set arguments"
    else unknown
  else unknown

let command s ~addr ~len ~data_off =
  let stop = command_stop s (String.length s) in
  let v0 = word_start s 0 stop in
  let v1 = word_stop s v0 stop in
  let a1 = word_start s v1 stop in
  let b1 = word_stop s a1 stop in
  let a2 = word_start s b1 stop in
  if word_is s v0 v1 "get" then
    if a1 = stop then unknown
    else if a2 < stop then multi_get s a1 stop
    else if b1 - a1 <= max_key_len then Get (sub s a1 b1)
    else unknown
  else if word_is s v0 v1 "quit" && a1 = stop then Quit
  else if word_is s v0 v1 "stats" && a1 = stop then Stats
  else if
    word_is s v0 v1 "stats" && word_is s a1 b1 "telemetry" && a2 = stop
  then Stats_telemetry
  else
    let r = rid_start s stop in
    mutation s
      (if r < 0 then stop else r)
      ~rid:(rid_at s r stop) ~addr ~len ~data_off

let parse space ~addr ~len =
  match Space.memchr space ~addr ~len '\r' with
  | -1 -> Bad "no CRLF"
  | cr ->
      let line = Space.read_string space addr (cr - addr) in
      command line ~addr ~len ~data_off:(cr - addr + 2)

let stored = "STORED\r\n"
let not_stored = "NOT_STORED\r\n"
let server_error_oom = "SERVER_ERROR out of memory storing object\r\n"
let server_error_busy = "SERVER_ERROR busy\r\n"
let deleted = "DELETED\r\n"
let not_found = "NOT_FOUND\r\n"
let end_ = "END\r\n"
let error = "ERROR\r\n"

(* {1 Writing text in place} *)

let put_string b p s =
  Bytes.blit_string s 0 b p (String.length s);
  p + String.length s

let put_int b p n =
  let stop = p + Serve.dec_width n in
  Serve.put_dec b ~stop n;
  stop

(* {1 Value replies} *)

let header_width ~key ~flags ~len =
  6 + String.length key + 1 + Serve.dec_width flags + 1 + Serve.dec_width len
  + 2

(* [VALUE <key> <flags> <len>\r\n] at [p]; the position after it. *)
let put_header b p ~key ~flags ~len =
  let p = put_string b p "VALUE " in
  let p = put_string b p key in
  Bytes.unsafe_set b p ' ';
  let p = put_int b (p + 1) flags in
  Bytes.unsafe_set b p ' ';
  let p = put_int b (p + 1) len in
  put_string b p "\r\n"

let value_reply space out ~key ~flags ~addr ~len =
  let b =
    Netsim.Buf.reset out
      (header_width ~key ~flags ~len + len + 2 + String.length end_)
  in
  let p = put_header b 0 ~key ~flags ~len in
  Space.read_into space addr b p len;
  ignore (put_string b (put_string b (p + len) "\r\n") end_)

let values_reply hits ~write =
  let n =
    List.fold_left
      (fun n (key, flags, len, _) ->
        n + header_width ~key ~flags ~len + len + 2)
      (String.length end_) hits
  in
  let b = Bytes.create n in
  let p =
    List.fold_left
      (fun p (key, flags, len, src) ->
        let p = put_header b p ~key ~flags ~len in
        write src b p len;
        put_string b (p + len) "\r\n")
      0 hits
  in
  ignore (put_string b p end_);
  Bytes.unsafe_to_string b

(* {1 Request formatting} *)

(* Trace rides last on the line ([... id=<rid> trace=<hex>]): it is the
   first token dropped on the server. Zero = no context = no token. *)
let trace_width tr = if Int64.equal tr 0L then 0 else 23
let rid_width = function None -> 0 | Some r -> 4 + String.length r
let hex = "0123456789abcdef"

let put_suffixes b p ~rid ~trace =
  let p =
    match rid with None -> p | Some r -> put_string b (put_string b p " id=") r
  in
  if Int64.equal trace 0L then p
  else begin
    let p = put_string b p " trace=" in
    for i = 0 to 15 do
      let d = Int64.to_int (Int64.shift_right_logical trace (60 - (4 * i))) in
      Bytes.unsafe_set b (p + i) hex.[d land 15]
    done;
    p + 16
  end

let add_tokens out ~rid ~trace =
  let p = Netsim.Buf.reserve out (rid_width rid + trace_width trace) in
  ignore (put_suffixes (Netsim.Buf.bytes out) p ~rid ~trace)

(* [<verb> <key>[ <num>][ id=<rid>][ trace=<hex>]\r\n] *)
let keyed_line verb ?num ?rid ?(trace = 0L) key =
  let nw = match num with None -> 0 | Some d -> 1 + Serve.dec_width d in
  let b =
    Bytes.create
      (String.length verb + 1 + String.length key + nw + rid_width rid
     + trace_width trace + 2)
  in
  let p = put_string b 0 verb in
  Bytes.unsafe_set b p ' ';
  let p = put_string b (p + 1) key in
  let p =
    match num with
    | None -> p
    | Some d ->
        Bytes.unsafe_set b p ' ';
        put_int b (p + 1) d
  in
  ignore (put_string b (put_suffixes b p ~rid ~trace) "\r\n");
  Bytes.unsafe_to_string b

(* [<op> <key> <flags> 0 <declared>[ id=<rid>][ trace=<hex>]\r\n<value>\r\n] *)
let storage_line op ?rid ?(trace = 0L) ~key ~flags ~declared value =
  let b =
    Bytes.create
      (String.length op + 1 + String.length key + 1 + Serve.dec_width flags + 3
     + Serve.dec_width declared + rid_width rid + trace_width trace + 2
     + String.length value + 2)
  in
  let p = put_string b 0 op in
  Bytes.unsafe_set b p ' ';
  let p = put_string b (p + 1) key in
  Bytes.unsafe_set b p ' ';
  let p = put_int b (p + 1) flags in
  let p = put_int b (put_string b p " 0 ") declared in
  let p = put_string b (put_suffixes b p ~rid ~trace) "\r\n" in
  ignore (put_string b (put_string b p value) "\r\n");
  Bytes.unsafe_to_string b

let fmt_get ?trace key = keyed_line "get" ?trace key
let fmt_multi_get keys = "get " ^ String.concat " " keys ^ "\r\n"

let fmt_storage op ?rid ?trace ~key ~flags ~value () =
  storage_line op ?rid ?trace ~key ~flags ~declared:(String.length value)
    value

let fmt_set ~key ~flags ~value = fmt_storage "set" ~key ~flags ~value ()
let fmt_add ~key ~flags ~value = fmt_storage "add" ~key ~flags ~value ()
let fmt_replace ~key ~flags ~value = fmt_storage "replace" ~key ~flags ~value ()

let fmt_set_rid ~rid ~key ~flags ~value =
  fmt_storage "set" ~rid ~key ~flags ~value ()

let fmt_set_lying ~key ~flags ~declared ~value =
  storage_line "set" ~key ~flags ~declared value

let fmt_set_lying_traced ~trace ~key ~flags ~declared ~value =
  storage_line "set" ~trace ~key ~flags ~declared value

let fmt_delete ?rid ?trace key = keyed_line "delete" ?rid ?trace key
let fmt_incr ?rid ?trace key d = keyed_line "incr" ~num:d ?rid ?trace key
let fmt_decr ?rid ?trace key d = keyed_line "decr" ~num:d ?rid ?trace key
let fmt_stats = "stats\r\n"
let fmt_stats_telemetry = "stats telemetry\r\n"
let quit = "quit\r\n"

let fmt_stats_reply kvs =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "STAT %s %s\r\n" k v) kvs)
  ^ end_

(* {1 Reply parsing} *)

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

(* [STAT <k> <v>] lines, each trimmed as [String.trim] would. *)
let parse_stats s =
  let n = String.length s in
  let rec lines i acc =
    if i > n then List.rev acc
    else
      let nl = match Serve.index_from s i n '\n' with -1 -> n | nl -> nl in
      let a = Serve.skip_blanks s i nl in
      let stop = Serve.trim_blanks s a nl in
      let w = word_stop s a stop in
      let k0 = word_start s w stop in
      let k1 = word_stop s k0 stop in
      let v0 = word_start s k1 stop in
      let v1 = word_stop s v0 stop in
      let acc =
        if word_is s a w "STAT" && v0 < stop && word_start s v1 stop = stop
        then (sub s k0 k1, sub s v0 v1) :: acc
        else acc
      in
      lines (nl + 1) acc
  in
  lines 0 []

(* Whether [s] can be a number reply: after the whitespace [String.trim]
   drops, [int_of_string] needs a sign or a digit first. Checked before
   anything is copied — a value reply carries a whole stored value. *)
let number_prefix s n =
  let i = Serve.skip_blanks s 0 n in
  i < n
  &&
  match String.unsafe_get s i with
  | '0' .. '9' | '-' | '+' -> true
  | _ -> false

exception Malformed

(* The [VALUE <key> <flags> <len>\r\n<data>\r\n] blocks of [s.[0, n)]
   from [off], up to END or [n], walked in place:
   [f s acc key_start key_stop data_off data_len] folds over them.
   @raise Malformed at a block that is not one. *)
let rec fold_blocks s n off f acc =
  if off >= n || has_at s n off end_ then acc
  else
    let cr = Serve.index_from s off n '\r' in
    if cr < 0 then raise_notrace Malformed
    else
      let a0 = word_start s off cr in
      let b0 = word_stop s a0 cr in
      let a1 = word_start s b0 cr in
      let b1 = word_stop s a1 cr in
      let b2 = word_stop s (word_start s b1 cr) cr in
      let a3 = word_start s b2 cr in
      let b3 = word_stop s a3 cr in
      if not (word_is s a0 b0 "VALUE" && a3 < cr && word_start s b3 cr = cr)
      then raise_notrace Malformed
      else
        let len = word_nat s a3 b3 in
        if len >= 0 && len <= n - cr - 4 then
          fold_blocks s n (cr + 4 + len) f (f s acc a1 b1 (cr + 2) len)
        else raise_notrace Malformed

type shape =
  | Plain of reply  (* a reply that carries nothing of [s] *)
  | Number_text
  | Stat_lines
  | One_value
  | Many_values
  | Malformed_values
  | Other

(* [s.[0, n)] is exactly [lit]. *)
let is s n lit = n = String.length lit && has_at_from s 0 lit 0

(* What [s.[0, n)] is, found without copying a value out of it. *)
let shape s n =
  if is s n not_stored then Plain NotFound
  else if
    n >= 3 && number_prefix s n
    && Option.is_some (int_of_string_opt (String.trim (String.sub s 0 n)))
  then Number_text
  else if has_at s n 0 "STAT " then Stat_lines
  else if is s n stored then Plain Stored
  else if is s n deleted then Plain Deleted
  else if is s n not_found then Plain NotFound
  else if is s n end_ then Plain Miss
  else if n > 6 && has_at s n 0 "VALUE " then
    match fold_blocks s n 0 (fun _ n _ _ _ _ -> n + 1) 0 with
    | 1 -> One_value
    | _ -> Many_values
    | exception Malformed -> Malformed_values
  else Other

let parse_reply s =
  let n = String.length s in
  match shape s n with
  | Plain r -> r
  | Number_text -> Number (int_of_string (String.trim s))
  | Stat_lines -> StatsReply (parse_stats s)
  | One_value ->
      Value (fold_blocks s n 0 (fun s _ _ _ d len -> String.sub s d len) "")
  | Many_values ->
      Values
        (List.rev
           (fold_blocks s n 0
              (fun s acc a b d len -> (sub s a b, String.sub s d len) :: acc)
              []))
  | Malformed_values -> Failed "malformed VALUE block"
  | Other -> Failed s

let reply_ok s n =
  match shape s n with Malformed_values | Other -> false | _ -> true
