module Space = Vmem.Space

type kind =
  | Get
  | Multi_get
  | Set
  | Add
  | Replace
  | Delete
  | Incr
  | Decr
  | Stats
  | Stats_telemetry
  | Quit
  | Bad

type req = {
  mutable line : bytes;
  mutable src : string;
  mutable verb : kind;
  mutable kind : kind;
  mutable reason : string;
  mutable key : int;
  mutable key_len : int;
  mutable stop : int;
  mutable flags : int;
  mutable declared_len : int;
  mutable data_off : int;
  mutable data_len : int;
  mutable delta : int;
  mutable rid : int;
  mutable rid_len : int;
  mutable trace : int;
}

let create () =
  {
    line = Bytes.create 256;
    src = "";
    verb = Bad;
    kind = Bad;
    reason = "";
    key = 0;
    key_len = 0;
    stop = 0;
    flags = 0;
    declared_len = 0;
    data_off = 0;
    data_len = 0;
    delta = 0;
    rid = 0;
    rid_len = 0;
    trace = 0;
  }

let max_key_len = 250

(* Room the line buffer keeps past the bytes read into it: the binary
   protocol writes a request's [bin-<opaque>] rid after its key. *)
let line_room = 16

let read_line r space addr n =
  if n + line_room > Bytes.length r.line then
    r.line <- Bytes.create (max (n + line_room) (2 * Bytes.length r.line));
  Space.read_into space addr r.line 0 n;
  r.src <- Bytes.unsafe_to_string r.line

let bad r reason =
  r.kind <- Bad;
  r.reason <- reason

let key_string r = String.sub r.src r.key r.key_len
let rid_string r = if r.rid_len = 0 then "" else String.sub r.src r.rid r.rid_len

(* {1 Line scanning}

   A request line is scanned where it lies: a word is a maximal run of
   bytes other than ' ' (a tab belongs to its word), and a scan passes
   positions around as ints, so it allocates nothing. The request keeps
   positions, not copies. *)

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

(* {2 Numbers}

   Decimal as memcached reads its fields ([safe_strtoul], [safe_strtol],
   [safe_strtoull]): an optional sign, then at least one digit, with no
   base prefix, no underscore and no overflow; an unsigned field takes
   no ['-']. [no_number] stands for a word that is none: a value read
   has a magnitude of at most [max_int], so it is never [min_int]. *)

let no_number = min_int

let rec digits s i b v =
  if i = b then v
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if v > (max_int - d) / 10 then no_number
        else digits s (i + 1) b ((v * 10) + d)
    | _ -> no_number

let number ~signed s a b =
  if a >= b then no_number
  else
    match String.unsafe_get s a with
    | '+' -> if b - a > 1 then digits s (a + 1) b 0 else no_number
    | '-' ->
        if signed && b - a > 1 then
          let v = digits s (a + 1) b 0 in
          if v = no_number then no_number else -v
        else no_number
    | _ -> digits s a b 0

(* Plain digits, as a reply's VALUE length: the value, or -1. *)
let word_nat s a b =
  let v = if a < b then digits s a b 0 else no_number in
  if v = no_number then -1 else v

let decimal_value s =
  let v = number ~signed:false s 0 (String.length s) in
  if v = no_number then None else Some v

(* {2 Tokens} *)

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

(* {2 Commands} *)

let verb_of s a b =
  match b - a with
  | 3 ->
      if word_is s a b "get" then Get
      else if word_is s a b "set" then Set
      else if word_is s a b "add" then Add
      else Bad
  | 4 ->
      if word_is s a b "incr" then Incr
      else if word_is s a b "decr" then Decr
      else if word_is s a b "quit" then Quit
      else Bad
  | 5 -> if word_is s a b "stats" then Stats else Bad
  | 6 -> if word_is s a b "delete" then Delete else Bad
  | 7 -> if word_is s a b "replace" then Replace else Bad
  | _ -> Bad

let unknown = "unknown command"

(* [get k1 k2 ...]: the words of [i, stop), each short enough. *)
let rec multi_get r s i stop =
  let a = word_start s i stop in
  if a = stop then r.kind <- Multi_get
  else
    let b = word_stop s a stop in
    if b - a > max_key_len then bad r unknown else multi_get r s b stop

(* The commands that may carry a rid, over the command part [0, stop)
   of [s] with its rid token dropped. *)
let mutation r s verb ~v1 ~stop ~addr ~len ~data_off =
  let a1 = word_start s v1 stop in
  let b1 = word_stop s a1 stop in
  let a2 = word_start s b1 stop in
  let b2 = word_stop s a2 stop in
  let a3 = word_start s b2 stop in
  let b3 = word_stop s a3 stop in
  let a4 = word_start s b3 stop in
  let b4 = word_stop s a4 stop in
  let key_ok = b1 - a1 <= max_key_len in
  match verb with
  | Delete ->
      if a1 < stop && a2 = stop && key_ok then r.kind <- Delete
      else bad r unknown
  | Incr | Decr ->
      if a2 < stop && a3 = stop && key_ok then begin
        let d = number ~signed:false s a2 b2 in
        if d = no_number then bad r "bad incr/decr delta"
        else begin
          r.kind <- verb;
          r.delta <- d
        end
      end
      else bad r unknown
  | Set | Add | Replace ->
      if a4 < stop && word_start s b4 stop = stop then begin
        let flags = number ~signed:false s a2 b2 in
        let exptime = number ~signed:true s a3 b3 in
        let declared = number ~signed:true s a4 b4 in
        if flags = no_number || exptime = no_number || declared = no_number
        then bad r "bad set arguments"
        else if not key_ok then bad r "key too long"
        else if data_off > len then bad r "missing data block"
        else begin
          r.kind <- verb;
          r.flags <- flags;
          r.declared_len <- declared;
          r.data_off <- addr + data_off;
          r.data_len <- max 0 (len - data_off - 2)
        end
      end
      else bad r unknown
  | _ -> bad r unknown

(* The line [s.[0, n)] of a request at [addr] whose message is [len]
   bytes and whose data block starts at [data_off]. The verb and the key
   are the line's first two words; the command itself is read from the
   line's command part, which ends before a trailing trace token. The
   first two words of a valid command are the line's own, so [key] is
   also the key of every valid command. *)
let scan r s n ~addr ~len ~data_off =
  r.src <- s;
  let v0 = word_start s 0 n in
  let v1 = word_stop s v0 n in
  let k0 = word_start s v1 n in
  let verb = verb_of s v0 v1 in
  r.verb <- verb;
  r.key <- k0;
  r.key_len <- word_stop s k0 n - k0;
  let stop = command_stop s n in
  r.stop <- stop;
  let ra = rid_start s stop in
  (match verb with
  | (Set | Add | Replace | Delete | Incr | Decr) when ra >= 0 ->
      r.rid <- ra + 3;
      r.rid_len <- trim_stop s ra stop - (ra + 3)
  | _ ->
      r.rid <- 0;
      r.rid_len <- 0);
  let a1 = word_start s v1 stop in
  let b1 = word_stop s a1 stop in
  let a2 = word_start s b1 stop in
  match verb with
  | Get ->
      if a1 = stop then bad r unknown
      else if a2 < stop then multi_get r s a1 stop
      else if b1 - a1 <= max_key_len then r.kind <- Get
      else bad r unknown
  | Quit when a1 = stop -> r.kind <- Quit
  | Stats when a1 = stop -> r.kind <- Stats
  | Stats when word_is s a1 b1 "telemetry" && a2 = stop ->
      r.kind <- Stats_telemetry
  | _ ->
      mutation r s verb ~v1
        ~stop:(if ra < 0 then stop else ra)
        ~addr ~len ~data_off

(* The trace id of a request, without interpreting the command — servers
   call this once on arrival to install the context, then [parse]. *)
let parse_trace r space ~addr ~len =
  match Space.memchr space ~addr ~len '\r' with
  | -1 -> 0
  | cr ->
      read_line r space addr (cr - addr);
      line_trace r.src (cr - addr)

let parse r space ~addr ~len =
  r.trace <- 0;
  match Space.memchr space ~addr ~len '\r' with
  | -1 ->
      r.verb <- Bad;
      r.key_len <- 0;
      r.rid_len <- 0;
      bad r "no CRLF"
  | cr ->
      let n = cr - addr in
      read_line r space addr n;
      r.trace <- line_trace r.src n;
      scan r r.src n ~addr ~len ~data_off:(n + 2)

(* Same extraction from raw wire bytes — for decisions taken before the
   request is admitted into simulated memory (load shedding). *)
let trace_of_string msg len =
  match Serve.index_from msg 0 len '\r' with
  | -1 -> 0
  | cr -> line_trace msg cr

(* A router's line ends at its first CR, else its first LF, else with
   the message; only a CR-terminated one carries a trace. *)
let scan_wire r msg len =
  let cr = Serve.index_from msg 0 len '\r' in
  let n =
    if cr >= 0 then cr
    else match Serve.index_from msg 0 len '\n' with -1 -> len | lf -> lf
  in
  r.trace <- (if cr >= 0 then line_trace msg cr else 0);
  scan r msg n ~addr:0 ~len ~data_off:(n + 2)

let stored = "STORED\r\n"
let not_stored = "NOT_STORED\r\n"
let server_error_oom = "SERVER_ERROR out of memory storing object\r\n"
let server_error_oom_get = "SERVER_ERROR out of memory writing get response\r\n"
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

(* [VALUE <key> <flags> <len>\r\n] with the key [s.[k, k + kn)]: its
   width, and the header written at [p], returning the position after
   it. *)
let header_width ~key_len ~flags ~len =
  6 + key_len + 1 + Serve.dec_width flags + 1 + Serve.dec_width len + 2

let put_header b p s k kn ~flags ~len =
  let p = put_string b p "VALUE " in
  Bytes.blit_string s k b p kn;
  let p = p + kn in
  Bytes.unsafe_set b p ' ';
  let p = put_int b (p + 1) flags in
  Bytes.unsafe_set b p ' ';
  let p = put_int b (p + 1) len in
  put_string b p "\r\n"

let value_reply space out r ~flags ~addr ~len =
  let b =
    Netsim.Buf.reset out
      (header_width ~key_len:r.key_len ~flags ~len + len + 2
     + String.length end_)
  in
  let p = put_header b 0 r.src r.key r.key_len ~flags ~len in
  Space.read_into space addr b p len;
  ignore (put_string b (put_string b (p + len) "\r\n") end_)

let values_reply hits ~write =
  let n =
    List.fold_left
      (fun n (key, flags, len, _) ->
        n + header_width ~key_len:(String.length key) ~flags ~len + len + 2)
      (String.length end_) hits
  in
  let b = Bytes.create n in
  let p =
    List.fold_left
      (fun p (key, flags, len, src) ->
        let p = put_header b p key 0 (String.length key) ~flags ~len in
        write src b p len;
        put_string b (p + len) "\r\n")
      0 hits
  in
  ignore (put_string b p end_);
  Bytes.unsafe_to_string b

(* {1 Request formatting} *)

(* Trace rides last on the line ([... id=<rid> trace=<hex>]): it is the
   first token dropped on the server. Zero = no context = no token. *)
let trace_width tr = if tr = 0 then 0 else 23
let rid_width = function None -> 0 | Some r -> 4 + String.length r
let hex = "0123456789abcdef"

let put_suffixes b p ~rid ~trace =
  let p =
    match rid with None -> p | Some r -> put_string b (put_string b p " id=") r
  in
  if trace = 0 then p
  else begin
    let p = put_string b p " trace=" in
    for i = 0 to 15 do
      Bytes.unsafe_set b (p + i) hex.[(trace lsr (60 - (4 * i))) land 15]
    done;
    p + 16
  end

let add_tokens out ~rid ~rid_len ~trace =
  let rw = if rid_len = 0 then 0 else 4 + rid_len in
  let p = Netsim.Buf.reserve out (rw + trace_width trace) in
  let b = Netsim.Buf.bytes out in
  let p =
    if rid_len = 0 then p
    else begin
      let p = put_string b p " id=" in
      Bytes.blit rid 0 b p rid_len;
      p + rid_len
    end
  in
  ignore (put_suffixes b p ~rid:None ~trace)

(* [<verb> <key>[ <num>][ id=<rid>][ trace=<hex>]\r\n] *)
let keyed_line verb ?num ?rid ?(trace = 0) key =
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
let storage_line op ?rid ?(trace = 0) ~key ~flags ~declared value =
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
