module Space = Vmem.Space

let header_size = 24
let magic_request = 0x80
let magic_response = 0x81
let op_get = 0x00
let op_set = 0x01
let op_delete = 0x04
let status_ok = 0x0000
let status_not_found = 0x0001
let status_einval = 0x0004
let status_oom = 0x0082
let status_busy = 0x0085

let is_binary space ~addr ~len = len >= 1 && Space.load8 space addr = magic_request

let be16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let sign_extend_32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* Read big-endian fields out of simulated memory. *)
let load_be16 space a = (Space.load8 space a lsl 8) lor Space.load8 space (a + 1)

let load_be32 space a =
  (load_be16 space a lsl 16) lor load_be16 space (a + 2)

(* [bin-<opaque>] at [b.[p]]. *)
let put_rid b p opaque =
  Bytes.blit_string "bin-" 0 b p 4;
  let stop = p + 4 + Serve.dec_width opaque in
  Serve.put_dec b ~stop opaque;
  stop - p

let parse (r : Proto.req) space ~addr ~len =
  r.trace <- 0;
  r.verb <- Proto.Bad;
  r.key_len <- 0;
  r.rid_len <- 0;
  if len < header_size then Proto.bad r "short binary header"
  else if Space.load8 space addr <> magic_request then Proto.bad r "bad magic"
  else begin
    let opcode = Space.load8 space (addr + 1) in
    let keylen = load_be16 space (addr + 2) in
    let extlen = Space.load8 space (addr + 4) in
    (* The CVE: the unsigned on-the-wire field is consumed as signed. *)
    let bodylen = sign_extend_32 (load_be32 space (addr + 8)) in
    if keylen = 0 || keylen > Proto.max_key_len then
      Proto.bad r "bad key length"
    else if header_size + extlen + keylen > len then
      Proto.bad r "truncated key"
    else begin
      (* The key is read into the request's line buffer, where the text
         protocol's keys lie too. *)
      Proto.read_line r space (addr + header_size + extlen) keylen;
      r.key <- 0;
      r.key_len <- keylen;
      (* The opaque field doubles as the idempotency key: non-zero
         values key the server's replay journal (zero = "no id", what
         legacy clients send). Namespaced so text [id=] keys and
         binary opaques cannot collide: [bin-<opaque>] is written after
         the key. *)
      let opaque = load_be32 space (addr + 12) in
      if opaque <> 0 then begin
        r.rid <- keylen;
        r.rid_len <- put_rid r.line keylen opaque
      end;
      if opcode = op_get then begin
        r.verb <- Proto.Get;
        r.kind <- Proto.Get
      end
      else if opcode = op_delete then begin
        r.verb <- Proto.Delete;
        r.kind <- Proto.Delete
      end
      else if opcode = op_set then begin
        r.verb <- Proto.Set;
        if extlen <> 8 then Proto.bad r "set needs 8 extras bytes"
        else begin
          r.kind <- Proto.Set;
          r.flags <- load_be32 space (addr + header_size);
          (* vlen = bodylen - keylen - extlen, computed on the signed
             quantity exactly as the vulnerable code did. *)
          r.declared_len <- bodylen - keylen - extlen;
          r.data_off <- addr + header_size + extlen + keylen;
          r.data_len <- max 0 (len - (header_size + extlen + keylen))
        end
      end
      else Proto.bad r "unsupported opcode"
    end
  end

(* {1 Frame building} *)

let put_be16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 1) (Char.chr (v land 0xFF))

let put_be32 b off v =
  put_be16 b off ((v lsr 16) land 0xFFFF);
  put_be16 b (off + 2) (v land 0xFFFF)

(* The header of a frame with a body of [extlen + keylen + vlen] bytes,
   at [b.[off]]: the caller writes the body. *)
let put_header b off ~magic ~opcode ~status ~extlen ~keylen ~vlen =
  Bytes.fill b off header_size '\000';
  Bytes.set b off (Char.chr magic);
  Bytes.set b (off + 1) (Char.chr opcode);
  put_be16 b (off + 2) keylen;
  Bytes.set b (off + 4) (Char.chr extlen);
  put_be16 b (off + 6) status;
  put_be32 b (off + 8) (extlen + keylen + vlen)

let frame ~magic ~opcode ~status ~extras ~key ~value =
  let extlen = String.length extras and keylen = String.length key in
  let vlen = String.length value in
  let b = Bytes.create (header_size + extlen + keylen + vlen) in
  put_header b 0 ~magic ~opcode ~status ~extlen ~keylen ~vlen;
  Bytes.blit_string extras 0 b header_size extlen;
  Bytes.blit_string key 0 b (header_size + extlen) keylen;
  Bytes.blit_string value 0 b (header_size + extlen + keylen) vlen;
  Bytes.unsafe_to_string b

(* The GET reply: 4 extras bytes of flags, then the value, read from
   simulated memory straight into the frame. *)
let res_value space out ~flags ~addr ~len =
  let b = Netsim.Buf.reset out (header_size + 4 + len) in
  put_header b 0 ~magic:magic_response ~opcode:op_get ~status:status_ok
    ~extlen:4 ~keylen:0 ~vlen:len;
  put_be32 b header_size flags;
  Space.read_into space addr b (header_size + 4) len

let be32_string v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xFF))

let res_stored =
  frame ~magic:magic_response ~opcode:op_set ~status:status_ok ~extras:"" ~key:""
    ~value:""

let res_deleted =
  frame ~magic:magic_response ~opcode:op_delete ~status:status_ok ~extras:""
    ~key:"" ~value:""

let res_not_found =
  frame ~magic:magic_response ~opcode:op_get ~status:status_not_found ~extras:""
    ~key:"" ~value:""

let res_error status =
  frame ~magic:magic_response ~opcode:0xFF ~status ~extras:"" ~key:"" ~value:""

(* The causal trace context rides in the 8-byte CAS field (bytes 16-23),
   which our request subset never uses otherwise — [frame] always zeroes
   it, and zero is the "no context" encoding. The id is 62 bits, so the
   big-endian split into two 32-bit halves below is lossless; of a
   wider value, an int keeps the low 63 bits. *)
let parse_trace space ~addr ~len =
  if len < header_size || Space.load8 space addr <> magic_request then 0
  else (load_be32 space (addr + 16) lsl 32) lor load_be32 space (addr + 20)

let be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* Same extraction from raw wire bytes (pre-admission decisions). *)
let trace_of_string s len =
  if len < header_size || Char.code s.[0] <> magic_request then 0
  else (be32 s 16 lsl 32) lor be32 s 20

(* Patch the trace id into a copy of an already-built request frame. *)
let with_trace s trace =
  if trace = 0 then s
  else begin
    let b = Bytes.of_string s in
    put_be32 b 16 ((trace lsr 32) land 0xFFFFFFFF);
    put_be32 b 20 (trace land 0xFFFFFFFF);
    Bytes.unsafe_to_string b
  end

(* Patch the opaque field into a copy of an already-built frame. *)
let with_opaque s opaque =
  if opaque = 0 then s
  else begin
    let b = Bytes.of_string s in
    put_be32 b 12 (opaque land 0xFFFFFFFF);
    Bytes.unsafe_to_string b
  end

let req_get key =
  frame ~magic:magic_request ~opcode:op_get ~status:0 ~extras:"" ~key ~value:""

let req_set ~key ~flags ~value =
  frame ~magic:magic_request ~opcode:op_set ~status:0
    ~extras:(be32_string flags ^ "\000\000\000\000")
    ~key ~value

let req_set_opaque ~opaque ~key ~flags ~value =
  with_opaque (req_set ~key ~flags ~value) opaque

let req_set_lying ~key ~flags ~body_len ~value =
  let honest = req_set ~key ~flags ~value in
  let b = Bytes.of_string honest in
  put_be32 b 8 (body_len land 0xFFFFFFFF);
  Bytes.unsafe_to_string b

let req_delete ?(opaque = 0) key =
  with_opaque
    (frame ~magic:magic_request ~opcode:op_delete ~status:0 ~extras:"" ~key
       ~value:"")
    opaque

(* A GET reply's value is the body after its extras. The body must be
   exactly as long as the header says: a frame cut short — inside its
   extras or its value — is a failure, never a shorter value. *)
let parse_reply s =
  if String.length s < header_size then Proto.Failed "short binary reply"
  else if Char.code s.[0] <> magic_response then Proto.Failed "bad magic"
  else begin
    let opcode = Char.code s.[1] in
    let status = be16 s 6 in
    let extlen = Char.code s.[4] in
    let body = (be16 s 8 lsl 16) lor be16 s 10 in
    if status = status_not_found then
      if opcode = op_get then Proto.Miss else Proto.NotFound
    else if status <> status_ok then Proto.Failed (Printf.sprintf "status 0x%x" status)
    else if opcode = op_get then
      if String.length s - header_size <> body || extlen > body then
        Proto.Failed "truncated binary reply"
      else Proto.Value (String.sub s (header_size + extlen) (body - extlen))
    else if opcode = op_set then Proto.Stored
    else if opcode = op_delete then Proto.Deleted
    else Proto.Failed "unexpected opcode"
  end
