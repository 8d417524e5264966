module Space = Vmem.Space
module Api = Sdrad.Api
module Types = Sdrad.Types
module Rewind_log = Checkpoint.Rewind_log

exception Bad_image of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_image s)) fmt
let header_size = 12
let magic = "SIMG"

let put_u32le b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xFF))

let encode ~width ~height f =
  let buf = Buffer.create (header_size + (width * height)) in
  Buffer.add_string buf magic;
  let hdr = Bytes.create 8 in
  put_u32le hdr 0 width;
  put_u32le hdr 4 height;
  Buffer.add_bytes buf hdr;
  (* Row-major RLE: merge equal consecutive pixels, max run 255. *)
  let emit count (r, g, b) =
    Buffer.add_char buf (Char.chr count);
    Buffer.add_char buf (Char.chr r);
    Buffer.add_char buf (Char.chr g);
    Buffer.add_char buf (Char.chr b)
  in
  let pending = ref None in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let px = f x y in
      match !pending with
      | Some (count, p) when p = px && count < 255 -> pending := Some (count + 1, p)
      | Some (count, p) ->
          emit count p;
          pending := Some (1, px)
      | None -> pending := Some (1, px)
    done
  done;
  (match !pending with Some (count, p) -> emit count p | None -> ());
  Buffer.contents buf

let encode_malicious () =
  (* 0x10000 * 0x10000 pixels: w*h*3 computed in 32 bits is 0, which the
     vulnerable decoder rounds up to a minimal allocation; the run data
     then writes far beyond it. *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  let hdr = Bytes.create 8 in
  put_u32le hdr 0 0x10000;
  put_u32le hdr 4 0x10000;
  Buffer.add_bytes buf hdr;
  for _ = 1 to 800 do
    Buffer.add_char buf '\255';
    Buffer.add_string buf "\xde\xad\xbe"
  done;
  Buffer.contents buf

type decoded = { width : int; height : int; fb : int; fb_len : int }

let decode space ~alloc ~src ~len ~vulnerable =
  if len < header_size then bad "truncated header";
  if Space.read_string space src 4 <> magic then bad "bad magic";
  let width = Space.load32 space (src + 4) in
  let height = Space.load32 space (src + 8) in
  if width <= 0 || height <= 0 then bad "bad dimensions";
  let pixels = width * height in
  let fb_len =
    if vulnerable then (
      (* The bug: the size computation is done in a 32-bit temporary. *)
      let truncated = pixels * 3 land 0xFFFFFFFF in
      max 16 truncated)
    else begin
      if pixels > 1 lsl 24 then bad "image too large";
      pixels * 3
    end
  in
  let fb = alloc fb_len in
  let off = ref (src + header_size) in
  let written = ref 0 in
  while !written < pixels && !off + 4 <= src + len do
    let count = Space.load8 space !off in
    let r = Space.load8 space (!off + 1) in
    let g = Space.load8 space (!off + 2) in
    let b = Space.load8 space (!off + 3) in
    if count = 0 then bad "zero-length run";
    for _ = 1 to count do
      (* The vulnerable build trusts [pixels] and writes past [fb_len]. *)
      let base = fb + (!written * 3) in
      Space.store8 space base r;
      Space.store8 space (base + 1) g;
      Space.store8 space (base + 2) b;
      incr written
    done;
    off := !off + 4
  done;
  if !written < pixels then bad "run data short of %d pixels" (pixels - !written);
  { width; height; fb; fb_len }

let pixel space d ~x ~y =
  if x < 0 || x >= d.width || y < 0 || y >= d.height then bad "pixel out of range";
  let base = d.fb + (((y * d.width) + x) * 3) in
  (Space.load8 space base, Space.load8 space (base + 1), Space.load8 space (base + 2))

let decode_isolated sd ?(udi = 8) ~vulnerable image =
  let space = Api.space sd in
  Api.run sd ~udi
    ~opts:{ Types.default_options with heap_size = 256 * 1024 }
    ~on_rewind:(fun fault -> Result.Error fault)
    (fun () ->
      let src = Api.malloc sd ~udi (String.length image) in
      Space.store_string space src image;
      Api.enter sd udi;
      (* malloc failure behaves as in C: a NULL return that the decoder
         dereferences — a null-page SEGV the domain rewinds from. *)
      let alloc n =
        match Api.malloc sd ~udi n with
        | p -> p
        | exception (Tlsf.Out_of_memory | Failure _) -> 0
      in
      let d = decode space ~alloc ~src ~len:(String.length image) ~vulnerable in
      Api.exit_domain sd;
      (* Transient-domain pattern: merge the sub-heap into the caller so
         the framebuffer lives on; the domain itself is gone. If the
         sub-heap fails its pre-merge integrity walk (the decoder
         corrupted it without faulting), the memory is discarded and the
         incident surfaces as an error. Only then is the audit log read:
         a clean decode pays for no monitor-memory reads. *)
      let appended = Api.audit_appended sd in
      Api.destroy sd udi ~heap:`Merge;
      if Api.audit_appended sd = appended then Result.Ok d
      else
        let r = List.hd (List.rev (Api.audit_records sd)) in
        let cause = Types.Explicit r.Rewind_log.r_msg in
        Result.Error
          { failed_udi = r.r_target; cause; tid = r.r_tid; at = r.r_end })
