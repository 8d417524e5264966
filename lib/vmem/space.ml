module Sched = Simkern.Sched
module Cost = Simkern.Cost

type access = Read | Write | Exec
type si_code = MAPERR | ACCERR | PKUERR | POISON

exception
  Fault of {
    addr : int;
    access : access;
    code : si_code;
    pkey : int;
    tid : int;
  }

let pp_access ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"
  | Exec -> Format.pp_print_string ppf "exec"

let pp_si_code ppf = function
  | MAPERR -> Format.pp_print_string ppf "SEGV_MAPERR"
  | ACCERR -> Format.pp_print_string ppf "SEGV_ACCERR"
  | PKUERR -> Format.pp_print_string ppf "SEGV_PKUERR"
  | POISON -> Format.pp_print_string ppf "SEGV_POISON"

let fault_to_string = function
  | Fault { addr; access; code; pkey; tid } ->
      Some
        (Format.asprintf "SEGV at 0x%x (%a, %a, pkey %d, tid %d)" addr
           pp_access access pp_si_code code pkey tid)
  | _ -> None

let page_shift = 12
let ps = 1 lsl page_shift

(* flags byte per page *)
let fl_mapped = 8

type t = {
  mem : Bytes.t;
  size : int;
  pages : int;
  flags : Bytes.t;
  pkey_of : Bytes.t;
  touched : Bytes.t;
  mutable rss_pages : int;
  mutable max_rss_pages : int;
  mutable pkeys_allocated : int;  (* bitmask over keys 1..15 *)
  pkru_tbl : (int, int) Hashtbl.t;
  mutable cached_tid : int;
  mutable cached_pkru : int;
  cost : Cost.t;
  mutable free_list : (int * int) list;  (* (first_page, npages), sorted *)
  allocs : (int, int * int) Hashtbl.t;  (* base addr -> (total_pages, usable_pages) *)
  mutable fault_count : int;
  mutable wrpkru_count : int;
  mutable pkru_elided_count : int;
  mutable syscall_hook : (string -> unit) option;
  (* heap-poison sanitizer state (ASan-style shadow memory) *)
  mutable san_enabled : bool;
  mutable san_map : Bytes.t;  (* 1 bit per byte of [mem]; empty until enabled *)
  mutable san_bypass : bool;  (* allocator metadata accesses skip the scan *)
  mutable san_fault_count : int;
  mutable san_poisoned_count : int;
  mutable san_unpoisoned_count : int;
  (* observer of successful checked accesses (race detector shadow cells);
     consulted after every protection and poison check has passed *)
  mutable access_hook : (int -> int -> access -> unit) option;
}

let create ?(size_mib = 64) ?(cost = Cost.default) () =
  let size = size_mib * 1024 * 1024 in
  let pages = size / ps in
  {
    mem = Bytes.make size '\000';
    size;
    pages;
    flags = Bytes.make pages '\000';
    pkey_of = Bytes.make pages '\000';
    touched = Bytes.make pages '\000';
    rss_pages = 0;
    max_rss_pages = 0;
    pkeys_allocated = 0;
    pkru_tbl = Hashtbl.create 16;
    cached_tid = min_int;
    cached_pkru = Pkru.all_access;
    cost;
    (* page 0 reserved: null pointers always fault *)
    free_list = [ (1, pages - 1) ];
    allocs = Hashtbl.create 64;
    fault_count = 0;
    wrpkru_count = 0;
    pkru_elided_count = 0;
    syscall_hook = None;
    san_enabled = false;
    san_map = Bytes.empty;
    san_bypass = false;
    san_fault_count = 0;
    san_poisoned_count = 0;
    san_unpoisoned_count = 0;
    access_hook = None;
  }

let cost t = t.cost
let set_syscall_hook t h = t.syscall_hook <- h
let set_access_hook t h = t.access_hook <- h

let syscall_gate t name =
  match t.syscall_hook with Some h -> h name | None -> ()
let page_size _ = ps
let size t = t.size
let charge t c = if Sched.in_thread () then Sched.charge c else ignore t
let cur_tid () = if Sched.in_thread () then Sched.self () else -1

let cur_pkru t =
  let tid = cur_tid () in
  if tid = t.cached_tid then t.cached_pkru
  else begin
    let v =
      match Hashtbl.find_opt t.pkru_tbl tid with
      | Some v -> v
      | None -> Pkru.all_access
    in
    t.cached_tid <- tid;
    t.cached_pkru <- v;
    v
  end

let rdpkru t =
  charge t t.cost.rdpkru;
  cur_pkru t

(* Checked install: writing the value already in the register is a
   no-op on real hardware too, so the elided path skips the pipeline
   flush charge. Elisions are counted separately so the telemetry story
   stays honest. *)
let wrpkru t v =
  if v = cur_pkru t then t.pkru_elided_count <- t.pkru_elided_count + 1
  else begin
    charge t t.cost.wrpkru;
    t.wrpkru_count <- t.wrpkru_count + 1;
    let tid = cur_tid () in
    Hashtbl.replace t.pkru_tbl tid v;
    t.cached_tid <- tid;
    t.cached_pkru <- v
  end

let pkey_alloc t =
  syscall_gate t "pkey_alloc";
  let rec find key =
    if key > 15 then None
    else if t.pkeys_allocated land (1 lsl key) = 0 then begin
      t.pkeys_allocated <- t.pkeys_allocated lor (1 lsl key);
      charge t t.cost.syscall;
      Some key
    end
    else find (key + 1)
  in
  find 1

let pkey_free t key =
  syscall_gate t "pkey_free";
  if key < 1 || key > 15 then invalid_arg "pkey_free: bad key";
  t.pkeys_allocated <- t.pkeys_allocated land lnot (1 lsl key);
  charge t t.cost.syscall

let pkeys_in_use t =
  let rec count key acc =
    if key > 15 then acc
    else count (key + 1) (acc + ((t.pkeys_allocated lsr key) land 1))
  in
  count 1 0

let fault t addr access code pkey =
  t.fault_count <- t.fault_count + 1;
  charge t t.cost.signal_delivery;
  raise (Fault { addr; access; code; pkey; tid = cur_tid () })

let touch t p =
  if Bytes.unsafe_get t.touched p = '\000' then begin
    Bytes.unsafe_set t.touched p '\001';
    t.rss_pages <- t.rss_pages + 1;
    if t.rss_pages > t.max_rss_pages then t.max_rss_pages <- t.rss_pages;
    charge t t.cost.page_touch
  end

let check_page t addr p access =
  let f = Char.code (Bytes.unsafe_get t.flags p) in
  if f land fl_mapped = 0 then fault t addr access MAPERR (-1);
  let needed =
    match access with Read -> Prot.read | Write -> Prot.write | Exec -> Prot.exec
  in
  if f land needed = 0 then
    fault t addr access ACCERR (Char.code (Bytes.unsafe_get t.pkey_of p));
  let key = Char.code (Bytes.unsafe_get t.pkey_of p) in
  let pkru = cur_pkru t in
  (match access with
  | Read | Exec ->
      if not (Pkru.can_read pkru ~key) then fault t addr access PKUERR key
  | Write ->
      if not (Pkru.can_write pkru ~key) then fault t addr access PKUERR key);
  touch t p

(* {1 Heap-poison sanitizer}

   Shadow state for the ASan-style sanitizer: one bit per byte of [mem],
   set while the byte is poisoned (redzone, freed block, discarded
   domain). The scan runs after the protection checks succeed, charges no
   virtual time (shadow memory is a host-side artifact), and raises the simulator's SEGV with the [POISON] code so the
   ordinary rewind machinery treats a poisoned read exactly like a
   protection-key violation. Allocators flip [san_bypass] around their own
   metadata walks: headers and free-list links live inside poisoned
   ranges by design. *)

let san_set_range map addr len v =
  let stop = addr + len in
  let i = ref addr in
  while !i < stop && !i land 7 <> 0 do
    let b = !i lsr 3 and m = 1 lsl (!i land 7) in
    let cur = Char.code (Bytes.unsafe_get map b) in
    Bytes.unsafe_set map b
      (Char.unsafe_chr (if v then cur lor m else cur land lnot m));
    incr i
  done;
  let nbytes = (stop - !i) asr 3 in
  if nbytes > 0 then begin
    Bytes.fill map (!i lsr 3) nbytes (if v then '\xff' else '\000');
    i := !i + (nbytes lsl 3)
  end;
  while !i < stop do
    let b = !i lsr 3 and m = 1 lsl (!i land 7) in
    let cur = Char.code (Bytes.unsafe_get map b) in
    Bytes.unsafe_set map b
      (Char.unsafe_chr (if v then cur lor m else cur land lnot m));
    incr i
  done

(* First poisoned address in [addr, addr+len), skipping zero shadow bytes
   eight data bytes at a time. *)
let san_find map addr len =
  let stop = addr + len in
  let rec scan i =
    if i >= stop then None
    else
      let b = i lsr 3 in
      if i land 7 = 0 && stop - i >= 8 && Bytes.unsafe_get map b = '\000' then
        scan (i + 8)
      else if Char.code (Bytes.unsafe_get map b) land (1 lsl (i land 7)) <> 0
      then Some i
      else scan (i + 1)
  in
  scan addr

let set_sanitizer t on =
  if on && Bytes.length t.san_map = 0 then
    t.san_map <- Bytes.make ((t.size + 7) lsr 3) '\000';
  t.san_enabled <- on

let sanitizer_enabled t = t.san_enabled

let sanitizer_bypass t f =
  let was = t.san_bypass in
  t.san_bypass <- true;
  Fun.protect ~finally:(fun () -> t.san_bypass <- was) f

let san_range_arg op t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    invalid_arg ("Space." ^ op ^ ": range out of bounds")

let poison t ~addr ~len =
  if t.san_enabled && len > 0 then begin
    san_range_arg "poison" t addr len;
    san_set_range t.san_map addr len true;
    t.san_poisoned_count <- t.san_poisoned_count + 1
  end

let unpoison t ~addr ~len =
  if t.san_enabled && len > 0 then begin
    san_range_arg "unpoison" t addr len;
    san_set_range t.san_map addr len false;
    t.san_unpoisoned_count <- t.san_unpoisoned_count + 1
  end

let first_poisoned t ~addr ~len =
  if (not t.san_enabled) || len <= 0 then None else san_find t.san_map addr len

let poison_faults t = t.san_fault_count
let poisoned_ranges t = t.san_poisoned_count
let unpoisoned_ranges t = t.san_unpoisoned_count

let check t addr len access =
  if len > 0 then begin
    if addr < 0 || addr + len > t.size then fault t addr access MAPERR (-1);
    let p1 = addr lsr page_shift and p2 = (addr + len - 1) lsr page_shift in
    for p = p1 to p2 do
      check_page t (if p = p1 then addr else p lsl page_shift) p access
    done;
    (if t.san_enabled && not t.san_bypass then
       match san_find t.san_map addr len with
       | Some a ->
           t.san_fault_count <- t.san_fault_count + 1;
           fault t a access POISON
             (Char.code (Bytes.unsafe_get t.pkey_of (a lsr page_shift)))
       | None -> ());
    (* The access passed every check: report it. Allocator-metadata
       accesses (under [san_bypass], like the poison scan above) are not
       interesting to shadow-cell observers — TLSF headers are shared by
       design and cooperatively serialized. *)
    match t.access_hook with
    | Some h when not t.san_bypass -> h addr len access
    | Some _ | None -> ()
  end

(* {1 Mappings} *)

let rec insert_region list (p, n) =
  match list with
  | [] -> [ (p, n) ]
  | (q, m) :: rest ->
      if p + n < q then (p, n) :: list
      else if p + n = q then (p, n + m) :: rest
      else if q + m = p then insert_region rest (q, m + n)
      else (q, m) :: insert_region rest (p, n)

let mmap t ~len ~prot ~pkey =
  syscall_gate t "mmap";
  if pkey < 0 || pkey > 15 then invalid_arg "mmap: bad pkey";
  if len <= 0 then invalid_arg "mmap: bad length";
  let npages = (len + ps - 1) / ps in
  let total = npages + 1 (* guard page *) in
  let rec take acc = function
    | [] -> failwith "Space.mmap: address space exhausted"
    | (p, n) :: rest when n >= total ->
        let remaining = if n > total then [ (p + total, n - total) ] else [] in
        (p, List.rev_append acc (remaining @ rest))
    | r :: rest -> take (r :: acc) rest
  in
  let guard, free = take [] t.free_list in
  t.free_list <- free;
  let base_page = guard + 1 in
  let fbyte = Char.chr (fl_mapped lor prot) in
  let kbyte = Char.chr pkey in
  for p = base_page to base_page + npages - 1 do
    Bytes.unsafe_set t.flags p fbyte;
    Bytes.unsafe_set t.pkey_of p kbyte;
    Bytes.unsafe_set t.touched p '\000'
  done;
  Bytes.fill t.mem (base_page lsl page_shift) (npages lsl page_shift) '\000';
  let addr = base_page lsl page_shift in
  Hashtbl.replace t.allocs addr (total, npages);
  (* A fresh mapping carries no poison, whatever lived there before. *)
  if Bytes.length t.san_map > 0 then
    san_set_range t.san_map addr (npages lsl page_shift) false;
  charge t (t.cost.syscall +. (t.cost.mmap_per_page *. float_of_int total));
  addr

let munmap t addr =
  syscall_gate t "munmap";
  match Hashtbl.find_opt t.allocs addr with
  | None -> invalid_arg "munmap: not an allocation base"
  | Some (total, npages) ->
      let base_page = addr lsr page_shift in
      for p = base_page to base_page + npages - 1 do
        Bytes.unsafe_set t.flags p '\000';
        Bytes.unsafe_set t.pkey_of p '\000';
        if Bytes.unsafe_get t.touched p = '\001' then begin
          Bytes.unsafe_set t.touched p '\000';
          t.rss_pages <- t.rss_pages - 1
        end
      done;
      Hashtbl.remove t.allocs addr;
      t.free_list <- insert_region t.free_list (base_page - 1, total);
      charge t t.cost.syscall

let page_range addr len =
  (addr lsr page_shift, (addr + len - 1) lsr page_shift)

(* Validate an mprotect-style range fully before mutating anything:
   alignment, a positive length, page indices inside the [flags]/
   [pkey_of] arrays (out-of-range indices would drive [unsafe_set] into
   the OCaml heap), and every page mapped — so a rejected call leaves no
   half-applied protections behind. *)
let validate_prot_range t ~op ~addr ~len =
  if addr land (ps - 1) <> 0 then invalid_arg (op ^ ": unaligned");
  if len <= 0 then invalid_arg (op ^ ": bad length");
  let p1, p2 = page_range addr len in
  if addr < 0 || p2 >= t.pages then invalid_arg (op ^ ": out of range");
  for p = p1 to p2 do
    if Char.code (Bytes.unsafe_get t.flags p) land fl_mapped = 0 then
      invalid_arg (op ^ ": unmapped page")
  done;
  (p1, p2)

let mprotect t ~addr ~len ~prot =
  syscall_gate t "mprotect";
  let p1, p2 = validate_prot_range t ~op:"mprotect" ~addr ~len in
  let fbyte = Char.chr (fl_mapped lor prot) in
  for p = p1 to p2 do
    Bytes.unsafe_set t.flags p fbyte
  done;
  charge t t.cost.syscall

let pkey_mprotect t ~addr ~len ~prot ~pkey =
  syscall_gate t "pkey_mprotect";
  if pkey < 0 || pkey > 15 then invalid_arg "pkey_mprotect: bad pkey";
  let p1, p2 = validate_prot_range t ~op:"pkey_mprotect" ~addr ~len in
  let fbyte = Char.chr (fl_mapped lor prot) and kbyte = Char.chr pkey in
  for p = p1 to p2 do
    Bytes.unsafe_set t.flags p fbyte;
    Bytes.unsafe_set t.pkey_of p kbyte
  done;
  charge t t.cost.syscall

let pkey_of_addr t addr = Char.code (Bytes.get t.pkey_of (addr lsr page_shift))

let prot_of_addr t addr =
  Char.code (Bytes.get t.flags (addr lsr page_shift)) land lnot fl_mapped

let is_mapped t addr =
  addr >= 0 && addr < t.size
  && Char.code (Bytes.get t.flags (addr lsr page_shift)) land fl_mapped <> 0

let alloc_len t addr =
  match Hashtbl.find_opt t.allocs addr with
  | Some (_, npages) -> Some (npages lsl page_shift)
  | None -> None

(* {1 Checked access} *)

let load8 t addr =
  charge t t.cost.mem_access;
  check t addr 1 Read;
  Char.code (Bytes.unsafe_get t.mem addr)

let load16 t addr =
  charge t t.cost.mem_access;
  check t addr 2 Read;
  Bytes.get_uint16_le t.mem addr

let load32 t addr =
  charge t t.cost.mem_access;
  check t addr 4 Read;
  Int32.to_int (Bytes.get_int32_le t.mem addr) land 0xFFFFFFFF

let load64 t addr =
  charge t t.cost.mem_access;
  check t addr 8 Read;
  Int64.to_int (Bytes.get_int64_le t.mem addr)

let store8 t addr v =
  charge t t.cost.mem_access;
  check t addr 1 Write;
  Bytes.unsafe_set t.mem addr (Char.unsafe_chr (v land 0xFF))

let store16 t addr v =
  charge t t.cost.mem_access;
  check t addr 2 Write;
  Bytes.set_uint16_le t.mem addr (v land 0xFFFF)

let store32 t addr v =
  charge t t.cost.mem_access;
  check t addr 4 Write;
  Bytes.set_int32_le t.mem addr (Int32.of_int v)

let store64 t addr v =
  charge t t.cost.mem_access;
  check t addr 8 Write;
  Bytes.set_int64_le t.mem addr (Int64.of_int v)

(* Single-event upset: flip one bit of a mapped byte, bypassing the
   protection checks — a soft error is not a CPU access, so neither PKRU
   nor page protections apply and no time is charged. A flip aimed at an
   unmapped address lands in a hole and is lost. Returns whether the flip
   landed. Used by the fault-injection engine. *)
let flip_bit t ~addr ~bit =
  if addr >= 0 && addr < t.size
     && Char.code (Bytes.unsafe_get t.flags (addr lsr page_shift)) land fl_mapped
        <> 0
  then begin
    let b = Char.code (Bytes.get t.mem addr) in
    Bytes.set t.mem addr (Char.unsafe_chr (b lxor (1 lsl (bit land 7))));
    true
  end
  else false

let bulk_charge t len =
  charge t (t.cost.mem_access +. (t.cost.mem_byte *. float_of_int len))

(* Every bulk entry point validates its length before [bulk_charge]: a
   negative length must raise, not charge negative virtual time to the
   scheduler first, and a zero length is a free no-op. *)
let check_len op len = if len < 0 then invalid_arg (op ^ ": bad length")

let load_bytes t addr len =
  check_len "load_bytes" len;
  if len = 0 then Bytes.empty
  else begin
    bulk_charge t len;
    check t addr len Read;
    Bytes.sub t.mem addr len
  end

let store_bytes t addr b =
  let len = Bytes.length b in
  if len > 0 then begin
    bulk_charge t len;
    check t addr len Write;
    Bytes.blit b 0 t.mem addr len
  end

let store_string t addr s =
  let len = String.length s in
  if len > 0 then begin
    bulk_charge t len;
    check t addr len Write;
    Bytes.blit_string s 0 t.mem addr len
  end

let read_string t addr len =
  check_len "read_string" len;
  if len = 0 then ""
  else begin
    bulk_charge t len;
    check t addr len Read;
    Bytes.sub_string t.mem addr len
  end

let blit t ~src ~dst ~len =
  check_len "blit" len;
  if len > 0 then begin
    bulk_charge t (2 * len);
    check t src len Read;
    check t dst len Write;
    Bytes.blit t.mem src t.mem dst len
  end

let fill t ~addr ~len c =
  check_len "fill" len;
  if len > 0 then begin
    bulk_charge t len;
    check t addr len Write;
    Bytes.fill t.mem addr len c
  end

let memchr t ~addr ~len c =
  check_len "memchr" len;
  if len = 0 then None
  else begin
    check t addr len Read;
    (* Bound the scan to the checked window — [Bytes.index_from_opt]
       would walk the whole backing store, reading other domains' bytes
       and turning a short line scan into O(space) — and charge only for
       the bytes actually examined, with the same access base as
       [bulk_charge]. *)
    let limit = addr + len in
    let rec scan i =
      if i >= limit then None
      else if Bytes.unsafe_get t.mem i = c then Some i
      else scan (i + 1)
    in
    let r = scan addr in
    let examined = match r with Some i -> i - addr + 1 | None -> len in
    charge t (t.cost.mem_access +. (t.cost.mem_byte *. float_of_int examined));
    r
  end

let memcmp t a b len =
  check_len "memcmp" len;
  if len = 0 then 0
  else begin
    bulk_charge t (2 * len);
    check t a len Read;
    check t b len Read;
    compare (Bytes.sub t.mem a len) (Bytes.sub t.mem b len)
  end

(* {1 Kernel-mode access} *)

let unsafe_load_bytes t addr len = Bytes.sub t.mem addr len
let unsafe_store_bytes t addr b = Bytes.blit b 0 t.mem addr (Bytes.length b)

let iter_mapped_pages t f =
  for p = 0 to t.pages - 1 do
    if Char.code (Bytes.unsafe_get t.flags p) land fl_mapped <> 0 then
      f (p lsl page_shift)
  done

type image = {
  im_pages : (int * bytes) list;  (* (page index, contents) *)
  im_flags : Bytes.t;
  im_pkeys : Bytes.t;
  im_touched : Bytes.t;
  im_rss_pages : int;
  im_pkeys_allocated : int;
  im_free_list : (int * int) list;
  im_allocs : (int * (int * int)) list;
}

let checkpoint t =
  let pages = ref [] in
  for p = t.pages - 1 downto 0 do
    if Char.code (Bytes.unsafe_get t.flags p) land fl_mapped <> 0 then
      pages := (p, Bytes.sub t.mem (p lsl page_shift) ps) :: !pages
  done;
  {
    im_pages = !pages;
    im_flags = Bytes.copy t.flags;
    im_pkeys = Bytes.copy t.pkey_of;
    im_touched = Bytes.copy t.touched;
    im_rss_pages = t.rss_pages;
    im_pkeys_allocated = t.pkeys_allocated;
    im_free_list = t.free_list;
    im_allocs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.allocs [];
  }

let restore_image t im =
  Bytes.blit im.im_flags 0 t.flags 0 t.pages;
  Bytes.blit im.im_pkeys 0 t.pkey_of 0 t.pages;
  Bytes.blit im.im_touched 0 t.touched 0 t.pages;
  t.rss_pages <- im.im_rss_pages;
  if t.rss_pages > t.max_rss_pages then t.max_rss_pages <- t.rss_pages;
  t.pkeys_allocated <- im.im_pkeys_allocated;
  t.free_list <- im.im_free_list;
  Hashtbl.reset t.allocs;
  List.iter (fun (k, v) -> Hashtbl.replace t.allocs k v) im.im_allocs;
  List.iter
    (fun (p, contents) -> Bytes.blit contents 0 t.mem (p lsl page_shift) ps)
    im.im_pages;
  (* images predate the poison state: a restored process starts clean *)
  if Bytes.length t.san_map > 0 then
    Bytes.fill t.san_map 0 (Bytes.length t.san_map) '\000'

let image_bytes im = List.length im.im_pages * ps

let image_diff_pages base im =
  let known = Hashtbl.create 64 in
  List.iter (fun (p, contents) -> Hashtbl.replace known p contents) base.im_pages;
  List.fold_left
    (fun acc (p, contents) ->
      match Hashtbl.find_opt known p with
      | Some old when Bytes.equal old contents -> acc
      | Some _ | None -> acc + 1)
    0 im.im_pages

(* {1 Accounting} *)

let mapped_bytes t =
  Hashtbl.fold (fun _ (_, npages) acc -> acc + (npages lsl page_shift)) t.allocs 0

let rss_bytes t = t.rss_pages lsl page_shift
let max_rss_bytes t = t.max_rss_pages lsl page_shift
let fault_count t = t.fault_count
let wrpkru_writes t = t.wrpkru_count
let pkru_elided t = t.pkru_elided_count
