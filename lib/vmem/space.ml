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

exception Exhausted

let access_name = function Read -> "read" | Write -> "write" | Exec -> "exec"

let si_code_name = function
  | MAPERR -> "SEGV_MAPERR"
  | ACCERR -> "SEGV_ACCERR"
  | PKUERR -> "SEGV_PKUERR"
  | POISON -> "SEGV_POISON"

let pp_access ppf a = Format.pp_print_string ppf (access_name a)
let pp_si_code ppf c = Format.pp_print_string ppf (si_code_name c)

let page_shift = 12
let ps = 1 lsl page_shift
let page_mask = ps - 1

(* Shared constant frames: [shared.(c)] is a page of byte [c], made on
   the first whole-page [fill] with [c] and never written. A page may
   point at one until its first write (see [wframe]), so the host heap
   follows the pages a simulated process writes, not the size of its
   address space or of what it fills. Frames are immutable, so every
   space shares them. A slot not made yet holds [Bytes.empty], never a
   page's frame. [zero_page], the frame of byte 0, is the frame of every
   page not written since it was mapped. *)
let zero_page = Bytes.make ps '\000'

let shared =
  let a = Array.make 256 Bytes.empty in
  a.(0) <- zero_page;
  a

(* A frame is shared iff it is the shared frame of its own first byte. *)
let[@inline] is_shared f =
  f == Array.unsafe_get shared (Char.code (Bytes.unsafe_get f 0))

let shared_frame c =
  let i = Char.code c in
  if shared.(i) == Bytes.empty then shared.(i) <- Bytes.make ps c;
  shared.(i)

(* flags byte per page *)
let fl_mapped = 8

(* {1 Runs}

   Rows of three ints kept sorted by the first, in one flat array: the
   free list (first page, pages, unused) and the mappings (base address,
   usable pages, pages with the guard). A lookup is a binary search and
   a walk goes by address; adding or removing a row moves the rows after
   it, and allocates nothing once the array has grown. *)
type runs = { mutable rows : int array; mutable n : int }

let runs () = { rows = Array.make 48 0; n = 0 }
let[@inline] run_key r i = Array.unsafe_get r.rows (3 * i)
let[@inline] run_a r i = Array.unsafe_get r.rows ((3 * i) + 1)
let[@inline] run_b r i = Array.unsafe_get r.rows ((3 * i) + 2)

(* The first row whose key is at least [k]. *)
let runs_search r k =
  let lo = ref 0 and hi = ref r.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if run_key r mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let runs_set r i k a b =
  Array.unsafe_set r.rows (3 * i) k;
  Array.unsafe_set r.rows ((3 * i) + 1) a;
  Array.unsafe_set r.rows ((3 * i) + 2) b

let runs_insert r i k a b =
  if 3 * (r.n + 1) > Array.length r.rows then begin
    let g = Array.make (2 * Array.length r.rows) 0 in
    Array.blit r.rows 0 g 0 (3 * r.n);
    r.rows <- g
  end;
  Array.blit r.rows (3 * i) r.rows (3 * (i + 1)) (3 * (r.n - i));
  r.n <- r.n + 1;
  runs_set r i k a b

let runs_remove r i =
  Array.blit r.rows (3 * (i + 1)) r.rows (3 * i) (3 * (r.n - i - 1));
  r.n <- r.n - 1

(* The row keyed [k], or -1. *)
let runs_find r k =
  let i = runs_search r k in
  if i < r.n && run_key r i = k then i else -1

let runs_to_list r =
  List.init r.n (fun i -> (run_key r i, run_a r i, run_b r i))

let runs_of_list r l =
  r.n <- 0;
  List.iter (fun (k, a, b) -> runs_insert r r.n k a b) l

type t = {
  frames : Bytes.t array;  (* one per page; a shared frame until written *)
  mutable spare : Bytes.t array;  (* released private frames, [0, n_spare) *)
  mutable n_spare : int;
  size : int;
  pages : int;
  flags : Bytes.t;
  pkey_of : Bytes.t;
  touched : Bytes.t;
  mutable rss_pages : int;
  mutable max_rss_pages : int;
  mutable pkeys_allocated : int;  (* bitmask over keys 1..15 *)
  mutable pkru : int array;  (* by tid + 1; slot 0 is outside any thread *)
  cost : Cost.t;
  free_list : runs;  (* first page, pages: the unmapped runs *)
  allocs : runs;  (* base address, usable pages, pages with the guard *)
  mutable fault_count : int;
  mutable accesses : int;  (* [check] calls with a non-empty range *)
  mutable wrpkru_count : int;
  mutable pkru_elided_count : int;
  mutable syscall_hook : (string -> unit) option;
  (* heap-poison sanitizer state (ASan-style shadow memory) *)
  mutable san_enabled : bool;
  mutable san_map : Bytes.t;  (* 1 bit per byte; empty until enabled *)
  mutable san_bypass : bool;  (* allocator metadata accesses skip the scan *)
  mutable san_fault_count : int;
  mutable san_poisoned_count : int;
  mutable san_unpoisoned_count : int;
  (* observer of successful checked accesses (race detector shadow cells);
     consulted after every protection and poison check has passed *)
  mutable access_hook : (int -> int -> access -> unit) option;
}

let create ?(size_mib = 64) () =
  let size = size_mib * 1024 * 1024 in
  let pages = size / ps in
  let free_list = runs () in
  (* page 0 reserved: null pointers always fault *)
  runs_insert free_list 0 1 (pages - 1) 0;
  {
    frames = Array.make pages zero_page;
    spare = [||];
    n_spare = 0;
    size;
    pages;
    flags = Bytes.make pages '\000';
    pkey_of = Bytes.make pages '\000';
    touched = Bytes.make pages '\000';
    rss_pages = 0;
    max_rss_pages = 0;
    pkeys_allocated = 0;
    pkru = Array.make 8 Pkru.all_access;
    cost = Cost.default;
    free_list;
    allocs = runs ();
    fault_count = 0;
    accesses = 0;
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

(* The running thread's record is read by field, not through
   [Sched.charge] or [Sched.self]: libraries are compiled with -opaque,
   so those would be calls, and [Sched.charge] would box [c], on every
   checked access. [@inline] keeps [c] unboxed at the call sites in this
   module. Outside a thread nothing is charged and the tid is -1. *)
let running = Sched.running

let[@inline] charge c =
  if running.tid >= 0 then begin
    let k = running.cell in
    k.clock <- k.clock +. c
  end

let[@inline] cur_pkru t =
  let i = running.tid + 1 and a = t.pkru in
  if i < Array.length a then Array.unsafe_get a i else Pkru.all_access

let rdpkru t =
  charge t.cost.rdpkru;
  cur_pkru t

(* Checked install: writing the value already in the register is a
   no-op on real hardware too, so the elided path skips the pipeline
   flush charge. Elisions are counted separately so the telemetry story
   stays honest. *)
let wrpkru t v =
  if v = cur_pkru t then t.pkru_elided_count <- t.pkru_elided_count + 1
  else begin
    charge t.cost.wrpkru;
    t.wrpkru_count <- t.wrpkru_count + 1;
    let i = running.tid + 1 and n = Array.length t.pkru in
    if i >= n then begin
      let a = Array.make (Int.max (i + 1) (2 * n)) Pkru.all_access in
      Array.blit t.pkru 0 a 0 n;
      t.pkru <- a
    end;
    Array.unsafe_set t.pkru i v
  end

(* [Some k] for each key, made once: an allocation returns one of them. *)
let some_key = Array.init 16 Option.some

let pkey_alloc t =
  syscall_gate t "pkey_alloc";
  let key = ref 1 in
  while !key <= 15 && t.pkeys_allocated land (1 lsl !key) <> 0 do
    incr key
  done;
  if !key > 15 then None
  else begin
    t.pkeys_allocated <- t.pkeys_allocated lor (1 lsl !key);
    charge t.cost.syscall;
    some_key.(!key)
  end

let pkey_free t key =
  syscall_gate t "pkey_free";
  if key < 1 || key > 15 then invalid_arg "pkey_free: bad key";
  if t.pkeys_allocated land (1 lsl key) = 0 then
    invalid_arg "pkey_free: key not allocated";
  t.pkeys_allocated <- t.pkeys_allocated land lnot (1 lsl key);
  charge t.cost.syscall

let pkeys_in_use t =
  let rec count key acc =
    if key > 15 then acc
    else count (key + 1) (acc + ((t.pkeys_allocated lsr key) land 1))
  in
  count 1 0

let fault t addr access code pkey =
  t.fault_count <- t.fault_count + 1;
  charge t.cost.signal_delivery;
  raise (Fault { addr; access; code; pkey; tid = running.tid })

(* The [Prot] bit an access needs, and the PKRU bits that refuse it on
   key 0: access-disable for reads and fetches, access- and
   write-disable for writes. A page's key [k] shifts them by [2 * k], the
   layout [Pkru] encodes. Written out here because a call into [Prot] or
   [Pkru] is not inlined across the -opaque boundary. *)
let[@inline] prot_needed = function Read -> 1 | Write -> 2 | Exec -> 4
let[@inline] pkru_refusing = function Read | Exec -> 1 | Write -> 3

(* {1 Heap-poison sanitizer}

   Shadow state for the ASan-style sanitizer: one bit per byte of the space,
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

(* First poisoned address in [i, stop), skipping zero shadow bytes eight
   data bytes at a time. Top-level rather than a local closure: it runs
   on every checked access while the sanitizer is on. *)
let rec san_scan map i stop =
  if i >= stop then None
  else
    let b = i lsr 3 in
    if i land 7 = 0 && stop - i >= 8 && Bytes.unsafe_get map b = '\000' then
      san_scan map (i + 8) stop
    else if Char.code (Bytes.unsafe_get map b) land (1 lsl (i land 7)) <> 0
    then Some i
    else san_scan map (i + 1) stop

let san_find map addr len = san_scan map addr (addr + len)

let set_sanitizer t on =
  if on && Bytes.length t.san_map = 0 then
    t.san_map <- Bytes.make ((t.size + 7) lsr 3) '\000';
  t.san_enabled <- on

let sanitizer_enabled t = t.san_enabled

let begin_bypass t =
  let was = t.san_bypass in
  t.san_bypass <- true;
  was

let end_bypass t was = t.san_bypass <- was

let sanitizer_bypass t f =
  let was = begin_bypass t in
  match f () with
  | v ->
      end_bypass t was;
      v
  | exception e ->
      end_bypass t was;
      raise e

let san_range_arg op t addr len =
  if addr < 0 || len < 0 || len > t.size - addr then
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

let poison_faults t = t.san_fault_count
let poisoned_ranges t = t.san_poisoned_count
let unpoisoned_ranges t = t.san_unpoisoned_count

(* The fault for page [p] of a range at [addr] that [check] refused:
   unmapped, then a protection that forbids the access, then the key.
   The address is [addr] on the range's first page and the page's base
   on a later one. *)
let refuse t addr p access =
  let a = if p = addr lsr page_shift then addr else p lsl page_shift in
  let f = Char.code (Bytes.unsafe_get t.flags p) in
  let key = Char.code (Bytes.unsafe_get t.pkey_of p) in
  if f land fl_mapped = 0 then fault t a access MAPERR (-1)
  else if f land prot_needed access = 0 then fault t a access ACCERR key
  else fault t a access PKUERR key

(* The one access path. Each page of the range, in order, must be
   mapped, allow the access and carry a key the thread's PKRU allows;
   its first access makes it resident. The loop stops at the first page
   that fails, which [refuse] then reports: the loop itself makes no
   call, so nothing in it is spilled around one. The bound is written as
   [len > size - addr] because [addr + len] wraps for an address near
   [max_int]. *)
let check t addr len access =
  if len > 0 then begin
    t.accesses <- t.accesses + 1;
    if addr < 0 || len > t.size - addr then fault t addr access MAPERR (-1);
    let needed = fl_mapped lor prot_needed access
    and refusing = pkru_refusing access in
    let pkru = cur_pkru t in
    let p2 = (addr + len - 1) lsr page_shift in
    let p = ref (addr lsr page_shift) in
    while
      !p <= p2
      && Char.code (Bytes.unsafe_get t.flags !p) land needed = needed
      && pkru
         land (refusing lsl (2 * Char.code (Bytes.unsafe_get t.pkey_of !p)))
         = 0
    do
      if Bytes.unsafe_get t.touched !p = '\000' then begin
        Bytes.unsafe_set t.touched !p '\001';
        t.rss_pages <- t.rss_pages + 1;
        if t.rss_pages > t.max_rss_pages then t.max_rss_pages <- t.rss_pages;
        charge t.cost.page_touch
      end;
      incr p
    done;
    if !p <= p2 then refuse t addr !p access;
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

(* {2 Spare frames}

   A page's private frame is released when the page is pointed back at
   a shared frame: by [mmap] over it, or by a [fill] that covers it
   whole. Released frames go on the space's spare stack, and [wframe]
   takes one from there before it makes a new one. So a range that is
   mapped, written, unmapped and mapped again (a discarded domain's
   heap, re-created by the next instance) costs the host its frames
   once. [munmap] releases nothing: the residue stays in the frames
   until a mapping covers them. *)

let release t f =
  if not (is_shared f) then begin
    let n = t.n_spare in
    if n = Array.length t.spare then begin
      let g = Array.make (Int.max 8 (2 * n)) zero_page in
      Array.blit t.spare 0 g 0 n;
      t.spare <- g
    end;
    Array.unsafe_set t.spare n f;
    t.n_spare <- n + 1
  end

(* First page of the first free run of at least [total] pages, taken
   from the run. *)
let take_run t total =
  let fl = t.free_list in
  let i = ref 0 in
  while !i < fl.n && run_a fl !i < total do
    incr i
  done;
  if !i = fl.n then raise Exhausted;
  let p = run_key fl !i and n = run_a fl !i in
  if n > total then runs_set fl !i (p + total) (n - total) 0
  else runs_remove fl !i;
  p

(* Give the run [p, p + n) back, joined with the free runs it touches. *)
let give_run t p n =
  let fl = t.free_list in
  let i = runs_search fl p in
  let joins_prev = i > 0 && run_key fl (i - 1) + run_a fl (i - 1) = p
  and joins_next = i < fl.n && p + n = run_key fl i in
  if joins_prev then begin
    let q = run_key fl (i - 1) and m = run_a fl (i - 1) + n in
    if joins_next then begin
      runs_set fl (i - 1) q (m + run_a fl i) 0;
      runs_remove fl i
    end
    else runs_set fl (i - 1) q m 0
  end
  else if joins_next then runs_set fl i p (n + run_a fl i) 0
  else runs_insert fl i p n 0

let mmap t ~len ~prot ~pkey =
  syscall_gate t "mmap";
  if pkey < 0 || pkey > 15 then invalid_arg "mmap: bad pkey";
  if len <= 0 then invalid_arg "mmap: bad length";
  let npages = (len + ps - 1) / ps in
  let total = npages + 1 (* guard page *) in
  let guard = take_run t total in
  let base_page = guard + 1 in
  let fbyte = Char.chr (fl_mapped lor prot) in
  let kbyte = Char.chr pkey in
  (* Fresh pages read as zero: they share [zero_page] again, and the
     range's old frames go on the spare stack. *)
  for p = base_page to base_page + npages - 1 do
    Bytes.unsafe_set t.flags p fbyte;
    Bytes.unsafe_set t.pkey_of p kbyte;
    Bytes.unsafe_set t.touched p '\000';
    let f = Array.unsafe_get t.frames p in
    if f != zero_page then begin
      release t f;
      Array.unsafe_set t.frames p zero_page
    end
  done;
  let addr = base_page lsl page_shift in
  runs_insert t.allocs (runs_search t.allocs addr) addr npages total;
  (* A fresh mapping carries no poison, whatever lived there before. *)
  if Bytes.length t.san_map > 0 then
    san_set_range t.san_map addr (npages lsl page_shift) false;
  charge (t.cost.syscall +. (t.cost.mmap_per_page *. float_of_int total));
  addr

let munmap t addr =
  syscall_gate t "munmap";
  let i = runs_find t.allocs addr in
  if i < 0 then invalid_arg "munmap: not an allocation base";
  let npages = run_a t.allocs i and total = run_b t.allocs i in
  let base_page = addr lsr page_shift in
  for p = base_page to base_page + npages - 1 do
    Bytes.unsafe_set t.flags p '\000';
    Bytes.unsafe_set t.pkey_of p '\000';
    if Bytes.unsafe_get t.touched p = '\001' then begin
      Bytes.unsafe_set t.touched p '\000';
      t.rss_pages <- t.rss_pages - 1
    end
  done;
  (* The frames stay: like physical pages after munmap, they keep
     their residue until a mapping is made over them. *)
  runs_remove t.allocs i;
  give_run t (base_page - 1) total;
  charge t.cost.syscall

let[@inline] first_page addr = addr lsr page_shift
let[@inline] last_page addr len = (addr + len - 1) lsr page_shift

(* Validate an mprotect-style range fully before mutating anything:
   alignment, a positive length, page indices inside the [flags]/
   [pkey_of] arrays (out-of-range indices would drive [unsafe_set] into
   the OCaml heap), and every page mapped — so a rejected call leaves no
   half-applied protections behind. The pages are
   [first_page addr, last_page addr len]. *)
let validate_prot_range t ~op ~addr ~len =
  if addr land (ps - 1) <> 0 then invalid_arg (op ^ ": unaligned");
  if len <= 0 then invalid_arg (op ^ ": bad length");
  let p2 = last_page addr len in
  if addr < 0 || p2 >= t.pages then invalid_arg (op ^ ": out of range");
  for p = first_page addr to p2 do
    if Char.code (Bytes.unsafe_get t.flags p) land fl_mapped = 0 then
      invalid_arg (op ^ ": unmapped page")
  done

let mprotect t ~addr ~len ~prot =
  syscall_gate t "mprotect";
  validate_prot_range t ~op:"mprotect" ~addr ~len;
  let fbyte = Char.chr (fl_mapped lor prot) in
  for p = first_page addr to last_page addr len do
    Bytes.unsafe_set t.flags p fbyte
  done;
  charge t.cost.syscall

let pkey_mprotect t ~addr ~len ~prot ~pkey =
  syscall_gate t "pkey_mprotect";
  if pkey < 0 || pkey > 15 then invalid_arg "pkey_mprotect: bad pkey";
  validate_prot_range t ~op:"pkey_mprotect" ~addr ~len;
  let fbyte = Char.chr (fl_mapped lor prot) and kbyte = Char.chr pkey in
  for p = first_page addr to last_page addr len do
    Bytes.unsafe_set t.flags p fbyte;
    Bytes.unsafe_set t.pkey_of p kbyte
  done;
  charge t.cost.syscall

let pkey_of_addr t addr = Char.code (Bytes.get t.pkey_of (addr lsr page_shift))

let prot_of_addr t addr =
  Char.code (Bytes.get t.flags (addr lsr page_shift)) land lnot fl_mapped

let is_mapped t addr =
  addr >= 0 && addr < t.size
  && Char.code (Bytes.get t.flags (addr lsr page_shift)) land fl_mapped <> 0

let mapped_len t addr =
  let i = runs_find t.allocs addr in
  if i < 0 then 0 else run_a t.allocs i lsl page_shift

(* {1 Frames}

   Reads index [frames] directly; every write goes through [wframe],
   which first gives a page still on a shared frame a copy of its own,
   so a shared frame is never written. Callers run [check] before
   either: an access that faults reads nothing and materialises no
   frame. The copy is a spare frame (above) filled with the shared
   frame's byte, or a new frame when none is spare. A frame is larger
   than the largest minor-heap block, so a new one is allocated on the
   major heap and a materialising store allocates no minor words. *)

let[@inline] frame t addr = Array.unsafe_get t.frames (addr lsr page_shift)

let materialise t p c =
  let n = t.n_spare in
  let f =
    if n = 0 then Bytes.make ps c
    else begin
      t.n_spare <- n - 1;
      let f = Array.unsafe_get t.spare (n - 1) in
      Array.unsafe_set t.spare (n - 1) zero_page;
      Bytes.unsafe_fill f 0 ps c;
      f
    end
  in
  Array.unsafe_set t.frames p f;
  f

let[@inline] wframe t addr =
  let p = addr lsr page_shift in
  let f = Array.unsafe_get t.frames p in
  if not (is_shared f) then f else materialise t p (Bytes.unsafe_get f 0)

(* Bytes from [addr] to the end of its page, or to [stop] if sooner. *)
let[@inline] chunk addr stop =
  Int.min (stop - addr) (ps - (addr land page_mask))

(* Bytes from the start of the page holding [addr - 1] up to [addr]. *)
let[@inline] below addr = ((addr - 1) land page_mask) + 1

let[@inline] get_byte t addr =
  Char.code (Bytes.unsafe_get (frame t addr) (addr land page_mask))

let[@inline] set_byte t addr v =
  Bytes.unsafe_set (wframe t addr) (addr land page_mask) (Char.unsafe_chr v)

(* A little-endian value of [n] bytes that crosses a page boundary, one
   byte at a time. The result is unsigned for n < 8 and keeps the low 63
   bits for n = 8, as the single-frame loads below do. *)
let load_straddle t addr n =
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor get_byte t (addr + i)
  done;
  !v

(* [asr] gives the top byte of an 8-byte store the sign bit, as
   [Int64.of_int] does. *)
let store_straddle t addr n v =
  for i = 0 to n - 1 do
    set_byte t (addr + i) ((v asr (8 * i)) land 0xFF)
  done

(* {1 Checked access} *)

let load8 t addr =
  charge t.cost.mem_access;
  check t addr 1 Read;
  get_byte t addr

let load16 t addr =
  charge t.cost.mem_access;
  check t addr 2 Read;
  let off = addr land page_mask in
  if off <= ps - 2 then Bytes.get_uint16_le (frame t addr) off
  else load_straddle t addr 2

let load32 t addr =
  charge t.cost.mem_access;
  check t addr 4 Read;
  let off = addr land page_mask in
  if off <= ps - 4 then
    Int32.to_int (Bytes.get_int32_le (frame t addr) off) land 0xFFFFFFFF
  else load_straddle t addr 4

let load64 t addr =
  charge t.cost.mem_access;
  check t addr 8 Read;
  let off = addr land page_mask in
  if off <= ps - 8 then Int64.to_int (Bytes.get_int64_le (frame t addr) off)
  else load_straddle t addr 8

let store8 t addr v =
  charge t.cost.mem_access;
  check t addr 1 Write;
  set_byte t addr (v land 0xFF)

let store16 t addr v =
  charge t.cost.mem_access;
  check t addr 2 Write;
  let off = addr land page_mask in
  if off <= ps - 2 then Bytes.set_uint16_le (wframe t addr) off (v land 0xFFFF)
  else store_straddle t addr 2 v

let store32 t addr v =
  charge t.cost.mem_access;
  check t addr 4 Write;
  let off = addr land page_mask in
  if off <= ps - 4 then Bytes.set_int32_le (wframe t addr) off (Int32.of_int v)
  else store_straddle t addr 4 v

let store64 t addr v =
  charge t.cost.mem_access;
  check t addr 8 Write;
  let off = addr land page_mask in
  if off <= ps - 8 then Bytes.set_int64_le (wframe t addr) off (Int64.of_int v)
  else store_straddle t addr 8 v

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
    set_byte t addr (get_byte t addr lxor (1 lsl (bit land 7)));
    true
  end
  else false

let bulk_charge t len =
  charge (t.cost.mem_access +. (t.cost.mem_byte *. float_of_int len))

(* Every bulk entry point validates its length before [bulk_charge]: a
   negative length must raise, not charge negative virtual time to the
   scheduler first, and a zero length is a free no-op. *)
let check_len op len = if len < 0 then invalid_arg (op ^ ": bad length")

(* A range that cannot lie in the space faults before [bulk_charge]:
   the charge of such a length can move the clock by any amount, and
   [2 * len] wraps negative from 2^61. [check] raises the [MAPERR]. A
   range inside the space is charged, then checked. *)
let[@inline] outside t addr len = addr < 0 || len > t.size - addr

let[@inline] checked_bulk t addr len access =
  if outside t addr len then check t addr len access;
  bulk_charge t len;
  check t addr len access

(* The bulk copies below walk their range one page at a time; a range
   inside one page is a single [Bytes] call. *)

let copy_to t addr b off len =
  let a = ref addr and stop = addr + len in
  while !a < stop do
    let n = chunk !a stop in
    Bytes.blit (frame t !a) (!a land page_mask) b (off + !a - addr) n;
    a := !a + n
  done

let copy_out t addr len =
  let b = Bytes.create len in
  copy_to t addr b 0 len;
  b

let copy_in t addr s off len =
  let a = ref addr and stop = addr + len in
  while !a < stop do
    let n = chunk !a stop in
    Bytes.blit_string s (off + !a - addr) (wframe t !a) (!a land page_mask) n;
    a := !a + n
  done

let load_bytes t addr len =
  check_len "load_bytes" len;
  if len = 0 then Bytes.empty
  else begin
    checked_bulk t addr len Read;
    copy_out t addr len
  end

let store_bytes t addr b =
  let len = Bytes.length b in
  if len > 0 then begin
    checked_bulk t addr len Write;
    copy_in t addr (Bytes.unsafe_to_string b) 0 len
  end

let store_string t addr s =
  let len = String.length s in
  if len > 0 then begin
    checked_bulk t addr len Write;
    copy_in t addr s 0 len
  end

let store_from t addr b off len =
  check_len "store_from" len;
  if off < 0 || off > Bytes.length b - len then
    invalid_arg "Space.store_from: range outside the buffer";
  if len > 0 then begin
    checked_bulk t addr len Write;
    copy_in t addr (Bytes.unsafe_to_string b) off len
  end

(* The buffer is made only after the range passed its check, so a
   faulting read of any length allocates nothing. *)
let read_string t addr len =
  check_len "read_string" len;
  if len = 0 then ""
  else begin
    checked_bulk t addr len Read;
    Bytes.unsafe_to_string (copy_out t addr len)
  end

let read_into t addr b off len =
  check_len "read_into" len;
  if off < 0 || off > Bytes.length b - len then
    invalid_arg "Space.read_into: range outside the buffer";
  if len > 0 then begin
    checked_bulk t addr len Read;
    copy_to t addr b off len
  end

(* memmove: when the destination overlaps the source from above, the
   copy runs from the top down, so no source byte is overwritten before
   it is read. Each step stays inside one source and one destination
   page. *)
let blit t ~src ~dst ~len =
  check_len "blit" len;
  if len > 0 then begin
    if outside t src len || outside t dst len then begin
      check t src len Read;
      check t dst len Write
    end;
    bulk_charge t (2 * len);
    check t src len Read;
    check t dst len Write;
    let so = src land page_mask and d = dst land page_mask in
    if so + len <= ps && d + len <= ps then
      Bytes.blit (frame t src) so (wframe t dst) d len
    else if dst > src && dst < src + len then begin
      let a = ref (src + len) and b = ref (dst + len) in
      while !a > src do
        let n = Int.min (!a - src) (Int.min (below !a) (below !b)) in
        a := !a - n;
        b := !b - n;
        Bytes.blit (frame t !a) (!a land page_mask) (wframe t !b)
          (!b land page_mask) n
      done
    end
    else begin
      let a = ref src and b = ref dst and stop = src + len in
      while !a < stop do
        let n = Int.min (chunk !a stop) (ps - (!b land page_mask)) in
        Bytes.blit (frame t !a) (!a land page_mask) (wframe t !b)
          (!b land page_mask) n;
        a := !a + n;
        b := !b + n
      done
    end
  end

let fill t ~addr ~len c =
  check_len "fill" len;
  if len > 0 then begin
    checked_bulk t addr len Write;
    (* A whole page points at the shared frame of [c]: its old frame
       goes on the spare stack, and a later write copies the shared one
       first. *)
    let a = ref addr and stop = addr + len in
    while !a < stop do
      let n = chunk !a stop in
      if n = ps then begin
        let p = !a lsr page_shift in
        release t (Array.unsafe_get t.frames p);
        Array.unsafe_set t.frames p (shared_frame c)
      end
      else Bytes.fill (wframe t !a) (!a land page_mask) n c;
      a := !a + n
    done
  end

let memchr t ~addr ~len c =
  check_len "memchr" len;
  if len = 0 then -1
  else begin
    check t addr len Read;
    (* Bound the scan to the checked window and charge only for the
       bytes actually examined, with the same access base as
       [bulk_charge]. *)
    let a = ref addr and stop = addr + len and found = ref (-1) in
    while !found < 0 && !a < stop do
      let f = frame t !a and off = !a land page_mask in
      let lim = off + chunk !a stop in
      let i = ref off in
      while !i < lim && Bytes.unsafe_get f !i <> c do
        incr i
      done;
      if !i < lim then found := !a + (!i - off) else a := !a + (lim - off)
    done;
    let examined = if !found >= 0 then !found - addr + 1 else len in
    charge (t.cost.mem_access +. (t.cost.mem_byte *. float_of_int examined));
    !found
  end

let memcmp t a b len =
  check_len "memcmp" len;
  if len = 0 then 0
  else begin
    if outside t a len || outside t b len then begin
      check t a len Read;
      check t b len Read
    end;
    bulk_charge t (2 * len);
    check t a len Read;
    check t b len Read;
    compare (copy_out t a len) (copy_out t b len)
  end

(* {1 Kernel-mode access} *)

let unsafe_load_bytes t addr len =
  if addr < 0 || len < 0 || len > t.size - addr then
    invalid_arg "Space.unsafe_load_bytes: range out of bounds";
  if len = 0 then Bytes.empty else copy_out t addr len

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
  im_free_list : (int * int * int) list;
  im_allocs : (int * int * int) list;
}

let checkpoint t =
  let pages = ref [] in
  for p = t.pages - 1 downto 0 do
    if Char.code (Bytes.unsafe_get t.flags p) land fl_mapped <> 0 then begin
      (* a page on a shared frame is stored as that frame itself *)
      let f = t.frames.(p) in
      pages := (p, if is_shared f then f else Bytes.copy f) :: !pages
    end
  done;
  {
    im_pages = !pages;
    im_flags = Bytes.copy t.flags;
    im_pkeys = Bytes.copy t.pkey_of;
    im_touched = Bytes.copy t.touched;
    im_rss_pages = t.rss_pages;
    im_pkeys_allocated = t.pkeys_allocated;
    im_free_list = runs_to_list t.free_list;
    im_allocs = runs_to_list t.allocs;
  }

let restore_image t im =
  Bytes.blit im.im_flags 0 t.flags 0 t.pages;
  Bytes.blit im.im_pkeys 0 t.pkey_of 0 t.pages;
  Bytes.blit im.im_touched 0 t.touched 0 t.pages;
  t.rss_pages <- im.im_rss_pages;
  if t.rss_pages > t.max_rss_pages then t.max_rss_pages <- t.rss_pages;
  t.pkeys_allocated <- im.im_pkeys_allocated;
  runs_of_list t.free_list im.im_free_list;
  runs_of_list t.allocs im.im_allocs;
  (* Shared frames are shared again; the image's own frames are copied
     back, so an image never aliases a frame live memory may write. *)
  List.iter
    (fun (p, contents) ->
      if is_shared contents then t.frames.(p) <- contents
      else Bytes.blit contents 0 (wframe t (p lsl page_shift)) 0 ps)
    im.im_pages;
  (* images predate the poison state: a restored process starts clean *)
  if Bytes.length t.san_map > 0 then
    Bytes.fill t.san_map 0 (Bytes.length t.san_map) '\000'

let image_bytes im = List.length im.im_pages * ps

(* {1 Accounting} *)

let mapped_bytes t =
  let sum = ref 0 in
  for i = 0 to t.allocs.n - 1 do
    sum := !sum + (run_a t.allocs i lsl page_shift)
  done;
  !sum

let rss_bytes t = t.rss_pages lsl page_shift
let max_rss_bytes t = t.max_rss_pages lsl page_shift
let fault_count t = t.fault_count
let checked_accesses t = t.accesses
let wrpkru_writes t = t.wrpkru_count
let pkru_elided t = t.pkru_elided_count
