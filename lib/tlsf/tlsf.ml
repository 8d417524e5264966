exception Out_of_memory
exception Heap_corrupted of string

(* Block layout (all fields in simulated memory):
     +0   prev_phys     address of the previous physical block (valid only
                        when the PREV_FREE flag is set)
     +8   size|flags    payload size (multiple of 8) or'ed with flag bits
     +16  payload       for free blocks: +16 next_free, +24 prev_free
   The minimum payload is 16 bytes so a free block can hold its links. *)

let align = 8
let header = 16
let min_payload = 16
let min_block = header + min_payload
let block_overhead = header
let min_region_len = min_block + header

let fl_free = 1
let fl_prev_free = 2
let fl_last = 4
let flag_mask = 7

(* Two-level index parameters (mattconte/tlsf with SL_INDEX_COUNT = 16):
   sizes below [small] map linearly into first level 0. *)
let sl_log2 = 4
let sl_count = 16
let fl_shift = 7 (* log2 (sl_count * align) *)
let small = 1 lsl fl_shift
let fl_count = 40

type t = {
  space : Vmem.Space.t;
  name : string;
  mutable fl_bitmap : int;
  sl_bitmap : int array;
  heads : int array array; (* [fl][sl] -> head block address, 0 = empty *)
  mutable regions : (int * int) list;
  mutable used_bytes : int;
  mutable used_blocks : int;
  mutable total_bytes : int;
  mutable inject_failure : (int -> bool) option;
      (* fault injection: when set and it answers [true] for a request
         size, the allocation fails as if the heap were exhausted *)
  mutable malloc_calls : int;
  mutable free_calls : int;
  mutable region_adds : int;
  mutable sanitize : bool;
      (* heap-poison mode: trailing redzone per allocation, poison-on-free
         fill, everything but live payloads poisoned in the shadow map *)
}

let create space ~name =
  {
    space;
    name;
    fl_bitmap = 0;
    sl_bitmap = Array.make fl_count 0;
    heads = Array.make_matrix fl_count sl_count 0;
    regions = [];
    used_bytes = 0;
    used_blocks = 0;
    total_bytes = 0;
    inject_failure = None;
    malloc_calls = 0;
    free_calls = 0;
    region_adds = 0;
    sanitize = false;
  }

let set_inject_failure t h = t.inject_failure <- h

(* Sanitize mode must be chosen before the first region arrives: regions
   are poisoned wholesale on entry and allocations carve live windows out
   of that, an invariant that cannot be established retroactively. *)
let redzone = 16

let set_sanitize t on =
  if on <> t.sanitize then begin
    if t.regions <> [] then
      invalid_arg "Tlsf.set_sanitize: heap already has regions";
    if on && not (Vmem.Space.sanitizer_enabled t.space) then
      Vmem.Space.set_sanitizer t.space true;
    t.sanitize <- on
  end

let sanitized t = t.sanitize

(* The allocator's own metadata — headers, free-list links — lives inside
   poisoned ranges by design; every public entry point runs with the
   bypass flag raised. For a sanitized heap that suspends the poison
   scan; for every heap it also marks the accesses as allocator-internal
   so shadow-cell observers ({!Vmem.Space.set_access_hook}) skip them —
   header words are shared by design and cooperatively serialized. *)
let with_bypass t f = Vmem.Space.sanitizer_bypass t.space f

let space t = t.space
let name t = t.name
let regions t = List.rev t.regions
let used_bytes t = t.used_bytes
let used_blocks t = t.used_blocks
let total_bytes t = t.total_bytes
let malloc_calls t = t.malloc_calls
let free_calls t = t.free_calls

let fls n =
  let rec go n i = if n = 0 then i - 1 else go (n lsr 1) (i + 1) in
  go n 0

let ffs n = fls (n land -n)
let round_up n = (n + align - 1) land lnot (align - 1)

(* A size class (fl, sl) travels packed in one int, [fl lsl sl_log2 lor
   sl], so the class lookups of every malloc and free build no tuple. *)
let class_fl c = c lsr sl_log2
let class_sl c = c land (sl_count - 1)

let mapping_insert size =
  if size < small then size lsr 3 (* first level 0 *)
  else
    let f = fls size in
    let sl = (size lsr (f - sl_log2)) land (sl_count - 1) in
    ((f - fl_shift + 1) lsl sl_log2) lor sl

let mapping_search size =
  if size < small then mapping_insert size
  else mapping_insert (size + (1 lsl (fls size - sl_log2)) - 1)

(* Header accessors — every one is a checked simulated-memory access. *)
let hdr t b = Vmem.Space.load64 t.space (b + 8)
let set_hdr t b v = Vmem.Space.store64 t.space (b + 8) v
let size_of word = word land lnot flag_mask
let is_free word = word land fl_free <> 0
let is_last word = word land fl_last <> 0
let prev_is_free word = word land fl_prev_free <> 0
let prev_phys t b = Vmem.Space.load64 t.space b
let set_prev_phys t b v = Vmem.Space.store64 t.space b v
let next_free t b = Vmem.Space.load64 t.space (b + header)
let set_next_free t b v = Vmem.Space.store64 t.space (b + header) v
let prev_free_link t b = Vmem.Space.load64 t.space (b + header + 8)
let set_prev_free_link t b v = Vmem.Space.store64 t.space (b + header + 8) v
let next_phys b size = b + header + size

let insert_free t b size =
  let c = mapping_insert size in
  let fl = class_fl c and sl = class_sl c in
  let head = t.heads.(fl).(sl) in
  set_next_free t b head;
  set_prev_free_link t b 0;
  if head <> 0 then set_prev_free_link t head b;
  t.heads.(fl).(sl) <- b;
  t.sl_bitmap.(fl) <- t.sl_bitmap.(fl) lor (1 lsl sl);
  t.fl_bitmap <- t.fl_bitmap lor (1 lsl fl)

let remove_free t b size =
  let c = mapping_insert size in
  let fl = class_fl c and sl = class_sl c in
  let next = next_free t b and prev = prev_free_link t b in
  if next <> 0 then set_prev_free_link t next prev;
  if prev <> 0 then set_next_free t prev next
  else begin
    if t.heads.(fl).(sl) <> b then
      raise
        (Heap_corrupted
           (Printf.sprintf "%s: free list head mismatch at 0x%x" t.name b));
    t.heads.(fl).(sl) <- next;
    if next = 0 then begin
      t.sl_bitmap.(fl) <- t.sl_bitmap.(fl) land lnot (1 lsl sl);
      if t.sl_bitmap.(fl) = 0 then
        t.fl_bitmap <- t.fl_bitmap land lnot (1 lsl fl)
    end
  end

let add_region t ~addr ~len =
  let full_len = len in
  let len = len land lnot (align - 1) in
  if len < min_region_len then invalid_arg "Tlsf.add_region: region too small";
  with_bypass t (fun () ->
      let size = len - header in
      set_prev_phys t addr 0;
      set_hdr t addr (size lor fl_free lor fl_last);
      insert_free t addr size;
      t.regions <- (addr, len) :: t.regions;
      t.total_bytes <- t.total_bytes + len;
      t.region_adds <- t.region_adds + 1);
  (* Sanitized heaps start fully poisoned; [malloc] carves live payload
     windows out, [free] re-poisons them. The unaligned tail (never handed
     out) is poisoned too. *)
  if t.sanitize then Vmem.Space.poison t.space ~addr ~len:full_len

(* The class of the first non-empty list at or above (fl, sl); -1 when
   there is none. *)
let find_suitable t fl sl =
  let sl_map = t.sl_bitmap.(fl) land (-1 lsl sl) in
  if sl_map <> 0 then (fl lsl sl_log2) lor ffs sl_map
  else
    let fl_map = t.fl_bitmap land (-1 lsl (fl + 1)) in
    if fl_map = 0 then -1
    else
      let fl' = ffs fl_map in
      (fl' lsl sl_log2) lor ffs t.sl_bitmap.(fl')

let malloc_opt_raw t request =
  let injected =
    match t.inject_failure with Some f -> f request | None -> false
  in
  let adjust = max min_payload (round_up (max request 1)) in
  let c = mapping_search adjust in
  if injected || class_fl c >= fl_count then None
  else
    match find_suitable t (class_fl c) (class_sl c) with
    | -1 -> None
    | c ->
        let b = t.heads.(class_fl c).(class_sl c) in
        let word = hdr t b in
        let block_size = size_of word in
        remove_free t b block_size;
        let last = is_last word in
        let prev_free_flag = word land fl_prev_free in
        if block_size >= adjust + min_block then begin
          (* Split: the remainder becomes a new free block. *)
          let rem = next_phys b adjust in
          let rem_size = block_size - adjust - header in
          set_prev_phys t rem b;
          set_hdr t rem (rem_size lor fl_free lor (if last then fl_last else 0));
          if not last then begin
            let np = next_phys rem rem_size in
            set_prev_phys t np rem
            (* np's PREV_FREE flag is already set: its neighbour was free. *)
          end;
          set_hdr t b (adjust lor prev_free_flag);
          insert_free t rem rem_size;
          t.used_bytes <- t.used_bytes + adjust
        end
        else begin
          set_hdr t b
            (block_size lor prev_free_flag lor (if last then fl_last else 0));
          if not last then begin
            let np = next_phys b block_size in
            set_hdr t np (hdr t np land lnot fl_prev_free)
          end;
          t.used_bytes <- t.used_bytes + block_size
        end;
        t.used_blocks <- t.used_blocks + 1;
        t.malloc_calls <- t.malloc_calls + 1;
        Some (b + header)

(* Sanitized allocation: the physical block is the request plus a
   trailing redzone; only [payload, payload + size - redzone) is
   unpoisoned, so an overflow past the usable size lands on poisoned
   bytes before it can reach the next block's header. *)
let malloc_opt t request =
  if not t.sanitize then with_bypass t (fun () -> malloc_opt_raw t request)
  else
    Vmem.Space.sanitizer_bypass t.space (fun () ->
        match malloc_opt_raw t (max request 1 + redzone) with
        | None -> None
        | Some p ->
            let s = size_of (hdr t (p - header)) in
            Vmem.Space.unpoison t.space ~addr:p ~len:(s - redzone);
            Vmem.Space.poison t.space ~addr:(p + s - redzone) ~len:redzone;
            Some p)

let malloc t request =
  match malloc_opt t request with Some p -> p | None -> raise Out_of_memory

let free_raw t ptr =
  let b = ptr - header in
  let word = hdr t b in
  if is_free word then
    raise (Heap_corrupted (Printf.sprintf "%s: double free at 0x%x" t.name ptr));
  let size = size_of word in
  if size < min_payload || size land (align - 1) <> 0 then
    raise
      (Heap_corrupted (Printf.sprintf "%s: bad block header at 0x%x" t.name ptr));
  t.used_bytes <- t.used_bytes - size;
  t.used_blocks <- t.used_blocks - 1;
  t.free_calls <- t.free_calls + 1;
  let b = ref b and size = ref size and last = ref (is_last word) in
  let prev_free_flag = ref (word land fl_prev_free) in
  (* Coalesce with the next physical block. *)
  if not !last then begin
    let np = next_phys !b !size in
    let nw = hdr t np in
    if is_free nw then begin
      remove_free t np (size_of nw);
      size := !size + header + size_of nw;
      last := is_last nw
    end
  end;
  (* Coalesce with the previous physical block. *)
  if !prev_free_flag <> 0 then begin
    let pb = prev_phys t !b in
    let pw = hdr t pb in
    if not (is_free pw) then
      raise
        (Heap_corrupted
           (Printf.sprintf "%s: prev-free flag without free neighbour at 0x%x"
              t.name !b));
    remove_free t pb (size_of pw);
    size := !size + header + size_of pw;
    b := pb;
    prev_free_flag := pw land fl_prev_free
  end;
  set_hdr t !b (!size lor fl_free lor !prev_free_flag lor (if !last then fl_last else 0));
  if not !last then begin
    let np = next_phys !b !size in
    set_prev_phys t np !b;
    set_hdr t np (hdr t np lor fl_prev_free)
  end;
  insert_free t !b !size

(* Sanitized free: fill the dying payload with the poison pattern, then
   release it, then mark it poisoned in the shadow map. The fill happens
   BEFORE [free_raw] so coalescing's free-list links (written into the
   first 16 payload bytes) survive; double frees are detected first so
   the fill cannot clobber a live free block's links. *)
let free t ptr =
  if not t.sanitize then with_bypass t (fun () -> free_raw t ptr)
  else
    Vmem.Space.sanitizer_bypass t.space (fun () ->
        let word = hdr t (ptr - header) in
        if is_free word then free_raw t ptr (* raises the double-free error *)
        else begin
          let size = size_of word in
          Vmem.Space.fill t.space ~addr:ptr ~len:size '\xfd';
          free_raw t ptr;
          Vmem.Space.poison t.space ~addr:ptr ~len:size
        end)

let usable_size t ptr =
  let s = with_bypass t (fun () -> size_of (hdr t (ptr - header))) in
  if t.sanitize then s - redzone else s

let realloc_raw t ptr request =
  if ptr = 0 then malloc t request
  else begin
    let old_size = usable_size t ptr in
    let adjust = max min_payload (round_up (max request 1)) in
    if adjust <= old_size then begin
      (* Shrink in place when the tail is worth returning. *)
      if old_size - adjust >= min_block then begin
        let b = ptr - header in
        let word = hdr t b in
        let last = is_last word in
        let rem = next_phys b adjust in
        let rem_size = old_size - adjust - header in
        set_hdr t b (adjust lor (word land fl_prev_free));
        set_prev_phys t rem b;
        set_hdr t rem (rem_size lor (if last then fl_last else 0));
        t.used_bytes <- t.used_bytes - old_size + adjust;
        (* Free the remainder through the normal path so it coalesces
           with a free successor. *)
        t.used_bytes <- t.used_bytes + rem_size;
        t.used_blocks <- t.used_blocks + 1;
        free t (rem + header)
      end;
      ptr
    end
    else begin
      (* Try to grow in place by absorbing a free successor block. *)
      let b = ptr - header in
      let word = hdr t b in
      let grown =
        if is_last word then false
        else begin
          let np = next_phys b old_size in
          let nw = hdr t np in
          let combined = old_size + header + size_of nw in
          if is_free nw && combined >= adjust then begin
            remove_free t np (size_of nw);
            let last = is_last nw in
            if combined >= adjust + min_block then begin
              (* Split the absorbed space; the remainder stays free. *)
              let rem = next_phys b adjust in
              let rem_size = combined - adjust - header in
              set_prev_phys t rem b;
              set_hdr t rem (rem_size lor fl_free lor (if last then fl_last else 0));
              set_hdr t b (adjust lor (word land fl_prev_free));
              if not last then begin
                let nnp = next_phys rem rem_size in
                set_prev_phys t nnp rem;
                set_hdr t nnp (hdr t nnp lor fl_prev_free)
              end;
              insert_free t rem rem_size;
              t.used_bytes <- t.used_bytes + adjust - old_size
            end
            else begin
              set_hdr t b
                (combined lor (word land fl_prev_free)
                lor (if last then fl_last else 0));
              if not last then begin
                let nnp = next_phys b combined in
                set_hdr t nnp (hdr t nnp land lnot fl_prev_free);
                set_prev_phys t nnp b
              end;
              t.used_bytes <- t.used_bytes + combined - old_size
            end;
            true
          end
          else false
        end
      in
      if grown then ptr
      else begin
        let fresh = malloc t request in
        Vmem.Space.blit t.space ~src:ptr ~dst:fresh ~len:old_size;
        free t ptr;
        fresh
      end
    end
  end

(* Sanitized realloc never moves blocks in place: in-place splitting and
   absorption would have to re-derive redzone windows for partial blocks.
   A fresh allocation + copy of the live payload keeps the invariant
   (everything but live payloads poisoned) trivially true. *)
let realloc t ptr request =
  if not t.sanitize then with_bypass t (fun () -> realloc_raw t ptr request)
  else if ptr = 0 then malloc t request
  else begin
    let old_logical = usable_size t ptr in
    let fresh = malloc t request in
    let n = min old_logical (usable_size t fresh) in
    if n > 0 then Vmem.Space.blit t.space ~src:ptr ~dst:fresh ~len:n;
    free t ptr;
    fresh
  end

let iter_blocks t f =
  with_bypass t (fun () ->
      List.iter
        (fun (addr, _len) ->
          let rec walk b =
            let word = hdr t b in
            let size = size_of word in
            f ~addr:b ~size ~free:(is_free word);
            if not (is_last word) then walk (next_phys b size)
          in
          walk addr)
        (regions t))

let merge t ~from =
  if t.space != from.space then invalid_arg "Tlsf.merge: different spaces";
  if t.sanitize <> from.sanitize then
    invalid_arg "Tlsf.merge: sanitizer mismatch";
  with_bypass t (fun () ->
  List.iter
    (fun (addr, len) ->
      t.regions <- (addr, len) :: t.regions;
      t.total_bytes <- t.total_bytes + len;
      let rec walk b =
        let word = hdr t b in
        let size = size_of word in
        if is_free word then insert_free t b size
        else begin
          t.used_bytes <- t.used_bytes + size;
          t.used_blocks <- t.used_blocks + 1
        end;
        if not (is_last word) then walk (next_phys b size)
      in
      walk addr)
    (regions from));
  from.regions <- [];
  from.fl_bitmap <- 0;
  Array.fill from.sl_bitmap 0 fl_count 0;
  Array.iter (fun row -> Array.fill row 0 sl_count 0) from.heads;
  from.used_bytes <- 0;
  from.used_blocks <- 0;
  from.total_bytes <- 0

let check t =
  with_bypass t @@ fun () ->
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let free_set = Hashtbl.create 64 in
  (* Physical walk of every region. *)
  List.iter
    (fun (addr, len) ->
      let limit = addr + len in
      let rec walk b prev prev_free =
        if b + header > limit then err "block 0x%x overruns region 0x%x" b addr
        else begin
          let word = hdr t b in
          let size = size_of word in
          if size < min_payload then err "block 0x%x has size %d < min" b size
          else if next_phys b size > limit then
            err "block 0x%x (size %d) overruns region" b size
          else begin
            if prev_is_free word <> prev_free then
              err "block 0x%x PREV_FREE flag inconsistent" b;
            if prev_free && prev_phys t b <> prev then
              err "block 0x%x prev_phys link broken" b;
            if is_free word && prev_free then
              err "adjacent free blocks at 0x%x (missed coalesce)" b;
            if is_free word then Hashtbl.replace free_set b size;
            if is_last word then begin
              if next_phys b size <> limit then
                err "last block 0x%x does not end region" b
            end
            else walk (next_phys b size) b (is_free word)
          end
        end
      in
      walk addr 0 false)
    (regions t);
  (* Every free block must be indexed exactly once, in the right list. *)
  let listed = Hashtbl.create 64 in
  Array.iteri
    (fun fl row ->
      Array.iteri
        (fun sl head ->
          let rec follow b prev =
            if b <> 0 then
              if Hashtbl.mem listed b then
                err "block 0x%x listed twice (cycle?)" b
              else begin
                Hashtbl.replace listed b ();
                match Hashtbl.find_opt free_set b with
                | None ->
                    (* A corrupted link escaping the known free blocks must
                       not be dereferenced: it can point anywhere. *)
                    err "free list (%d,%d) links to foreign 0x%x" fl sl b
                | Some size ->
                    let c = mapping_insert size in
                    if class_fl c <> fl || class_sl c <> sl then
                      err "block 0x%x (size %d) in wrong class (%d,%d)" b size
                        fl sl;
                    if prev_free_link t b <> prev then
                      err "block 0x%x prev_free link broken" b;
                    follow (next_free t b) b
              end
          in
          follow head 0;
          let bit_set = t.sl_bitmap.(fl) land (1 lsl sl) <> 0 in
          if bit_set && head = 0 then err "bitmap set for empty list (%d,%d)" fl sl;
          if (not bit_set) && head <> 0 then
            err "bitmap clear for non-empty list (%d,%d)" fl sl)
        row)
    t.heads;
  Hashtbl.iter
    (fun b _ -> if not (Hashtbl.mem listed b) then err "free block 0x%x not indexed" b)
    free_set;
  List.rev !errors
