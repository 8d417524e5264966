(* Durable two-phase rewind transaction log.

   The rewind primitive discards a whole nested-domain subtree; a second
   fault arriving *during* that discard must never leave a
   partially-rolled-back tree behind (the "must-fix F1" of the Intercore
   rollback review: a partially-rolled-back run with no recovery path).
   This module gives the reference monitor the two pieces that make the
   discard transactional and the history queryable:

   - an {e intent record}, written into monitor-root simulated memory
     {e before} the first discard: incident id, trigger, and the ordered
     domain subtree with every stack/heap extent about to be thrown away,
     plus a progress counter advanced after each domain. A fault injected
     mid-rewind resumes from the progress counter instead of corrupting
     the tree — and because the record lives in protected monitor memory,
     nothing a compartment can do reaches it.

   - a bounded append-only {e audit log} of committed incidents: the
     intent record, once the last domain is discarded, is stamped with an
     end time and linked into a FIFO ring ("rollback is not undo":
     history must survive and be queryable). Evictions beyond the
     capacity are counted durably in the log header, never silent.

   Everything is stored through checked {!Vmem.Space} accesses in a
   caller-supplied heap (the monitor's TLSF heap), so the log is real,
   protected, RSS-visible memory — the same property domain records and
   saved contexts already have.

   One incident can span several blocks: when a rewind propagates to the
   grandparent (collateral exits of intermediate frames), each additional
   subtree is chained as a {e continuation block} of the same incident,
   so the report still shows exactly one record per rewind. *)

module Space = Vmem.Space

type kind = [ `Segv | `Stack_smash | `Explicit ]

type extent = {
  x_udi : int;
  x_was : [ `Entered | `Ready | `Dormant ];
  x_stack : int * int;  (* base, len *)
  x_regions : (int * int) list;  (* sub-heap regions, (base, len) *)
}

type record = {
  r_id : int;
  r_target : int;  (* the domain the trigger fault failed in *)
  r_tid : int;
  r_kind : kind;
  r_si : string;  (* si_code rendering, "-" when not a SEGV *)
  r_fault_addr : int;
  r_msg : string;  (* access kind / explicit abort message *)
  r_subtree : extent list;  (* discard order, continuations merged *)
  r_replays : int;  (* cumulative journal replay hits at commit *)
  r_start : float;
  r_end : float;
  r_interrupts : int;  (* faults absorbed mid-rewind by the intent *)
  r_events : Flight.event list;
      (* flight-recorder excerpt captured at intent time, continuations
         merged, oldest first *)
}

(* {1 Memory layout}

   Header block (one per log):
     +0 magic  +8 next id  +16 appended  +24 dropped  +32 intent head

   Incident block (one per begin_incident; all slots are store64 words):
     +0   magic          +8   incident id   +16  committed flag
     +24  continuation   +32  target udi    +40  tid
     +48  trigger kind   +56  fault addr    +64  t_start (cycles)
     +72  t_end (cycles) +80  interrupts    +88  journal replays
     +96  n domains      +104 progress      +112 si len
     +120 msg len        +128 n events
     +136 si bytes, msg bytes (each padded to 8),
          then n * Flight.stored_size flight-recorder event slots
          (the black-box excerpt captured at intent time),
          then per domain:
            udi, prior state, stack base, stack len,
            n regions, (addr, len) per region *)

let hdr_magic = 0x5244_4C47 (* "RDLG" *)
let blk_magic = 0x5245_5749 (* "REWI" *)
let hdr_size = 40
let blk_fixed = 136
let str_cap = 96 (* si/msg truncation bound *)

type t = {
  space : Space.t;
  heap : Tlsf.t;
  cap : int;
  header : int;
  ring : int array;
      (* committed incident head blocks, oldest first: [ring_len] of
         them from [ring_first], circularly; room for one past [cap],
         which [commit] adds before it evicts *)
  mutable ring_first : int;
  mutable ring_len : int;
  mutable head : int;  (* in-flight incident head block, 0 = none *)
  mutable tail : int;  (* active (last) block of the in-flight chain *)
  (* Mirrors of the durable header words, for telemetry closures that are
     sampled from contexts whose PKRU denies the monitor key. *)
  mutable m_appended : int;
  mutable m_dropped : int;
  mutable m_bytes : int;  (* bytes currently held by record blocks *)
}

let w t a v = Space.store64 t.space a v
let r t a = Space.load64 t.space a

let create space ~heap ~cap =
  let cap = max 1 cap in
  let header = Tlsf.malloc heap hdr_size in
  let t =
    {
      space;
      heap;
      cap;
      header;
      ring = Array.make (cap + 1) 0;
      ring_first = 0;
      ring_len = 0;
      head = 0;
      tail = 0;
      m_appended = 0;
      m_dropped = 0;
      m_bytes = 0;
    }
  in
  w t header hdr_magic;
  w t (header + 8) 1;
  w t (header + 16) 0;
  w t (header + 24) 0;
  w t (header + 32) 0;
  t

let pending t = t.head <> 0
let appended t = t.m_appended
let dropped t = t.m_dropped
let retained t = t.ring_len
let ring_at t i = t.ring.((t.ring_first + i) mod Array.length t.ring)
let bytes t = t.m_bytes

let align8 n = (n + 7) land lnot 7

let trunc s = if String.length s > str_cap then String.sub s 0 str_cap else s

let kind_code = function `Segv -> 0 | `Stack_smash -> 1 | `Explicit -> 2
let code_kind = function 0 -> `Segv | 1 -> `Stack_smash | _ -> `Explicit

(* {1 The draft of an intent}

   What an intent record says about its victims — the flight excerpt and
   the subtree's extents — is staged in the monitor's host memory before
   the block is allocated, as the words the block will hold, in its
   order: per event the six words of [Flight.store], per domain udi,
   prior state, stack base, stack length, region count and then (base,
   length) per region. One draft is reused for every rewind, so staging
   allocates nothing once its arrays have grown. *)

type draft = {
  mutable ev : int array;
  mutable ev_words : int;
  mutable dom : int array;
  mutable dom_words : int;
  mutable domains : int;
  mutable nreg_at : int;  (* the current domain's region-count word *)
}

let draft () =
  {
    ev = Array.make (8 * Flight.event_words) 0;
    ev_words = 0;
    dom = Array.make 64 0;
    dom_words = 0;
    domains = 0;
    nreg_at = 0;
  }

let draft_clear d =
  d.ev_words <- 0;
  d.dom_words <- 0;
  d.domains <- 0

let grow a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let draft_events d flight ~udi ~n =
  d.ev <- grow d.ev (d.ev_words + (n * Flight.event_words));
  d.ev_words <- Flight.excerpt_into flight ~udi ~n d.ev d.ev_words

let push_dom d v =
  d.dom <- grow d.dom (d.dom_words + 1);
  d.dom.(d.dom_words) <- v;
  d.dom_words <- d.dom_words + 1

let was_code = function `Entered -> 0 | `Ready -> 1 | `Dormant -> 2
let code_was = function 0 -> `Entered | 1 -> `Ready | _ -> `Dormant

let draft_domain d ~udi ~was ~stack_base ~stack_len =
  push_dom d udi;
  push_dom d (was_code was);
  push_dom d stack_base;
  push_dom d stack_len;
  d.nreg_at <- d.dom_words;
  push_dom d 0;
  d.domains <- d.domains + 1

let draft_region d ~addr ~len =
  push_dom d addr;
  push_dom d len;
  d.dom.(d.nreg_at) <- d.dom.(d.nreg_at) + 1

let block_size ~si ~msg d =
  blk_fixed
  + align8 (String.length si)
  + align8 (String.length msg)
  + (8 * d.ev_words) + (8 * d.dom_words)

(* Free one incident (its whole continuation chain). *)
let rec free_chain t a =
  if a <> 0 then begin
    let next = r t (a + 24) in
    t.m_bytes <- t.m_bytes - Tlsf.usable_size t.heap a;
    Tlsf.free t.heap a;
    free_chain t next
  end

let drop_oldest t =
  t.ring_len > 0
  && begin
       let oldest = ring_at t 0 in
       t.ring_first <- (t.ring_first + 1) mod Array.length t.ring;
       t.ring_len <- t.ring_len - 1;
       free_chain t oldest;
       w t (t.header + 24) (r t (t.header + 24) + 1);
       t.m_dropped <- t.m_dropped + 1;
       true
     end

(* Allocate under memory pressure: committed history is worth less than
   the in-flight intent, so evict oldest records until the block fits.
   0 when even that leaves no room. *)
let rec alloc_block t size =
  match Tlsf.try_malloc t.heap size with
  | 0 -> if drop_oldest t then alloc_block t size else 0
  | a ->
      t.m_bytes <- t.m_bytes + Tlsf.usable_size t.heap a;
      a

let write_block t addr ~id ~target ~tid ~kind ~si ~fault_addr ~msg ~at d =
  w t addr blk_magic;
  w t (addr + 8) id;
  w t (addr + 16) 0;
  w t (addr + 24) 0;
  w t (addr + 32) target;
  w t (addr + 40) tid;
  w t (addr + 48) (kind_code kind);
  w t (addr + 56) fault_addr;
  w t (addr + 64) at;
  w t (addr + 72) 0;
  w t (addr + 80) 0;
  w t (addr + 88) 0;
  w t (addr + 96) d.domains;
  w t (addr + 104) 0;
  w t (addr + 112) (String.length si);
  w t (addr + 120) (String.length msg);
  w t (addr + 128) (d.ev_words / Flight.event_words);
  let p = addr + blk_fixed in
  if si <> "" then Space.store_string t.space p si;
  let p = p + align8 (String.length si) in
  if msg <> "" then Space.store_string t.space p msg;
  let p = p + align8 (String.length msg) in
  for i = 0 to d.ev_words - 1 do
    w t (p + (8 * i)) d.ev.(i)
  done;
  let p = p + (8 * d.ev_words) in
  for i = 0 to d.dom_words - 1 do
    w t (p + (8 * i)) d.dom.(i)
  done

(* Phase 1: durably record what is about to be discarded. [continue]
   chains the subtree onto the in-flight incident (collateral exits of a
   grandparent rewind); a fresh incident takes the next id. Returns
   [false] — the rewind proceeds unaudited — when even eviction cannot
   make room, or when a continuation has no incident to continue. *)
let begin_incident t ~continue ~target ~tid ~kind ~si ~fault_addr ~msg ~at d =
  let si = trunc si and msg = trunc msg in
  if continue && t.head = 0 then false
  else
    match alloc_block t (block_size ~si ~msg d) with
    | 0 -> false
    | addr ->
        if continue then begin
          write_block t addr ~id:(r t (t.head + 8)) ~target ~tid ~kind ~si
            ~fault_addr ~msg ~at d;
          w t (t.tail + 24) addr;
          t.tail <- addr;
          true
        end
        else begin
          let id = r t (t.header + 8) in
          w t (t.header + 8) (id + 1);
          write_block t addr ~id ~target ~tid ~kind ~si ~fault_addr ~msg ~at d;
          w t (t.header + 32) addr;
          t.head <- addr;
          t.tail <- addr;
          true
        end

(* {2 The in-flight intent} *)

let progress t = if t.tail = 0 then 0 else r t (t.tail + 104)

(* The udi the intent expects at discard step [idx] — the resume path
   cross-checks the live tree against the durable record. *)
(* Start of a block's per-domain extent section: skip the strings and
   the flight-recorder excerpt. *)
let subtree_off t addr =
  addr + blk_fixed
  + align8 (r t (addr + 112))
  + align8 (r t (addr + 120))
  + (Flight.stored_size * r t (addr + 128))

let domain_at t idx =
  if t.tail = 0 then -1
  else begin
    let n = r t (t.tail + 96) in
    if idx < 0 || idx >= n then -1
    else begin
      let p = ref (subtree_off t t.tail) in
      for _ = 1 to idx do
        p := !p + 40 + (16 * r t (!p + 32))
      done;
      r t !p
    end
  end

let mark_discarded t n = if t.tail <> 0 then w t (t.tail + 104) n

let note_interrupt t =
  if t.head <> 0 then w t (t.head + 80) (r t (t.head + 80) + 1)

(* Phase 3: stamp and link the incident into the ring; clears the intent
   pointer so a later fault starts a fresh transaction. No-op when
   nothing is in flight. *)
let commit t ~at ~journal_replays =
  if t.head <> 0 then begin
    w t (t.head + 16) 1;
    w t (t.head + 72) at;
    w t (t.head + 88) journal_replays;
    t.ring.((t.ring_first + t.ring_len) mod Array.length t.ring) <- t.head;
    t.ring_len <- t.ring_len + 1;
    w t (t.header + 16) (r t (t.header + 16) + 1);
    t.m_appended <- t.m_appended + 1;
    w t (t.header + 32) 0;
    t.head <- 0;
    t.tail <- 0;
    while t.ring_len > t.cap do
      ignore (drop_oldest t)
    done
  end

(* {1 Reading the log back} *)

let read_subtree t addr =
  let n = r t (addr + 96) in
  let p = ref (subtree_off t addr) in
  List.init n (fun _ ->
      let udi = r t !p in
      let was = code_was (r t (!p + 8)) in
      let stack = (r t (!p + 16), r t (!p + 24)) in
      let nreg = r t (!p + 32) in
      p := !p + 40;
      let regions =
        List.init nreg (fun _ ->
            let reg = (r t !p, r t (!p + 8)) in
            p := !p + 16;
            reg)
      in
      { x_udi = udi; x_was = was; x_stack = stack; x_regions = regions })

let read_record t addr =
  let str off_len off =
    let len = r t (addr + off_len) in
    if len = 0 then "" else Space.read_string t.space off len
  in
  let si = str 112 (addr + blk_fixed) in
  let msg = str 120 (addr + blk_fixed + align8 (r t (addr + 112))) in
  let read_events a =
    let base =
      a + blk_fixed + align8 (r t (a + 112)) + align8 (r t (a + 120))
    in
    List.init
      (r t (a + 128))
      (fun i -> Flight.load t.space (base + (i * Flight.stored_size)))
  in
  let rec chain f a = if a = 0 then [] else f a :: chain f (r t (a + 24)) in
  {
    r_id = r t (addr + 8);
    r_target = r t (addr + 32);
    r_tid = r t (addr + 40);
    r_kind = code_kind (r t (addr + 48));
    r_si = si;
    r_fault_addr = r t (addr + 56);
    r_msg = msg;
    r_subtree = List.concat (chain (read_subtree t) addr);
    r_replays = r t (addr + 88);
    r_start = float_of_int (r t (addr + 64));
    r_end = float_of_int (r t (addr + 72));
    r_interrupts = r t (addr + 80);
    r_events = List.concat (chain read_events addr);
  }

let records t = List.init t.ring_len (fun i -> read_record t (ring_at t i))

let kind_to_string = function
  | `Segv -> "segv"
  | `Stack_smash -> "stack-smash"
  | `Explicit -> "explicit"
