module Space = Vmem.Space
module Prot = Vmem.Prot
module Pkru = Vmem.Pkru
open Types

type state = Dormant | Ready | Entered

type exec_inst = {
  udi : udi;
  tid : int;
  mutable opts : options;
  parent : udi;
  mutable pkey : int;
  mutable state : state;
  mutable stack_base : int;
  mutable stack_len : int;
  mutable sp : int;
  mutable heap : Tlsf.t option;
  mutable heap_regions : int list;
  mutable frame : int;
  mutable ctx_addr : int;
  mutable meta_addr : int;
  mutable last_used : int;
  mutable cleanups : (unit -> unit) list;
  mutable entry : exec_inst list;
}

type data_inst = {
  d_udi : udi;
  d_pkey : int;
  d_heap : Tlsf.t;
  d_pool : int;
  mutable d_regions : int list;
  d_perms : (udi, Prot.t) Hashtbl.t;
  d_meta_addr : int;
}

module By_udi = struct
  type 'a t = {
    udi_of : 'a -> udi;
    filler : 'a;
    mutable items : 'a array;
    mutable len : int;
  }

  let create udi_of filler = { udi_of; filler; items = [||]; len = 0 }

  (* The index of [udi], or [-(i + 1)] when it is absent and belongs at
     [i]. *)
  let rec search tb udi lo hi =
    if lo >= hi then -(lo + 1)
    else
      let mid = (lo + hi) lsr 1 in
      let u = tb.udi_of tb.items.(mid) in
      if u = udi then mid
      else if u < udi then search tb udi (mid + 1) hi
      else search tb udi lo mid

  let index tb udi = search tb udi 0 tb.len
  let mem tb udi = index tb udi >= 0

  let find tb udi =
    let i = index tb udi in
    if i < 0 then raise Not_found else tb.items.(i)

  let add tb x =
    let i = -(index tb (tb.udi_of x) + 1) in
    if i < 0 then invalid_arg "By_udi.add: udi present";
    if tb.len = Array.length tb.items then begin
      let grown = Array.make (max 8 (2 * tb.len)) x in
      Array.blit tb.items 0 grown 0 tb.len;
      tb.items <- grown
    end;
    Array.blit tb.items i tb.items (i + 1) (tb.len - i);
    tb.items.(i) <- x;
    tb.len <- tb.len + 1

  (* The vacated slot holds [filler], so the array keeps no removed
     domain reachable, and a table emptied and filled again, as a
     rewound lone domain's is, keeps its array. *)
  let remove tb udi =
    let i = index tb udi in
    if i >= 0 then begin
      Array.blit tb.items (i + 1) tb.items i (tb.len - i - 1);
      tb.len <- tb.len - 1;
      tb.items.(tb.len) <- tb.filler
    end

  let iter f tb =
    for i = 0 to tb.len - 1 do
      f tb.items.(i)
    done
end

let no_inst =
  {
    udi = root_udi;
    tid = -1;
    opts = default_options;
    parent = root_udi;
    pkey = -1;
    state = Dormant;
    stack_base = 0;
    stack_len = 0;
    sp = 0;
    heap = None;
    heap_regions = [];
    frame = 0;
    ctx_addr = 0;
    meta_addr = 0;
    last_used = 0;
    cleanups = [];
    entry = [];
  }

type gate_buf = {
  gb_caller : udi;
  gb_callee : udi;
  gb_slot : int;
  mutable gb_addr : int;
  mutable gb_cap : int;
}

type thread_state = {
  t_tid : int;
  mutable constructed : bool;
  insts : exec_inst By_udi.t;
  mutable gate_bufs : gate_buf list;
  mutable trace : int;
  mutable entered : exec_inst list;
  mutable root_sp : int;
  mutable root_stack_base : int;
  mutable root_stack_len : int;
  mutable cur_pkru : int;
  mutable monitor_depth : int;
  mutable gate_depth : int;
  mutable rewound : bool;
}

type t = {
  space : Space.t;
  tracer : Telemetry.Trace.t;
  monitor_pkey : int;
  root_pkey : int;
  datas : data_inst By_udi.t;
  threads : (int, thread_state) Hashtbl.t;
  mutable in_monitor : bool;
  mutable exec_keys : Pkru.t;
  mutable stack_pool : int array;
  mutable pooled : int;
  stack_reuse : bool;
  verify_policy : bool;
  mutable key_clock : int;
  c_key_evictions : Telemetry.Metrics.counter;
}

let create ~stack_reuse ~verify_policy ~metrics ~tracer ~root_heap space =
  let alloc () =
    match Space.pkey_alloc space with
    | Some k -> k
    | None -> raise (Error Out_of_pkeys)
  in
  let monitor_pkey = alloc () in
  let root_pkey = alloc () in
  {
    space;
    tracer;
    monitor_pkey;
    root_pkey;
    datas =
      By_udi.create
        (fun dd -> dd.d_udi)
        {
          d_udi = root_udi;
          d_pkey = -1;
          d_heap = root_heap;
          d_pool = 0;
          d_regions = [];
          d_perms = Hashtbl.create 1;
          d_meta_addr = 0;
        };
    threads = Hashtbl.create 8;
    in_monitor = false;
    exec_keys = Pkru.all_access;
    stack_pool = [||];
    pooled = 0;
    stack_reuse;
    verify_policy;
    key_clock = 0;
    c_key_evictions =
      Telemetry.Metrics.counter metrics "sdrad_key_evictions_total"
        ~help:"Dormant domains parked to recycle a protection key";
  }

(* {1 PKRU policy computation} *)

let current_udi_of ts =
  match ts.entered with [] -> root_udi | i :: _ -> i.udi

let data_perm dd viewer =
  match Hashtbl.find dd.d_perms viewer with
  | p -> p
  | exception Not_found -> 0

(* Runs on every switch, as two loops. Every rule that grants access
   needs the instance to belong to the calling thread, so the policy is
   the deny bits of every instance key ([k.exec_keys]), the grants among
   the thread's own instances, and the data domains' permissions. Keys
   are distinct, so each key is set once and the order does not
   matter. *)
let compute_pkru k ts =
  let cur_udi = current_udi_of ts in
  let v = ref (Pkru.deny Pkru.all_access ~key:k.monitor_pkey) in
  (* The root domain is read-only from nested domains (global data). *)
  (match ts.entered with
  | [] -> ()
  | _ :: _ -> v := Pkru.allow_read !v ~key:k.root_pkey);
  (* A [Pkru.deny] sets the key's AD bit: the mask denies them all. *)
  v := !v lor k.exec_keys;
  let insts = ts.insts in
  for i = 0 to insts.len - 1 do
    let inst = insts.items.(i) in
    if inst.pkey >= 0 then
      match ts.entered with
      | c :: _ when c == inst -> v := Pkru.allow !v ~key:inst.pkey
      | cur ->
          if
            inst.parent = cur_udi
            && inst.opts.access = Accessible
            && inst.state <> Entered
          then v := Pkru.allow !v ~key:inst.pkey
          else begin
            (* Direct parent, when the current domain opted in. *)
            match cur with
            | c :: _ when c.opts.parent_readable && c.parent = inst.udi ->
                v := Pkru.allow_read !v ~key:inst.pkey
            | _ -> ()
          end
  done;
  let datas = k.datas in
  for i = 0 to datas.len - 1 do
    let dd = datas.items.(i) in
    let p = data_perm dd cur_udi in
    v :=
      if Prot.has p Prot.write then Pkru.allow !v ~key:dd.d_pkey
      else if Prot.has p Prot.read then Pkru.allow_read !v ~key:dd.d_pkey
      else Pkru.deny !v ~key:dd.d_pkey
  done;
  !v

let update_policy k ts = ts.cur_pkru <- compute_pkru k ts

(* {1 Installs} *)

let start_thread k ts =
  update_policy k ts;
  Space.wrpkru k.space ts.cur_pkru

let install_pkru k v =
  if Telemetry.Trace.enabled k.tracer then
    Telemetry.Trace.with_span k.tracer "switch.pkru_write" (fun () ->
        Space.wrpkru k.space v)
  else Space.wrpkru k.space v

let sanctioned k f =
  let was = k.in_monitor in
  k.in_monitor <- true;
  match f () with
  | v ->
      k.in_monitor <- was;
      v
  | exception e ->
      k.in_monitor <- was;
      raise e

let monitor_view k ts = Pkru.allow ts.cur_pkru ~key:k.monitor_pkey
let in_root ts = match ts.entered with [] -> true | _ -> false

(* Gate elision: only the outermost bracket writes PKRU. With a batched
   gate open in the root context, every monitor section of the batch
   after the first is write-free; compartment entry/exit still installs
   the compartment's own policy, so isolation is the unbatched path's.
   The per-request gates open-code the bracket, building no closure;
   [with_monitor] is for cold paths. *)
let leave_monitor k ts was =
  k.in_monitor <- was;
  ts.monitor_depth <- ts.monitor_depth - 1;
  if ts.monitor_depth = 0 then
    if ts.gate_depth > 0 && in_root ts then install_pkru k (monitor_view k ts)
    else install_pkru k ts.cur_pkru

let enter_monitor k ts =
  ts.monitor_depth <- ts.monitor_depth + 1;
  if ts.monitor_depth = 1 then install_pkru k (monitor_view k ts);
  let was = k.in_monitor in
  k.in_monitor <- true;
  was

let with_monitor k ts f =
  let was = enter_monitor k ts in
  match f () with
  | v ->
      leave_monitor k ts was;
      v
  | exception e ->
      leave_monitor k ts was;
      raise e

let open_gate k ts =
  ts.gate_depth <- ts.gate_depth + 1;
  if ts.gate_depth = 1 && ts.monitor_depth = 0 && in_root ts then
    install_pkru k (monitor_view k ts)

let close_gate k ts =
  ts.gate_depth <- ts.gate_depth - 1;
  if ts.gate_depth = 0 && ts.monitor_depth = 0 && in_root ts then
    install_pkru k ts.cur_pkru

(* {1 Stacks} *)

(* Give [inst] a stack of at least [len] bytes under [pkey]: the most
   recently pooled area that fits, else a new mapping. *)
let take_stack k inst ~len ~pkey =
  let pool = k.stack_pool in
  let i = ref (if k.stack_reuse then k.pooled - 1 else -1) in
  while !i >= 0 && pool.((2 * !i) + 1) < len do
    decr i
  done;
  if !i >= 0 then begin
    let base = pool.(2 * !i) and l = pool.((2 * !i) + 1) in
    Array.blit pool (2 * (!i + 1)) pool (2 * !i) (2 * (k.pooled - !i - 1));
    k.pooled <- k.pooled - 1;
    Space.pkey_mprotect k.space ~addr:base ~len:l ~prot:Prot.rw ~pkey;
    if Space.sanitizer_enabled k.space then
      Space.unpoison k.space ~addr:base ~len:l;
    inst.stack_base <- base;
    inst.stack_len <- l
  end
  else begin
    inst.stack_base <- Space.mmap k.space ~len ~prot:Prot.rw ~pkey;
    inst.stack_len <- len
  end;
  inst.sp <- inst.stack_base + inst.stack_len

let release_stack k inst =
  let base = inst.stack_base and len = inst.stack_len in
  if k.stack_reuse then begin
    (* Keep the area for reuse but seal it with the monitor's key so stale
       pointers into a dead domain's stack fault. *)
    Space.pkey_mprotect k.space ~addr:base ~len ~prot:Prot.rw
      ~pkey:k.monitor_pkey;
    (* A pooled stack stays mapped; poison it so even monitor-privileged
       stale pointers into the dead domain's frames are detected until
       the area is reissued ([take_stack] unpoisons). *)
    if Space.sanitizer_enabled k.space then Space.poison k.space ~addr:base ~len;
    if 2 * (k.pooled + 1) > Array.length k.stack_pool then begin
      let g = Array.make (Int.max 16 (2 * Array.length k.stack_pool)) 0 in
      Array.blit k.stack_pool 0 g 0 (2 * k.pooled);
      k.stack_pool <- g
    end;
    k.stack_pool.(2 * k.pooled) <- base;
    k.stack_pool.((2 * k.pooled) + 1) <- len;
    k.pooled <- k.pooled + 1
  end
  else Space.munmap k.space base

(* {1 Protection-key virtualization (libmpk-style, §IV-B)}

   Running out of the 15 hardware keys parks a dormant domain instead of
   failing: its pages are made PROT_NONE (a real mprotect walk — the
   "much slower" fallback the paper attributes to libmpk) and its key is
   recycled. The instance is unparked — given a key again and
   re-protected — when it is re-initialized. *)

let hold k key = k.exec_keys <- Pkru.deny k.exec_keys ~key
let release k key = k.exec_keys <- Pkru.allow k.exec_keys ~key
let iter_insts k f = Hashtbl.iter (fun _ ts -> By_udi.iter f ts.insts) k.threads

let park k inst =
  List.iter
    (fun r ->
      let len = Space.mapped_len k.space r in
      if len > 0 then Space.mprotect k.space ~addr:r ~len ~prot:Prot.none)
    inst.heap_regions;
  Space.mprotect k.space ~addr:inst.stack_base ~len:inst.stack_len
    ~prot:Prot.none;
  Space.pkey_free k.space inst.pkey;
  release k inst.pkey;
  inst.pkey <- -1;
  Telemetry.Metrics.inc k.c_key_evictions

(* Every instance is stamped when it is created and again at each entry
   and re-initialization, so no two share a [last_used] and the victim
   does not depend on the order of the walk. *)
let lru_dormant k =
  let victim = ref None in
  iter_insts k (fun inst ->
      if inst.state = Dormant && inst.pkey >= 0 then
        match !victim with
        | Some b when b.last_used <= inst.last_used -> ()
        | _ -> victim := Some inst);
  !victim

let acquire k =
  match Space.pkey_alloc k.space with
  | Some key -> key
  | None -> (
      (* Evict the least recently used dormant instance. *)
      match lru_dormant k with
      | None -> raise (Error Out_of_pkeys)
      | Some v -> (
          park k v;
          match Space.pkey_alloc k.space with
          | Some key -> key
          | None -> raise (Error Out_of_pkeys)))

let touch k inst =
  k.key_clock <- k.key_clock + 1;
  inst.last_used <- k.key_clock

(* Sanctioned, with the bracket open-coded: the re-creation of a
   rewound domain builds no closure. *)
let seat k inst =
  let was = k.in_monitor in
  k.in_monitor <- true;
  match
    let pkey = acquire k in
    inst.pkey <- pkey;
    take_stack k inst ~len:inst.opts.stack_size ~pkey;
    hold k pkey;
    (* The LRU stamp of a new instance (see [lru_dormant]). *)
    touch k inst
  with
  | () -> k.in_monitor <- was
  | exception e ->
      k.in_monitor <- was;
      raise e

let rekey k regions ~pkey =
  List.iter
    (fun r ->
      let len = Space.mapped_len k.space r in
      if len > 0 then
        Space.pkey_mprotect k.space ~addr:r ~len ~prot:Prot.rw ~pkey)
    regions

let unpark k inst =
  if inst.pkey < 0 then
    sanctioned k (fun () ->
        let key = acquire k in
        inst.pkey <- key;
        hold k key;
        rekey k inst.heap_regions ~pkey:key;
        Space.pkey_mprotect k.space ~addr:inst.stack_base ~len:inst.stack_len
          ~prot:Prot.rw ~pkey:key)

(* A data domain's key holds no deny bit: releasing it changes nothing. *)
let free_key k key =
  if key >= 0 then begin
    Space.pkey_free k.space key;
    release k key
  end

let rekey_to_current k ts regions =
  rekey k regions
    ~pkey:(match ts.entered with [] -> k.root_pkey | inst :: _ -> inst.pkey)

(* The full static verifier (stack/heap visibility, gate buffers, hooks,
   reachability) is [lib/analysis]'s, run offline or at server setup. *)
let assert_policy k =
  if k.verify_policy then begin
    let seen = Hashtbl.create 16 in
    let claim what udi pkey =
      if pkey >= 0 then begin
        let who = Printf.sprintf "%s %d" what udi in
        if pkey = k.monitor_pkey || pkey = k.root_pkey then
          failwith
            (Printf.sprintf "sdrad: policy violation: %s holds reserved key %d"
               who pkey);
        match Hashtbl.find_opt seen pkey with
        | Some other ->
            failwith
              (Printf.sprintf "sdrad: policy violation: %s and %s share key %d"
                 other who pkey)
        | None -> Hashtbl.replace seen pkey who
      end
    in
    let held = ref Pkru.all_access in
    iter_insts k (fun i ->
        claim "domain" i.udi i.pkey;
        if i.pkey >= 0 then held := Pkru.deny !held ~key:i.pkey);
    By_udi.iter (fun d -> claim "data domain" d.d_udi d.d_pkey) k.datas;
    if !held <> k.exec_keys then
      failwith
        (Printf.sprintf
           "sdrad: policy violation: deny mask %x, execution domains hold %x"
           k.exec_keys !held)
  end
