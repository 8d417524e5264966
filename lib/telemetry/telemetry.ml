module Sched = Simkern.Sched

let now () = if Sched.in_thread () then Sched.now () else 0.0
let cur_tid () = if Sched.in_thread () then Sched.self () else -1

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* {1 Metrics} *)

module Metrics = struct
  type counter = { mutable c : int }
  type gauge = { mutable g : float }

  (* Float-only, so [observe] adds into it in place; a mutable float field
     of [histogram] would box a fresh sum on every observation. *)
  type total = { mutable total : float }

  type histogram = {
    bounds : float array;  (* ascending upper bounds, +Inf implicit *)
    buckets : int array;  (* cumulative at exposition, raw here *)
    sum : total;
    mutable hcount : int;
    ex_id : string array;  (* per-bucket exemplar id (incl. +Inf); "" = none *)
    ex_v : float array;  (* value the exemplar was observed with *)
  }

  type instrument =
    | C of counter
    | Cfn of (unit -> int)
    | G of gauge
    | Gfn of (unit -> float)
    | H of histogram

  type family = {
    f_name : string;
    f_help : string;
    f_kind : [ `Counter | `Gauge | `Histogram ];
    mutable f_series : ((string * string) list * instrument) list;
        (* insertion order; sorted at exposition *)
  }

  type t = { families : (string, family) Hashtbl.t }

  let create () = { families = Hashtbl.create 32 }

  let kind_name = function
    | `Counter -> "counter"
    | `Gauge -> "gauge"
    | `Histogram -> "histogram"

  let family t ~kind ~help name =
    match Hashtbl.find_opt t.families name with
    | Some f ->
        if f.f_kind <> kind then
          invalid_arg
            (Printf.sprintf "Telemetry.Metrics: %s registered as %s, asked as %s"
               name (kind_name f.f_kind) (kind_name kind));
        f
    | None ->
        let f = { f_name = name; f_help = help; f_kind = kind; f_series = [] } in
        Hashtbl.replace t.families name f;
        f

  (* Get-or-create the series for a label set within a family. *)
  let series f labels make =
    match List.assoc_opt labels f.f_series with
    | Some i -> i
    | None ->
        let i = make () in
        f.f_series <- f.f_series @ [ (labels, i) ];
        i

  let counter t ?(help = "") ?(labels = []) name =
    let f = family t ~kind:`Counter ~help name in
    match series f labels (fun () -> C { c = 0 }) with
    | C c -> c
    | _ -> invalid_arg ("Telemetry.Metrics: " ^ name ^ " is callback-backed")

  let inc c = c.c <- c.c + 1

  let add c n =
    if n < 0 then invalid_arg "Telemetry.Metrics.add: counters only go up";
    c.c <- c.c + n

  let counter_value c = c.c

  let counter_fn t ?(help = "") ?(labels = []) name fn =
    let f = family t ~kind:`Counter ~help name in
    ignore (series f labels (fun () -> Cfn fn))

  let gauge t ?(help = "") ?(labels = []) name =
    let f = family t ~kind:`Gauge ~help name in
    match series f labels (fun () -> G { g = 0.0 }) with
    | G g -> g
    | _ -> invalid_arg ("Telemetry.Metrics: " ^ name ^ " is callback-backed")

  let set g v = g.g <- v
  let gauge_value g = g.g

  let gauge_fn t ?(help = "") ?(labels = []) name fn =
    let f = family t ~kind:`Gauge ~help name in
    ignore (series f labels (fun () -> Gfn fn))

  let default_buckets = Array.init 14 (fun i -> 4.0 ** float_of_int i)

  let histogram t ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
    let f = family t ~kind:`Histogram ~help name in
    match
      series f labels (fun () ->
          H
            {
              bounds = Array.copy buckets;
              buckets = Array.make (Array.length buckets) 0;
              sum = { total = 0.0 };
              hcount = 0;
              ex_id = Array.make (Array.length buckets + 1) "";
              ex_v = Array.make (Array.length buckets + 1) 0.0;
            })
    with
    | H h -> h
    | _ -> assert false

  (* Index of the bucket [v] lands in; [length bounds] is the implicit
     +Inf bucket. *)
  let bucket_index h v =
    (* A loop, not a recursive helper: [v] would be re-boxed per call. *)
    let i = ref 0 in
    while !i < Array.length h.bounds && v > h.bounds.(!i) do
      incr i
    done;
    !i

  let observe_exemplar h v ~exemplar =
    let i = bucket_index h v in
    if i < Array.length h.bounds then h.buckets.(i) <- h.buckets.(i) + 1;
    (* above the last bound: lands only in the implicit +Inf bucket *)
    if exemplar <> "" then begin
      h.ex_id.(i) <- exemplar;
      h.ex_v.(i) <- v
    end;
    h.sum.total <- h.sum.total +. v;
    h.hcount <- h.hcount + 1

  let observe h v = observe_exemplar h v ~exemplar:""
  let hist_count h = h.hcount
  let hist_sum h = h.sum.total

  (* Raw (non-cumulative) per-bucket counts with their finite upper
     bounds; the implicit +Inf bucket is [hist_count] minus their sum. *)
  let hist_buckets h =
    Array.to_list (Array.mapi (fun i b -> (b, h.buckets.(i))) h.bounds)

  let hist_exemplars h =
    let n = Array.length h.bounds in
    List.filter_map
      (fun i ->
        if h.ex_id.(i) = "" then None
        else
          let bound = if i < n then h.bounds.(i) else infinity in
          Some (bound, h.ex_v.(i), h.ex_id.(i)))
      (List.init (n + 1) Fun.id)

  let series_count t =
    Hashtbl.fold (fun _ f acc -> acc + List.length f.f_series) t.families 0

  (* Point read of one series by name + label set; [None] for unknown
     names, missing label sets and histograms (which have no single
     value). This is what operator surfaces use instead of the old
     assoc-list stats snapshot. *)
  let sample t ?(labels = []) name =
    match Hashtbl.find_opt t.families name with
    | None -> None
    | Some f -> (
        match List.assoc_opt labels f.f_series with
        | Some (C c) -> Some (float_of_int c.c)
        | Some (Cfn fn) -> Some (float_of_int (fn ()))
        | Some (G g) -> Some g.g
        | Some (Gfn fn) -> Some (fn ())
        | Some (H _) | None -> None)

  (* Fold every series of [src] into [dst], summing with whatever the
     same (name, labels) series already holds there: counters add their
     current value (callback-backed ones are sampled and materialize as
     plain counters), gauges sum, histograms merge bucket-by-bucket
     (first exemplar wins). This is the cluster-aggregation primitive:
     merging each shard's registry into a fresh one yields a single
     fleet-wide scrape surface whose exposition is deterministic, since
     [expose] sorts families and series. Histograms with differing
     bucket layouts for one series name cannot be summed meaningfully
     and are skipped. *)
  let merge_into ~dst src =
    Hashtbl.iter
      (fun name sf ->
        let df = family dst ~kind:sf.f_kind ~help:sf.f_help name in
        List.iter
          (fun (labels, inst) ->
            match inst with
            | C _ | Cfn _ -> (
                let v = match inst with
                  | C c -> c.c
                  | Cfn fn -> fn ()
                  | _ -> 0
                in
                match series df labels (fun () -> C { c = 0 }) with
                | C dc -> dc.c <- dc.c + v
                | _ -> ())
            | G _ | Gfn _ -> (
                let v = match inst with
                  | G g -> g.g
                  | Gfn fn -> fn ()
                  | _ -> 0.0
                in
                match series df labels (fun () -> G { g = 0.0 }) with
                | G dg -> dg.g <- dg.g +. v
                | _ -> ())
            | H h -> (
                match
                  series df labels (fun () ->
                      H
                        {
                          bounds = Array.copy h.bounds;
                          buckets = Array.make (Array.length h.bounds) 0;
                          sum = { total = 0.0 };
                          hcount = 0;
                          ex_id = Array.make (Array.length h.bounds + 1) "";
                          ex_v = Array.make (Array.length h.bounds + 1) 0.0;
                        })
                with
                | H dh when dh.bounds = h.bounds ->
                    Array.iteri
                      (fun i v -> dh.buckets.(i) <- dh.buckets.(i) + v)
                      h.buckets;
                    dh.sum.total <- dh.sum.total +. h.sum.total;
                    dh.hcount <- dh.hcount + h.hcount;
                    Array.iteri
                      (fun i id ->
                        if id <> "" && dh.ex_id.(i) = "" then begin
                          dh.ex_id.(i) <- id;
                          dh.ex_v.(i) <- h.ex_v.(i)
                        end)
                      h.ex_id
                | _ -> ()))
          sf.f_series)
      src.families

  (* {2 Exposition} *)

  let escape_label v =
    let b = Buffer.create (String.length v) in
    String.iter
      (fun ch ->
        match ch with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let fmt_labels = function
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
               labels)
        ^ "}"

  (* Integral values print without a decimal point so counters read as the
     integers they are; everything else gets shortest-roundish %.6g. *)
  let fmt_value v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v

  let fmt_bound v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%g" v

  let expose t =
    let b = Buffer.create 1024 in
    let families =
      Hashtbl.fold (fun _ f acc -> f :: acc) t.families []
      |> List.sort (fun a b -> compare a.f_name b.f_name)
    in
    List.iter
      (fun f ->
        if f.f_help <> "" then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" f.f_name f.f_help);
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" f.f_name (kind_name f.f_kind));
        let sorted =
          List.sort (fun (la, _) (lb, _) -> compare la lb) f.f_series
        in
        List.iter
          (fun (labels, i) ->
            match i with
            | C c ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %d\n" f.f_name (fmt_labels labels) c.c)
            | Cfn fn ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %d\n" f.f_name (fmt_labels labels) (fn ()))
            | G g ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %s\n" f.f_name (fmt_labels labels)
                     (fmt_value g.g))
            | Gfn fn ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %s\n" f.f_name (fmt_labels labels)
                     (fmt_value (fn ())))
            | H h ->
                (* OpenMetrics-style exemplar suffix on bucket lines:
                   [# {trace="<id>"} <value>]. Only buckets that saw an
                   exemplar-carrying observation get one. *)
                let exemplar bi =
                  if h.ex_id.(bi) = "" then ""
                  else
                    Printf.sprintf " # {trace=\"%s\"} %s"
                      (escape_label h.ex_id.(bi))
                      (fmt_value h.ex_v.(bi))
                in
                let cum = ref 0 in
                Array.iteri
                  (fun bi bound ->
                    cum := !cum + h.buckets.(bi);
                    Buffer.add_string b
                      (Printf.sprintf "%s_bucket%s %d%s\n" f.f_name
                         (fmt_labels (labels @ [ ("le", fmt_bound bound) ]))
                         !cum (exemplar bi)))
                  h.bounds;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d%s\n" f.f_name
                     (fmt_labels (labels @ [ ("le", "+Inf") ]))
                     h.hcount
                     (exemplar (Array.length h.bounds)));
                Buffer.add_string b
                  (Printf.sprintf "%s_sum%s %s\n" f.f_name (fmt_labels labels)
                     (fmt_value h.sum.total));
                Buffer.add_string b
                  (Printf.sprintf "%s_count%s %d\n" f.f_name (fmt_labels labels)
                     h.hcount))
          sorted)
      families;
    Buffer.contents b
end

(* {1 Context} *)

module Context = struct
  type t = { trace : int; span : int }

  (* FNV-1a, 64-bit. Deterministic and stable across runs — trace ids
     derived from (client name, op sequence) strings are a golden-test
     surface. Computed in a native int: a xor's bits and a product's low
     bits depend only on their operands' low bits, so the low 63 bits
     come out as in [Int64] arithmetic, and the id keeps only the low
     62, which fit an OCaml int and round-trip losslessly through the
     simulation's store64 words (flight-recorder and audit-log slots).
     An [Int64] loop boxes a value per character. *)
  let fnv_offset = Int64.to_int 0xcbf29ce484222325L (* its low 63 bits *)
  let fnv_prime = 0x100000001b3

  let root_trace s off len =
    let h = ref fnv_offset in
    for i = off to off + len - 1 do
      h := (!h lxor Char.code s.[i]) * fnv_prime
    done;
    let h = !h land max_int in
    (* 0 is the wire encoding for "no context" (binproto zero field). *)
    if h = 0 then 1 else h

  let root op = { trace = root_trace op 0 (String.length op); span = 0 }
  let child t n = { t with span = n }
  let trace t = t.trace
  let span t = t.span

  (* [max_int] is 2{^62} - 1: the mask keeps an id's low 62 bits. *)
  let of_trace trace =
    let trace = trace land max_int in
    if trace = 0 then None else Some { trace; span = 0 }

  let trace_hex t = Printf.sprintf "%016x" t.trace

  let is_hex s =
    s <> ""
    && String.for_all
         (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
         s

  let hex_digit = function
    | '0' .. '9' as c -> Char.code c - 48
    | 'a' .. 'f' as c -> Char.code c - 87
    | _ -> -1

  (* The digits from [i] to [stop] as one 64-bit number, masked to 62
     bits: the top bits an [int] drops are the ones the mask clears. *)
  let rec hex_id s i stop id =
    if i = stop then id land max_int
    else
      let d = hex_digit (String.unsafe_get s i) in
      if d < 0 then 0 else hex_id s (i + 1) stop ((id lsl 4) lor d)

  let trace_id_at s off =
    if off < 0 || String.length s - off < 16 then 0
    else hex_id s off (off + 16) 0

  let of_trace_hex s =
    if String.length s = 16 then of_trace (trace_id_at s 0) else None

  (* W3C-traceparent-shaped: version 00, 16-hex trace id (the spec's low
     half), 8-hex span id, flags 01. *)
  let to_traceparent t =
    Printf.sprintf "00-%s-%08x-01" (trace_hex t) (t.span land 0xffffffff)

  let of_traceparent s =
    match String.split_on_char '-' s with
    | [ "00"; tr; sp; _flags ]
      when String.length tr = 16 && is_hex tr && String.length sp = 8
           && is_hex sp -> (
        match (of_trace (trace_id_at tr 0), int_of_string_opt ("0x" ^ sp)) with
        | Some t, Some span -> Some (child t span)
        | _ -> None)
    | _ -> None
end

(* {1 Trace} *)

module Trace = struct
  type span = {
    s_name : string;
    s_tid : int;
    s_start : float;
    s_dur : float;
    s_depth : int;
    s_args : (string * string) list;
  }

  type t = {
    capacity : int;
    mutable ring : span array;  (* allocated lazily on first record *)
    mutable head : int;  (* next write slot *)
    mutable total : int;  (* spans ever recorded *)
    mutable aborted : int;  (* spans ended by an exception unwinding *)
    mutable on : bool;
    depths : (int, int) Hashtbl.t;  (* tid -> current nesting depth *)
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Telemetry.Trace.create";
    {
      capacity;
      ring = [||];
      head = 0;
      total = 0;
      aborted = 0;
      on = false;
      depths = Hashtbl.create 8;
    }

  let set_enabled t v = t.on <- v
  let enabled t = t.on

  let dummy =
    { s_name = ""; s_tid = 0; s_start = 0.0; s_dur = 0.0; s_depth = 0; s_args = [] }

  let record t s =
    if Array.length t.ring = 0 then t.ring <- Array.make t.capacity dummy;
    t.ring.(t.head) <- s;
    t.head <- (t.head + 1) mod t.capacity;
    t.total <- t.total + 1

  let with_span t ?(args = []) name f =
    if not t.on then f ()
    else begin
      let tid = cur_tid () in
      let depth =
        match Hashtbl.find_opt t.depths tid with Some d -> d | None -> 0
      in
      Hashtbl.replace t.depths tid (depth + 1);
      let t0 = now () in
      let finish ~aborted =
        Hashtbl.replace t.depths tid depth;
        (* A span closed by an exception — a fault unwinding into a
           rewind — is marked so trace exports can tell it from a clean
           return. *)
        let args = if aborted then args @ [ ("aborted", "true") ] else args in
        if aborted then t.aborted <- t.aborted + 1;
        record t
          {
            s_name = name;
            s_tid = tid;
            s_start = t0;
            s_dur = now () -. t0;
            s_depth = depth;
            s_args = args;
          }
      in
      match f () with
      | v ->
          finish ~aborted:false;
          v
      | exception e ->
          finish ~aborted:true;
          raise e
    end

  let instant t ?(args = []) name =
    if t.on then
      let tid = cur_tid () in
      let depth =
        match Hashtbl.find_opt t.depths tid with Some d -> d | None -> 0
      in
      record t
        {
          s_name = name;
          s_tid = tid;
          s_start = now ();
          s_dur = -1.0;  (* marker: rendered as an instant event *)
          s_depth = depth;
          s_args = args;
        }

  let recorded t = t.total
  let aborted_spans t = t.aborted
  let dropped t = max 0 (t.total - t.capacity)

  let spans t =
    let n = min t.total t.capacity in
    let first = (t.head - n + t.capacity) mod t.capacity in
    List.init n (fun i -> t.ring.((first + i) mod t.capacity))

  let clear t =
    t.head <- 0;
    t.total <- 0;
    t.aborted <- 0;
    Hashtbl.reset t.depths

  let aggregate t =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun s ->
        if s.s_dur >= 0.0 then
          let n, d =
            match Hashtbl.find_opt tbl s.s_name with
            | Some (n, d) -> (n, d)
            | None -> (0, 0.0)
          in
          Hashtbl.replace tbl s.s_name (n + 1, d +. s.s_dur))
      (spans t);
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let to_chrome_json ?(cycles_per_us = 1.0) t =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    let first = ref true in
    List.iter
      (fun s ->
        if !first then first := false else Buffer.add_char b ',';
        let args =
          match s.s_args with
          | [] -> ""
          | kvs ->
              ",\"args\":{"
              ^ String.concat ","
                  (List.map
                     (fun (k, v) ->
                       (* The aborted flag renders as a JSON boolean so
                          trace viewers can filter on it. *)
                       if k = "aborted" && (v = "true" || v = "false") then
                         Printf.sprintf "\"%s\":%s" (json_escape k) v
                       else
                         Printf.sprintf "\"%s\":\"%s\"" (json_escape k)
                           (json_escape v))
                     kvs)
              ^ "}"
        in
        if s.s_dur < 0.0 then
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"sdrad\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d%s}"
               (json_escape s.s_name)
               (s.s_start /. cycles_per_us)
               s.s_tid args)
        else
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"sdrad\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d%s}"
               (json_escape s.s_name)
               (s.s_start /. cycles_per_us)
               (s.s_dur /. cycles_per_us)
               s.s_tid args))
      (spans t);
    Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
    Buffer.contents b
end
