(* Host allocation probes shared by the allocation-budget tests.

   [words_per_call ~n f] runs [f] [warmup] times (default 100: first
   calls fill caches, grow tables and make frames), then returns the
   OCaml minor words one of [n] further calls allocates, net of the same
   loop over an empty closure. [Gc.minor_words] is an unboxed external,
   so reading it allocates nothing. Build [f] and any optional arguments
   it passes before the call: the probe counts what [f] allocates, and a
   closure or [Some] made inside it counts too. Run the probe inside a
   simulated thread when [f] charges virtual time, since the charge path
   only runs there. *)

let words_of n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

let words_per_call ?(warmup = 100) ~n f =
  for _ = 1 to warmup do
    f ()
  done;
  let base = words_of n (fun () -> ()) in
  (words_of n f -. base) /. float_of_int n

(* The words one of [n] calls allocates directly on the major heap, past
   the minor heap: [Gc.counters]' major words less its promoted words,
   after the same warm-up. Blocks larger than the largest minor-heap
   block, such as a simulated memory frame, are allocated there. *)
let major_words_per_call ?(warmup = 100) ~n f =
  for _ = 1 to warmup do
    f ()
  done;
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to n do
    f ()
  done;
  let _, promoted1, major1 = Gc.counters () in
  (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int n
