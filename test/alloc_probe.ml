(* Host allocation probe shared by the allocation-budget tests.

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
