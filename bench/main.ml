(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md §4 for the index).

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- e1 e5   # a subset
     dune exec bench/main.exe -- quick   # reduced workload sizes *)

let all : (string * (unit -> unit)) list =
  [
    ("e1", Experiments.e1);
    ("e1b", Experiments.e1b);
    ("e2", Experiments.e2);
    ("e3", Experiments.e3);
    ("e3b", Experiments.e3b);
    ("e4", Experiments.e4);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", Experiments.e8);
    ("e9", Experiments.e9);
    ("a1", Experiments.a1);
    ("a4", Experiments.a4);
    ("a5", Experiments.a5);
    ("a6", Experiments.a6);
    ("a2", Experiments.a2);
    ("a3", Experiments.a3);
    ("r1", Experiments.r1);
    ("r4", Experiments.r4);
    ("r5", Experiments.r5);
    ("gate", Experiments.gate);
    ("micro", Micro.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "quick" then begin
          Experiments.quick := true;
          false
        end
        else true)
      args
  in
  let selected =
    match args with
    | [] -> all
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n all with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s (have: %s)\n" n
                  (String.concat " " (List.map fst all));
                exit 2)
          names
  in
  Printf.printf
    "SDRaD reproduction benchmark harness — %d experiment(s)%s\n"
    (List.length selected)
    (if !Experiments.quick then " (quick mode)" else "");
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      f ();
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    selected;
  Printf.printf "\nAll done in %.1fs\n" (Unix.gettimeofday () -. t0)
