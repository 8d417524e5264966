(* Quickstart: compartmentalize a buggy routine into an isolated domain
   and survive the memory-safety violation it commits.

     dune exec examples/quickstart.exe *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types

(* A "third-party" routine that parses untrusted input. It has a bug: a
   length field taken from the input drives an unchecked copy. *)
let risky_parse sd space ~input =
  let udi = 1 in
  let buf = Api.malloc sd ~udi (String.length input) in
  Space.store_string space buf input;
  Api.enter sd udi;
  (* ... inside the sandbox: the declared length is attacker-controlled. *)
  let declared = int_of_string (String.sub input 0 8) in
  let out = Api.malloc sd ~udi 64 in
  for i = 0 to declared - 1 do
    Space.store8 space (out + i) (Space.load8 space (buf + (i mod String.length input)))
  done;
  Api.exit_domain sd;
  let result = Space.read_string space out (min declared 64) in
  Api.destroy sd udi ~heap:`Discard;
  result

let () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  Sched.main (fun _ ->
      List.iter
        (fun input ->
          let verdict =
            Api.run sd ~udi:1
              ~on_rewind:(fun fault ->
                Printf.sprintf "REWOUND (%s)"
                  (Format.asprintf "%a" Types.pp_cause fault.Types.cause))
              (fun () ->
                let r = risky_parse sd space ~input in
                Printf.sprintf "ok: %S" r)
          in
          Printf.printf "input %-24S -> %s\n" (String.sub input 0 (min 20 (String.length input))) verdict)
        [
          "00000008datadata";
          (* declared length lies: the copy rampages out of the domain *)
          "99999999boom";
          (* and the service still works afterwards *)
          "00000004fine";
        ];
      Printf.printf "rewinds performed: %d\n" (Api.rewind_count sd);
      Printf.printf "still in the root domain: %b\n"
        (Api.current sd = Types.root_udi))
