(* Defense in depth: the §III-E / §VI machinery working together.

   A worker pipeline takes jobs under a shared lock and runs a two-level
   domain nest (Figure 2): a transient outer domain owning the recovery
   point, and an inner domain configured to rewind to the *grandparent*.
   A fault in the inner domain therefore discards both levels, releases
   the rewind-aware lock (poisoned), notifies the incident subscriber
   (the paper's SIEM hook), and the service carries on.

     dune exec examples/defense_in_depth.exe *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types
module Dlock = Sdrad.Dlock

let outer = 1
let inner = 2

let process_job sd space lock job =
  Api.run sd ~udi:outer
    ~opts:{ Types.default_options with scrub_on_discard = true }
    ~on_rewind:(fun fault ->
      Printf.sprintf "recovered at outer level (%s)"
        (Format.asprintf "%a" Types.pp_cause fault.Types.cause))
    (fun () ->
      Api.enter sd outer;
      let result =
        Api.run sd ~udi:inner
          ~opts:{ Types.default_options with rewind = Types.Grandparent }
          ~on_rewind:(fun _ -> "unreachable: inner rewinds skip this level")
          (fun () ->
            Api.enter sd inner;
            (* Take the shared lock inside the domain — the dangerous
               pattern §VI warns about, made safe by Dlock. *)
            let clean = Dlock.acquire lock in
            if not clean then Dlock.clear_poisoned lock;
            let buf = Api.malloc sd ~udi:inner 128 in
            Space.store_string space buf job;
            (* Job 2 carries the exploit. *)
            (let is_exploit =
               String.split_on_char ' ' job |> List.mem "exploit"
             in
             if is_exploit then ignore (Space.load8 space 0));
            let out = Space.read_string space buf (String.length job) in
            Dlock.release lock;
            Api.exit_domain sd;
            Printf.sprintf "processed %S" out)
      in
      (* Still inside [outer]: the inner domain is its child. *)
      Api.destroy sd inner ~heap:`Discard;
      Api.exit_domain sd;
      Api.destroy sd outer ~heap:`Discard;
      result)

let () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  Api.on_incident sd (fun f ->
      Printf.printf "  [SIEM] incident: domain %d, %s\n" f.Types.failed_udi
        (Format.asprintf "%a" Types.pp_cause f.Types.cause));
  let lock = Dlock.create sd in
  (match
     Sched.main (fun _ ->
       List.iteri
         (fun i job ->
           Printf.printf "job %d: %s\n" i (process_job sd space lock job);
           if Dlock.poisoned lock then
             Printf.printf "  (lock was poisoned by the rewind — next \
                            holder revalidates shared state)\n")
         [
           "first harmless job";
           "the second job is carrying an exploit payload";
           "third job, after recovery";
         ])
   with
  | () -> ()
  | exception e -> Printf.printf "pipeline failed: %s\n" (Printexc.to_string e));
  let n = List.length (Api.audit_records sd) in
  Printf.printf "incident log: %d entr%s; pipeline never went down\n" n
    (if n = 1 then "y" else "ies")
