(* The OpenSSL case study (§V-C): protect a cryptographic library from
   its caller by giving it an inaccessible persistent domain. The key
   material is sealed — even a fully compromised application cannot read
   it — and a fault inside the library is survived by re-initializing the
   cryptographic context.

     dune exec examples/isolated_crypto.exe *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Api = Sdrad.Api
module Types = Sdrad.Types

let key = String.init 32 (fun i -> Char.chr (0x40 + i))
let iv = String.make 12 '\001'

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (String.length s) (String.get s)))

let () =
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create space in
  Sched.main (fun _ ->
      Printf.printf "setting up AES-256-GCM inside an inaccessible domain...\n";
      let iso =
        Crypto.Evp_sdrad.setup sd ~choice:Crypto.Evp_sdrad.Copy_in_out ~key ~iv ()
      in
      let msg = "wire this to the offshore account" in
      let buf = Api.malloc sd ~udi:Types.root_udi 256 in
      Space.store_string space buf msg;
      (match
         Crypto.Evp_sdrad.encrypt_update iso ~out:(buf + 128) ~in_:buf
           ~inl:(String.length msg)
       with
      | Ok n ->
          Printf.printf "ciphertext: %s...\n"
            (String.sub (hex (Space.read_string space (buf + 128) n)) 0 32)
      | Error f ->
          Printf.printf "fault: %s\n" (Format.asprintf "%a" Types.pp_fault f));
      (* 1. Confidentiality: scan every readable page for the raw key. *)
      let key_visible = ref false in
      Space.iter_mapped_pages space (fun page ->
          match Space.read_string space page 4096 with
          | contents ->
              let rec search i =
                if i + 32 <= String.length contents then
                  if String.sub contents i 32 = key then key_visible := true
                  else search (i + 1)
              in
              search 0
          | exception Space.Fault _ -> () (* sealed page: unreadable *));
      Printf.printf "raw key readable from the application: %b\n" !key_visible;
      (* 2. Resilience: a memory-safety bug fires inside the library. *)
      Printf.printf "injecting a memory-corruption bug into the library...\n";
      Crypto.Evp_sdrad.inject_fault_next_call iso;
      (match Crypto.Evp_sdrad.encrypt_update iso ~out:(buf + 128) ~in_:buf ~inl:16 with
      | Error f ->
          Printf.printf "caught: %s\n" (Format.asprintf "%a" Types.pp_fault f)
      | Ok _ -> Printf.printf "BUG: corruption not caught\n");
      (* 3. Recovery: re-initialize the context (the paper's §III-D
         caveat — the old session keys are gone with the domain). *)
      Crypto.Evp_sdrad.recover iso ~key ~iv;
      (match Crypto.Evp_sdrad.encrypt_update iso ~out:(buf + 128) ~in_:buf ~inl:16 with
      | Ok _ -> Printf.printf "recovered: encryption works again after re-init\n"
      | Error _ -> Printf.printf "BUG: recovery failed\n");
      Crypto.Evp_sdrad.destroy iso;
      Printf.printf "rewinds: %d\n" (Api.rewind_count sd))
