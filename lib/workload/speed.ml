module Sched = Simkern.Sched
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Types = Sdrad.Types

type mode = Native | Isolated of Crypto.Evp_sdrad.choice

type row = {
  mode : mode;
  size : int;
  iterations : int;
  cycles : float;
  ops_per_sec : float;
  mb_per_sec : float;
}

let key = String.init 32 (fun i -> Char.chr (i * 7 mod 256))
let iv = String.init 12 (fun i -> Char.chr (i * 13 mod 256))

let mk_row ~mode ~size ~iterations ~cycles space =
  let cost = Space.cost space in
  let secs = Simkern.Cost.sec_of_cycles cost cycles in
  {
    mode;
    size;
    iterations;
    cycles;
    ops_per_sec = float_of_int iterations /. secs;
    mb_per_sec = float_of_int (iterations * size) /. secs /. 1048576.0;
  }

let measure_native space ~size ~iterations =
  let region = Space.mmap space ~len:(Crypto.Evp.ctx_size + (2 * (size + 64)) + 4096)
      ~prot:Prot.rw ~pkey:0 in
  let ctx = region in
  let inp = region + Crypto.Evp.ctx_size + 64 in
  let out = inp + size + 64 in
  Space.fill space ~addr:inp ~len:(max 1 size) 'p';
  Crypto.Evp.encrypt_init space ~ctx ~key ~iv;
  (* Warm-up to exclude first-touch page faults, as openssl speed's timing
     loop effectively does. *)
  ignore (Crypto.Evp.encrypt_update space ~ctx ~out ~in_:inp ~inl:size);
  let t0 = Sched.now () in
  for _ = 1 to iterations do
    ignore (Crypto.Evp.encrypt_update space ~ctx ~out ~in_:inp ~inl:size)
  done;
  let cycles = Sched.now () -. t0 in
  Space.munmap space region;
  cycles

let measure_isolated space sd choice ~size ~iterations =
  let iso = Crypto.Evp_sdrad.setup sd ~choice ~key ~iv () in
  let in_, out =
    match choice with
    | Crypto.Evp_sdrad.Shared_buffers ->
        ( Crypto.Evp_sdrad.data_malloc iso (size + 8),
          Crypto.Evp_sdrad.data_malloc iso (size + Crypto.Evp.cipher_block_size) )
    | _ ->
        let buf = Api.malloc sd ~udi:Types.root_udi ((2 * (size + 64)) + 16) in
        (buf, buf + size + 64)
  in
  Space.fill space ~addr:in_ ~len:(max 1 size) 'p';
  (match Crypto.Evp_sdrad.encrypt_update iso ~out ~in_ ~inl:size with
  | Ok _ -> ()
  | Error f -> failwith (Format.asprintf "speed: %a" Types.pp_fault f));
  let t0 = Sched.now () in
  for _ = 1 to iterations do
    match Crypto.Evp_sdrad.encrypt_update iso ~out ~in_ ~inl:size with
    | Ok _ -> ()
    | Error f -> failwith (Format.asprintf "speed: %a" Types.pp_fault f)
  done;
  let cycles = Sched.now () -. t0 in
  (match choice with
  | Crypto.Evp_sdrad.Shared_buffers ->
      Crypto.Evp_sdrad.data_free iso in_;
      Crypto.Evp_sdrad.data_free iso out
  | _ -> Api.free sd ~udi:Types.root_udi in_);
  Crypto.Evp_sdrad.destroy iso;
  cycles

let measure space ?sdrad mode ~size ~iterations =
  let cycles =
    match mode with
    | Native -> measure_native space ~size ~iterations
    | Isolated choice -> (
        match sdrad with
        | Some sd -> measure_isolated space sd choice ~size ~iterations
        | None -> invalid_arg "Speed.measure: Isolated mode needs ~sdrad")
  in
  mk_row ~mode ~size ~iterations ~cycles space
