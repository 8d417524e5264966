module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Types = Sdrad.Types

type choice = Copy_in_out | Read_parent | Shared_buffers

type t = {
  sd : Api.t;
  space : Space.t;
  udi : int;
  ch : choice;
  mutable ctx : int;  (* context address inside the OpenSSL domain *)
  mutable healthy : bool;
  mutable fault_next : bool;
}

let domain_opts =
  {
    Types.default_options with
    access = Types.Inaccessible;
    heap_size = 64 * 1024;
  }

(* Build the domain and allocate + initialize the EVP context inside it.
   The context pointer is returned to the caller but the object itself is
   inaccessible to the parent (§IV-A "OpenSSL"). *)
let create_domain sd ~udi ~key ~iv =
  Api.run sd ~udi ~opts:domain_opts
    ~on_rewind:(fun f ->
      failwith
        (Format.asprintf "Evp_sdrad: fault during setup: %a" Types.pp_fault f))
    (fun () ->
      Api.enter sd udi;
      let ctx = Api.malloc sd ~udi Evp.ctx_size in
      Evp.encrypt_init (Api.space sd) ~ctx ~key ~iv;
      Api.exit_domain sd;
      Api.deinit sd udi;
      ctx)

(* The shared data domain staging buffers cross through. *)
let data_udi = 15

let setup sd ?(udi = 14) ~choice ~key ~iv () =
  Api.init_data sd ~udi:data_udi ~heap_size:(256 * 1024) ();
  Api.dprotect sd ~udi ~tddi:data_udi Prot.rw;
  let ctx = create_domain sd ~udi ~key ~iv in
  {
    sd;
    space = Api.space sd;
    udi;
    ch = choice;
    ctx;
    healthy = true;
    fault_next = false;
  }

let choice t = t.ch

let recover t ~key ~iv =
  t.ctx <- create_domain t.sd ~udi:t.udi ~key ~iv;
  t.healthy <- true

let data_malloc t n = Api.malloc t.sd ~udi:data_udi n
let data_free t p = Api.free t.sd ~udi:data_udi p
let inject_fault_next_call t = t.fault_next <- true

let check_healthy t =
  if not t.healthy then
    invalid_arg "Evp_sdrad: domain faulted; call recover first"

(* Corrupt memory inside the OpenSSL domain: write past the end of the
   context allocation until the protection key stops us. *)
let sabotage t =
  t.fault_next <- false;
  let rec smash i =
    Space.store8 t.space (t.ctx + i) 0xFF;
    smash (i + 64)
  in
  smash Evp.ctx_size

let encrypt_update t ~out ~in_ ~inl =
  check_healthy t;
  Api.run t.sd ~udi:t.udi ~opts:domain_opts
    ~on_rewind:(fun fault ->
      t.healthy <- false;
      Result.Error fault)
    (fun () ->
      (* Stage the argument block in the shared data domain (Listing 2). *)
      let args_in, owned_in =
        match t.ch with
        | Copy_in_out ->
            let p = Api.malloc t.sd ~udi:data_udi inl in
            Space.blit t.space ~src:in_ ~dst:p ~len:inl;
            (p, true)
        | Read_parent | Shared_buffers -> (in_, false)
      in
      let args_out, owned_out =
        match t.ch with
        | Copy_in_out | Read_parent ->
            (Api.malloc t.sd ~udi:data_udi (inl + Evp.cipher_block_size), true)
        | Shared_buffers -> (out, false)
      in
      Api.enter t.sd t.udi;
      if t.fault_next then sabotage t;
      let outl =
        Evp.encrypt_update t.space ~ctx:t.ctx ~out:args_out ~in_:args_in ~inl
      in
      Api.exit_domain t.sd;
      if owned_out then begin
        Space.blit t.space ~src:args_out ~dst:out ~len:outl;
        Api.free t.sd ~udi:data_udi args_out
      end;
      if owned_in then Api.free t.sd ~udi:data_udi args_in;
      Api.deinit t.sd t.udi;
      Result.Ok outl)

let encrypt_final t ~tag_out =
  check_healthy t;
  Api.run t.sd ~udi:t.udi ~opts:domain_opts
    ~on_rewind:(fun fault ->
      t.healthy <- false;
      Result.Error fault)
    (fun () ->
      let staged = Api.malloc t.sd ~udi:data_udi 16 in
      Api.enter t.sd t.udi;
      if t.fault_next then sabotage t;
      Evp.encrypt_final t.space ~ctx:t.ctx ~tag_out:staged;
      Api.exit_domain t.sd;
      let tag = Space.read_string t.space staged 16 in
      if tag_out <> 0 then Space.blit t.space ~src:staged ~dst:tag_out ~len:16;
      Api.free t.sd ~udi:data_udi staged;
      Api.deinit t.sd t.udi;
      Result.Ok tag)

let destroy t =
  if t.healthy then begin
    (* The domain is dormant between calls; re-arm it so destroy sees an
       initialized instance, then drop everything. *)
    Api.run t.sd ~udi:t.udi ~opts:domain_opts
      ~on_rewind:(fun _ -> ())
      (fun () -> Api.destroy t.sd t.udi ~heap:`Discard)
  end;
  Api.destroy t.sd data_udi ~heap:`Discard;
  t.healthy <- false
