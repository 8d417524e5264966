module Space = Vmem.Space
module Sched = Simkern.Sched

let ctx_size = Gcm.serialized_size + 16 (* blob + state word *)
let cipher_block_size = 16
let aes_cycles_per_byte = 1.25
let update_fixed_cycles = 180.0

let charge c = if Sched.in_thread () then Sched.charge c

let state_off = Gcm.serialized_size
let st_encrypt = 1
let st_decrypt = 2
let st_finished = 3

let load_ctx space ctx =
  let b = Bytes.create Gcm.serialized_size in
  Space.read_into space ctx b 0 Gcm.serialized_size;
  Gcm.deserialize b

let store_ctx space ctx g =
  let b = Gcm.serialize g in
  Space.store_from space ctx b 0 (Bytes.length b)

let init_common space ~ctx ~key ~iv state =
  let g = Gcm.init ~key ~iv in
  store_ctx space ctx g;
  Space.store64 space (ctx + state_off) state;
  charge (update_fixed_cycles +. (40.0 *. aes_cycles_per_byte))

let encrypt_init space ~ctx ~key ~iv = init_common space ~ctx ~key ~iv st_encrypt
let decrypt_init space ~ctx ~key ~iv = init_common space ~ctx ~key ~iv st_decrypt

let check_state space ctx expected =
  let st = Space.load64 space (ctx + state_off) in
  if st <> expected then
    invalid_arg
      (Printf.sprintf "Evp: context in state %d, expected %d" st expected)

let aad_update space ~ctx ~in_ ~inl =
  let st = Space.load64 space (ctx + state_off) in
  if st <> st_encrypt && st <> st_decrypt then
    invalid_arg "Evp.aad_update: context not initialized";
  let g = load_ctx space ctx in
  Gcm.aad g (Space.read_string space in_ inl);
  store_ctx space ctx g;
  charge (update_fixed_cycles +. (aes_cycles_per_byte *. float_of_int inl))

let update space ~ctx ~out ~in_ ~inl ~encrypting =
  check_state space ctx (if encrypting then st_encrypt else st_decrypt);
  let g = load_ctx space ctx in
  let data = Space.read_string space in_ inl in
  let result = if encrypting then Gcm.encrypt g data else Gcm.decrypt g data in
  Space.store_string space out result;
  store_ctx space ctx g;
  charge (update_fixed_cycles +. (aes_cycles_per_byte *. float_of_int inl));
  inl

let encrypt_update space ~ctx ~out ~in_ ~inl =
  update space ~ctx ~out ~in_ ~inl ~encrypting:true

let decrypt_update space ~ctx ~out ~in_ ~inl =
  update space ~ctx ~out ~in_ ~inl ~encrypting:false

let encrypt_final space ~ctx ~tag_out =
  check_state space ctx st_encrypt;
  let g = load_ctx space ctx in
  Space.store_string space tag_out (Gcm.tag g);
  Space.store64 space (ctx + state_off) st_finished;
  charge (update_fixed_cycles +. (32.0 *. aes_cycles_per_byte))

let decrypt_final space ~ctx ~tag =
  check_state space ctx st_decrypt;
  let g = load_ctx space ctx in
  let computed = Gcm.tag g in
  let given = Space.read_string space tag 16 in
  Space.store64 space (ctx + state_off) st_finished;
  charge (update_fixed_cycles +. (32.0 *. aes_cycles_per_byte));
  String.equal computed given
