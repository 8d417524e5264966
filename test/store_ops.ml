(* The string-key operations a test drives a [Kvcache.Store] with,
   composed of the store's own forms as the server composes them. *)

module Store = Kvcache.Store

let set db ~key ~flags ~value_src ~value_len =
  let n = String.length key in
  match Store.prepare db key 0 n ~flags ~value_src ~value_len with
  | 0 -> false
  | item ->
      Store.commit db key 0 n item;
      true

(* [(value_addr, value_len, flags)] of a hit, read as a GET reads them:
   bump, then flags, length, address. *)
let get db key =
  match Store.find db key 0 (String.length key) with
  | 0 -> None
  | item ->
      Store.bump db item;
      let flags = Store.item_flags db item in
      let len = Store.value_len db item in
      Some (Store.value_addr db item, len, flags)

let delete db key = Store.remove db key 0 (String.length key)
let mem db key = get db key <> None
