type t = {
  rng : Simkern.Rng.t;
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
}

let zeta n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. (float_of_int i ** theta))
  done;
  !acc

let create rng ~n ~theta =
  if n < 2 then invalid_arg "Zipf.create: need n >= 2";
  if theta <= 0.0 || theta >= 1.0 then invalid_arg "Zipf.create: theta in (0,1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { rng; n; theta; alpha; zetan; eta }

(* [u] is [Rng.float]'s value, scaled here from the int draw so that it
   is never boxed. *)
let next t =
  let u = float_of_int (Simkern.Rng.bits53 t.rng) *. 0x1.0p-53 in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** t.theta) then 1
  else
    let v =
      float_of_int t.n *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha)
    in
    min (t.n - 1) (int_of_float v)
