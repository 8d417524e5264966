(* splitmix64. The 64-bit state lives in an 8-byte buffer, not an
   [int64] record field: such a field holds a boxed value, which each
   draw would allocate anew. Read and written through the [Bytes] 64-bit
   accessors, the state stays an unboxed machine word through the step
   and the mix. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64 output function: mix the incremented state. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let int64 t = next t
let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Drop two bits so the result fits OCaml's 62-bit positive int range;
     the residual modulo bias for realistic bounds is < 2^-40. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

(* The top 53 bits of a draw, below 2{^53}: an [int] exactly, and a
   [float] exactly, so [float_of_int (bits53 t) *. 0x1.0p-53] is the
   value [float] returns for the same draw. A caller in another module
   gets it unboxed, where [float]'s result is boxed. *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let float t = float_of_int (bits53 t) *. 0x1.0p-53
let below t p = float_of_int (bits53 t) *. 0x1.0p-53 < p

let bool t = Int64.logand (next t) 1L = 1L

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (Char.code 'a' + int t 26))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
