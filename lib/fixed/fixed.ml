type format = { total_bits : int; frac_bits : int }

let format ~total_bits ~frac_bits =
  if total_bits < 2 || total_bits > 32 then
    invalid_arg "Fixed.format: total_bits out of [2, 32]";
  if frac_bits < 0 || frac_bits >= total_bits then
    invalid_arg "Fixed.format: frac_bits out of [0, total_bits)";
  { total_bits; frac_bits }

let q16_8 = format ~total_bits:16 ~frac_bits:8
let q8_4 = format ~total_bits:8 ~frac_bits:4
let q24_12 = format ~total_bits:24 ~frac_bits:12
let q32_16 = format ~total_bits:32 ~frac_bits:16

let max_value q = (1 lsl (q.total_bits - 1)) - 1

let min_value q = -(1 lsl (q.total_bits - 1))

let resolution q = 1.0 /. float_of_int (1 lsl q.frac_bits)

let max_float q = float_of_int (max_value q) *. resolution q

let min_float q = float_of_int (min_value q) *. resolution q

let saturate q v =
  if v > max_value q then max_value q
  else if v < min_value q then min_value q
  else v

let[@inline] of_float q x =
  let scaled = x *. float_of_int (1 lsl q.frac_bits) in
  if Float.is_nan scaled then 0
  else saturate q (int_of_float (Float.round scaled))

let to_float q v = float_of_int v *. resolution q

let add q a b = saturate q (a + b)

let sub q a b = saturate q (a - b)

let mul q a b =
  (* The full product fits in an OCaml int (<= 63 bits needed for two 32-bit
     operands); rescale with round-to-nearest on the dropped bits. *)
  let p = a * b in
  let half = 1 lsl (Stdlib.max 0 (q.frac_bits - 1)) in
  let rounded =
    if q.frac_bits = 0 then p
    else if p >= 0 then (p + half) asr q.frac_bits
    else -((-p + half) asr q.frac_bits)
  in
  saturate q rounded

let shift_right_approx q v n =
  if n < 0 then invalid_arg "Fixed.shift_right_approx: negative shift";
  saturate q (v asr n)

(* The typed buffer keeps each read a single unboxed load (DESIGN.md §14). *)
let quantize_into q t out =
  let (b : Db_tensor.Tensor.buf) = Db_tensor.Tensor.data t in
  if Array.length out <> Bigarray.Array1.dim b then
    invalid_arg "Fixed.quantize_into: length mismatch";
  for i = 0 to Array.length out - 1 do
    Array.unsafe_set out i (of_float q (Bigarray.Array1.unsafe_get b i))
  done

let quantize_tensor q t =
  let out = Array.make (Db_tensor.Tensor.numel t) 0 in
  quantize_into q t out;
  out

let dequantize_tensor q ~shape values =
  Db_tensor.Tensor.of_array shape (Array.map (to_float q) values)

let roundtrip_error_bound q = resolution q /. 2.0

let fits_float q x =
  (not (Float.is_nan x)) && x >= min_float q && x <= max_float q

let headroom_bits q x =
  let m = Float.abs x in
  if m <= 0.0 then infinity
  else if Float.is_nan m then neg_infinity
  else log (max_float q /. m) /. log 2.0

let signed_bits_for magnitude =
  if Float.is_nan magnitude || magnitude < 0.0 then
    invalid_arg "Fixed.signed_bits_for: magnitude must be non-negative"
  else if magnitude = 0.0 then 1
  else if magnitude = infinity then max_int
  else 1 + int_of_float (Float.ceil (log (magnitude +. 1.0) /. log 2.0))

let pp_format fmt q =
  Format.fprintf fmt "Q%d.%d" (q.total_bits - q.frac_bits) q.frac_bits
