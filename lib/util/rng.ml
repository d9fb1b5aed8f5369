(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field would
   allocate a fresh box on every draw. *)
type t = Bytes.t

external get_state : t -> int -> int64 = "%caml_bytes_get64u"

external set_state : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* Draws are inlined into their callers in this module, so the 64-bit
   intermediate values stay in registers. *)
let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let[@inline] int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's native int non-negatively. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let[@inline] float t bound =
  (* 53 random mantissa bits scaled into [0, bound). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let[@inline] uniform t ~min ~max = min +. float t (max -. min)

(* The loop lives here, next to the inlined draw, so each float goes
   straight from registers into the buffer: a caller in another module
   pays a boxed float per [uniform] under [-opaque]. *)
let fill_uniform t (b : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
    ~min ~max =
  for i = 0 to Bigarray.Array1.dim b - 1 do
    Bigarray.Array1.unsafe_set b i (uniform t ~min ~max)
  done

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-12 then draw ()
    else
      let u2 = float t 1.0 in
      mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  draw ()

let[@inline] bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
