module A1 = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type t = { shape : Shape.t; data : buf }

let fail fmt = Db_util.Error.failf_at ~component:"tensor" fmt

(* The substrate is float64 on purpose: the golden interpreter, the trainer
   and the quantiser all define their results in IEEE double precision, and
   the specialized simulation engine's bitwise-identity contract (DESIGN.md
   §14) would not survive a float32 narrowing. *)
let alloc n =
  let b = A1.create Bigarray.float64 Bigarray.c_layout n in
  A1.fill b 0.0;
  b

let create shape = { shape; data = alloc (Shape.numel shape) }

let of_array shape data =
  if Array.length data <> Shape.numel shape then
    fail "of_array: length %d does not match shape %s" (Array.length data)
      (Shape.to_string shape);
  let n = Array.length data in
  let b = A1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A1.unsafe_set b i (Array.unsafe_get data i)
  done;
  { shape; data = b }

let to_array t =
  Array.init (A1.dim t.data) (fun i -> A1.unsafe_get t.data i)

let init shape f =
  let n = Shape.numel shape in
  let b = A1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A1.unsafe_set b i (f i)
  done;
  { shape; data = b }

let full shape v =
  let b = A1.create Bigarray.float64 Bigarray.c_layout (Shape.numel shape) in
  A1.fill b v;
  { shape; data = b }

let shape t = t.shape

let numel t = A1.dim t.data

let data t = t.data

let copy t =
  let n = A1.dim t.data in
  let b = A1.create Bigarray.float64 Bigarray.c_layout n in
  A1.blit t.data b;
  { shape = t.shape; data = b }

let get t i =
  if i < 0 || i >= A1.dim t.data then
    fail "get: index %d out of range [0, %d)" i (A1.dim t.data);
  A1.unsafe_get t.data i

let set t i v =
  if i < 0 || i >= A1.dim t.data then
    fail "set: index %d out of range [0, %d)" i (A1.dim t.data);
  A1.unsafe_set t.data i v

(* Kernel-side accessors: no bounds check.  Every caller sits behind a
   validated entry point (Ops dimension checks, the specialize plan's
   shape annotations), which is the guard the safe API provides. *)
let unsafe_get t i = A1.unsafe_get t.data i

let unsafe_set t i v = A1.unsafe_set t.data i v

let index3 t ~c ~y ~x =
  let h = Shape.height t.shape and w = Shape.width t.shape in
  assert (c >= 0 && c < Shape.channels t.shape);
  assert (y >= 0 && y < h);
  assert (x >= 0 && x < w);
  (c * h * w) + (y * w) + x

let get3 t ~c ~y ~x = A1.get t.data (index3 t ~c ~y ~x)

let set3 t ~c ~y ~x v = A1.set t.data (index3 t ~c ~y ~x) v

let reshape t shape =
  if Shape.numel shape <> A1.dim t.data then
    fail "reshape: %s has %d elements, buffer holds %d" (Shape.to_string shape)
      (Shape.numel shape) (A1.dim t.data);
  { shape; data = t.data }

let map f t =
  let n = A1.dim t.data in
  let b = A1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A1.unsafe_set b i (f (A1.unsafe_get t.data i))
  done;
  { shape = t.shape; data = b }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then fail "map2: shape mismatch";
  let n = A1.dim a.data in
  let c = A1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A1.unsafe_set c i (f (A1.unsafe_get a.data i) (A1.unsafe_get b.data i))
  done;
  { shape = a.shape; data = c }

let fill t v = A1.fill t.data v

let blit ~src ~dst =
  if numel src <> numel dst then fail "blit: size mismatch (%d vs %d)" (numel src) (numel dst);
  A1.blit src.data dst.data

let add = map2 ( +. )

let sub = map2 ( -. )

let mul = map2 ( *. )

let scale k t = map (fun x -> k *. x) t

let dot a b =
  if numel a <> numel b then fail "dot: numel mismatch (%d vs %d)" (numel a) (numel b);
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    acc := !acc +. (A1.unsafe_get a.data i *. A1.unsafe_get b.data i)
  done;
  !acc

let max_index t =
  if numel t = 0 then fail "max_index: empty tensor";
  let best = ref 0 in
  for i = 1 to numel t - 1 do
    if A1.unsafe_get t.data i > A1.unsafe_get t.data !best then best := i
  done;
  !best

let fold f init t =
  let acc = ref init in
  for i = 0 to numel t - 1 do
    acc := f !acc (A1.unsafe_get t.data i)
  done;
  !acc

let iteri f t =
  for i = 0 to numel t - 1 do
    f i (A1.unsafe_get t.data i)
  done

let equal_approx ?(tol = 1e-9) a b =
  Shape.equal a.shape b.shape
  &&
  (* Early exit on the first mismatch; [not (diff > tol)] keeps the
     historical NaN behaviour (NaN compares false, so it counts as equal). *)
  let n = numel a in
  let rec scan i =
    i >= n
    || (not
          (Float.abs (A1.unsafe_get a.data i -. A1.unsafe_get b.data i) > tol))
       && scan (i + 1)
  in
  scan 0

let equal_bits a b =
  Shape.equal a.shape b.shape
  &&
  let n = numel a in
  let rec scan i =
    i >= n
    || Int64.equal
         (Int64.bits_of_float (A1.unsafe_get a.data i))
         (Int64.bits_of_float (A1.unsafe_get b.data i))
       && scan (i + 1)
  in
  scan 0

let l2_distance a b =
  if numel a <> numel b then fail "l2_distance: numel mismatch";
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    let d = A1.unsafe_get a.data i -. A1.unsafe_get b.data i in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let random_uniform rng shape ~min ~max =
  let b = A1.create Bigarray.float64 Bigarray.c_layout (Shape.numel shape) in
  Db_util.Rng.fill_uniform rng b ~min ~max;
  { shape; data = b }

let random_gaussian rng shape ~mean ~stddev =
  init shape (fun _ -> Db_util.Rng.gaussian rng ~mean ~stddev)

let pp fmt t =
  let n = Stdlib.min 8 (numel t) in
  Format.fprintf fmt "tensor<%s>[" (Shape.to_string t.shape);
  for i = 0 to n - 1 do
    if i > 0 then Format.fprintf fmt "; ";
    Format.fprintf fmt "%g" (A1.get t.data i)
  done;
  if numel t > n then Format.fprintf fmt "; ...";
  Format.fprintf fmt "]"
