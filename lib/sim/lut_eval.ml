module Approx_lut = Db_blocks.Approx_lut
module Quantized = Db_nn.Quantized
module Lut_set = Db_core.Lut_set

let of_set (set : Lut_set.t) =
  let exact = Quantized.exact_eval in
  (* Table lookups are resolved once here, not per evaluated element: a
     forward pass calls these closures once per activation word, and the
     set is immutable. *)
  let sigmoid_lut = Lut_set.find set Lut_set.Sigmoid in
  let tanh_lut = Lut_set.find set Lut_set.Tanh in
  let exp_lut = Lut_set.find set Lut_set.Exp in
  let reciprocal_lut = Lut_set.find set Lut_set.Reciprocal in
  let power = Lut_set.lrn_power set in
  let via lut fallback =
    match lut with Some lut -> Approx_lut.eval lut | None -> fallback
  in
  {
    Quantized.eval_activation =
      (fun act ->
        (* Dispatch once per partial application — [qmap] applies
           [eval_activation act] to a whole tensor, so the dispatch is
           hoisted out of the element loop. *)
        match act with
        | Db_ir.Op.Relu | Db_ir.Op.Sign -> exact.Quantized.eval_activation act
        | Db_ir.Op.Sigmoid ->
            via sigmoid_lut (exact.Quantized.eval_activation act)
        | Db_ir.Op.Tanh -> via tanh_lut (exact.Quantized.eval_activation act));
    eval_reciprocal =
      (fun x ->
        match reciprocal_lut with
        | None -> 1.0 /. x
        | Some lut ->
            (* Range reduction: write |x| = m * 2^k with m in [1, 2), read
               1/m from the table, then shift back — exactly what the RTL
               does with a leading-zero count and a barrel shifter. *)
            if x = 0.0 then Float.max_float
            else begin
              let sign = if x < 0.0 then -1.0 else 1.0 in
              let m, k = Float.frexp (Float.abs x) in
              (* frexp yields m in [0.5, 1); fold into [1, 2). *)
              let m = 2.0 *. m and k = k - 1 in
              sign *. Float.ldexp (Approx_lut.eval lut m) (-k)
            end);
    eval_power =
      (fun x p ->
        (* The only power the layer vocabulary needs is LRN's scale^-beta,
           tabulated as (k + u)^-beta over u = scale - k. *)
        match power with
        | Some (beta, k, lut) when p = -.beta -> Approx_lut.eval lut (x -. k)
        | Some _ | None -> x ** p);
    eval_exp = (fun x -> via exp_lut exp x);
  }
