module Tensor = Db_tensor.Tensor
module Fixed = Db_fixed.Fixed

let fail fmt = Db_util.Error.failf_at ~component:"calibration" fmt

let tensor_max_abs t =
  Tensor.fold (fun acc v -> Float.max acc (Float.abs v)) 0.0 t

let profile_max_abs net params ~input_blob ~samples =
  if samples = [] then fail "no calibration samples";
  let weight_max =
    Db_nn.Network.fold net ~init:0.0 ~f:(fun acc node ->
        List.fold_left
          (fun acc t -> Float.max acc (tensor_max_abs t))
          acc
          (Db_nn.Params.get params node.Db_nn.Network.node_name))
  in
  let g = Db_ir.Lower.lower net in
  List.fold_left
    (fun acc sample ->
      let env = Db_ir.Interp.forward g params ~inputs:[ (input_blob, sample) ] in
      List.fold_left
        (fun acc (_, blob) -> Float.max acc (tensor_max_abs blob))
        acc env)
    weight_max samples

let choose_format_report ?(margin_bits = 1) ~total_bits ~max_abs () =
  if max_abs < 0.0 || Float.is_nan max_abs then
    fail "invalid profiled magnitude %g" max_abs;
  (* Integer bits needed so that max_abs (with headroom) stays below the
     saturation point; the sign bit is accounted separately by the
     format's definition. *)
  let int_bits =
    if max_abs <= 1.0 then 0
    else int_of_float (Float.ceil (log (max_abs +. 1e-12) /. log 2.0))
  in
  let wanted = total_bits - 1 - int_bits - margin_bits in
  let frac_bits = Stdlib.max 0 (Stdlib.min (total_bits - 1) wanted) in
  (* The historical clamp to 0 fraction bits was silent; a word too narrow
     for the profiled magnitude now surfaces as DB-R006 so strict callers
     can refuse the integer-resolution format instead of shipping it. *)
  let diags =
    if wanted < 0 then [ Db_check.Range.frac_clamp_diag ~total_bits ~max_abs ]
    else []
  in
  (Fixed.format ~total_bits ~frac_bits, diags)

let choose_format ?margin_bits ~total_bits ~max_abs () =
  fst (choose_format_report ?margin_bits ~total_bits ~max_abs ())

let calibrate_report ?margin_bits ?(total_bits = 16) net params ~input_blob
    ~samples =
  let max_abs = profile_max_abs net params ~input_blob ~samples in
  choose_format_report ?margin_bits ~total_bits ~max_abs ()

let calibrate ?margin_bits ?total_bits net params ~input_blob ~samples =
  fst (calibrate_report ?margin_bits ?total_bits net params ~input_blob ~samples)

let calibrated_constraints ?margin_bits (cons : Constraints.t) net params
    ~input_blob ~samples =
  let fmt =
    calibrate ?margin_bits
      ~total_bits:cons.Constraints.fmt.Fixed.total_bits net params ~input_blob
      ~samples
  in
  { cons with Constraints.fmt }
