module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Fixed = Db_fixed.Fixed

type qtensor = { qshape : Shape.t; qdata : int array }

type function_eval = {
  eval_activation : Layer.activation -> float -> float;
  eval_reciprocal : float -> float;
  eval_power : float -> float -> float;
  eval_exp : float -> float;
}

let exact_activation act x =
  match act with
  | Layer.Relu -> Float.max 0.0 x
  | Layer.Sigmoid -> 1.0 /. (1.0 +. exp (-.x))
  | Layer.Tanh -> Float.tanh x
  | Layer.Sign -> if x >= 0.0 then 1.0 else -1.0

let exact_eval =
  {
    eval_activation = exact_activation;
    eval_reciprocal = (fun x -> 1.0 /. x);
    eval_power = (fun x p -> x ** p);
    eval_exp = exp;
  }

let fail fmt = Db_util.Error.failf_at ~component:"quantized" fmt

let quantize fmt t =
  { qshape = Tensor.shape t; qdata = Fixed.quantize_tensor fmt t }

let dequantize fmt q = Fixed.dequantize_tensor fmt ~shape:q.qshape q.qdata

(* Rescale a wide accumulator of frac*2 fractional bits back to the working
   format, with round-to-nearest, then saturate. *)
let rescale_acc fmt acc =
  let frac = fmt.Fixed.frac_bits in
  let half = if frac = 0 then 0 else 1 lsl (frac - 1) in
  let rounded =
    if frac = 0 then acc
    else if acc >= 0 then (acc + half) asr frac
    else -((-acc + half) asr frac)
  in
  Fixed.saturate fmt rounded

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2_exact n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v asr 1) in
  go 0 n

(* The [out] rule every kernel follows: it writes all [n] words of [out]
   when [out] holds exactly [n], whatever [out] held before, and a fresh
   array otherwise. *)
let slot out n = if Array.length out = n then out else Array.make n 0

let qconv2d fmt ~input ~weights ~bias ~stride ~pad ~group ~out =
  let cin = Shape.channels input.qshape
  and h = Shape.height input.qshape
  and w = Shape.width input.qshape in
  let wsh = weights.qshape in
  let cout = Shape.dim wsh 0
  and cin_g = Shape.dim wsh 1
  and k = Shape.dim wsh 2 in
  let oh = Db_tensor.Ops.conv_output_dim ~input:h ~kernel:k ~stride ~pad_lo:pad ~pad_hi:pad in
  let ow = Db_tensor.Ops.conv_output_dim ~input:w ~kernel:k ~stride ~pad_lo:pad ~pad_hi:pad in
  assert (cin mod group = 0 && cout mod group = 0 && cin_g = cin / group);
  let out = slot out (cout * oh * ow) in
  let cout_g = cout / group in
  for oc = 0 to cout - 1 do
    let g = oc / cout_g in
    let base_ic = g * cin_g in
    let b =
      match bias with
      | None -> 0
      | Some bt -> bt.qdata.(oc) lsl fmt.Fixed.frac_bits
    in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let acc = ref b in
        for ic = 0 to cin_g - 1 do
          for ky = 0 to k - 1 do
            let iy = (oy * stride) + ky - pad in
            if iy >= 0 && iy < h then
              for kx = 0 to k - 1 do
                let ix = (ox * stride) + kx - pad in
                if ix >= 0 && ix < w then begin
                  let iv = input.qdata.(((base_ic + ic) * h * w) + (iy * w) + ix) in
                  let wv = weights.qdata.((((oc * cin_g) + ic) * k * k) + (ky * k) + kx) in
                  acc := !acc + (iv * wv)
                end
              done
          done
        done;
        out.((oc * oh * ow) + (oy * ow) + ox) <- rescale_acc fmt !acc
      done
    done
  done;
  { qshape = Shape.chw ~channels:cout ~height:oh ~width:ow; qdata = out }

let qfully_connected fmt ~input ~weights ~bias ~out =
  let nout = Shape.dim weights.qshape 0
  and nin = Shape.dim weights.qshape 1 in
  if Array.length input.qdata <> nin then fail "fc: input size mismatch";
  let out = slot out nout in
  for o = 0 to nout - 1 do
    let acc =
      ref
        (match bias with
        | None -> 0
        | Some bt -> bt.qdata.(o) lsl fmt.Fixed.frac_bits)
    in
    for i = 0 to nin - 1 do
      acc := !acc + (weights.qdata.((o * nin) + i) * input.qdata.(i))
    done;
    out.(o) <- rescale_acc fmt !acc
  done;
  { qshape = Shape.vector nout; qdata = out }

let qpool fmt ~method_ ~input ~kernel ~stride ~eval ~out =
  let c = Shape.channels input.qshape
  and h = Shape.height input.qshape
  and w = Shape.width input.qshape in
  let oh = Db_tensor.Ops.conv_output_dim ~input:h ~kernel ~stride ~pad_lo:0 ~pad_hi:0 in
  let ow = Db_tensor.Ops.conv_output_dim ~input:w ~kernel ~stride ~pad_lo:0 ~pad_hi:0 in
  let out = slot out (c * oh * ow) in
  let area = kernel * kernel in
  let recip_q =
    Fixed.of_float fmt (eval.eval_reciprocal (float_of_int area))
  in
  for ch = 0 to c - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let value =
          match method_ with
          | Layer.Max_pool ->
              let best = ref min_int in
              for ky = 0 to kernel - 1 do
                for kx = 0 to kernel - 1 do
                  let v = input.qdata.((ch * h * w) + (((oy * stride) + ky) * w) + (ox * stride) + kx) in
                  if v > !best then best := v
                done
              done;
              !best
          | Layer.Avg_pool ->
              let acc = ref 0 in
              for ky = 0 to kernel - 1 do
                for kx = 0 to kernel - 1 do
                  acc := !acc + input.qdata.((ch * h * w) + (((oy * stride) + ky) * w) + (ox * stride) + kx)
                done
              done;
              (* The connection box's shifting latch divides exactly for
                 power-of-two areas; otherwise multiply by the (possibly
                 LUT-approximated) reciprocal. *)
              if is_power_of_two area then
                Fixed.shift_right_approx fmt !acc (log2_exact area)
              else Fixed.mul fmt (Fixed.saturate fmt !acc) recip_q
        in
        out.((ch * oh * ow) + (oy * ow) + ox) <- value
      done
    done
  done;
  { qshape = Shape.chw ~channels:c ~height:oh ~width:ow; qdata = out }

let qglobal_pool fmt ~method_ ~eval ~out input =
  let c = Shape.channels input.qshape in
  let hw = Array.length input.qdata / c in
  let out = slot out c in
  for ch = 0 to c - 1 do
    out.(ch) <-
      (match method_ with
      | Layer.Max_pool ->
          let best = ref min_int in
          for i = 0 to hw - 1 do
            if input.qdata.((ch * hw) + i) > !best then
              best := input.qdata.((ch * hw) + i)
          done;
          !best
      | Layer.Avg_pool ->
          let acc = ref 0 in
          for i = 0 to hw - 1 do
            acc := !acc + input.qdata.((ch * hw) + i)
          done;
          if is_power_of_two hw then
            Fixed.shift_right_approx fmt !acc (log2_exact hw)
          else
            Fixed.mul fmt (Fixed.saturate fmt !acc)
              (Fixed.of_float fmt (eval.eval_reciprocal (float_of_int hw))))
  done;
  { qshape = Shape.vector c; qdata = out }

let qmap fmt f ~out input =
  let out = slot out (Array.length input.qdata) in
  Array.iteri
    (fun i v -> out.(i) <- Fixed.of_float fmt (f (Fixed.to_float fmt v)))
    input.qdata;
  { input with qdata = out }

(* The state starts at zero and lives in the result's words: each step
   reads all of it into [feedback] before overwriting it. *)
let qrecurrent fmt ~eval ~w_in ~w_rec ~bias ~steps ~out input =
  let nout = Shape.dim w_in.qshape 0 in
  let state = { qshape = Shape.vector nout; qdata = slot out nout } in
  Array.fill state.qdata 0 nout 0;
  for _step = 1 to steps do
    let drive = qfully_connected fmt ~input ~weights:w_in ~bias ~out:[||] in
    let feedback =
      qfully_connected fmt ~input:state ~weights:w_rec ~bias:None ~out:[||]
    in
    let tanh = eval.eval_activation Layer.Tanh in
    for i = 0 to nout - 1 do
      state.qdata.(i) <-
        Fixed.of_float fmt
          (tanh (Fixed.to_float fmt (Fixed.add fmt drive.qdata.(i) feedback.qdata.(i))))
    done
  done;
  state

let qlrn fmt ~eval ~input ~local_size ~alpha ~beta ~k ~out =
  let c = Shape.channels input.qshape
  and h = Shape.height input.qshape
  and w = Shape.width input.qshape in
  let out = slot out (c * h * w) in
  let half = local_size / 2 in
  (* [float_of_int v *. res] is [Fixed.to_float fmt v], read without the
     boxed float a cross-module call returns under [-opaque]. *)
  let res = Fixed.resolution fmt in
  for ch = 0 to c - 1 do
    let lo = Stdlib.max 0 (ch - half) and hi = Stdlib.min (c - 1) (ch + half) in
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let sq = ref 0.0 in
        for j = lo to hi do
          let v = float_of_int input.qdata.((j * h * w) + (y * w) + x) *. res in
          sq := !sq +. (v *. v)
        done;
        let scale = k +. (alpha /. float_of_int local_size *. !sq) in
        let v = float_of_int input.qdata.((ch * h * w) + (y * w) + x) *. res in
        (* The hardware reads scale^-beta in one LUT lookup. *)
        let inv_denom = eval.eval_power scale (-.beta) in
        out.((ch * h * w) + (y * w) + x) <- Fixed.of_float fmt (v *. inv_denom)
      done
    done
  done;
  { qshape = input.qshape; qdata = out }

(* The mean/variance path runs on the accumulators; the division goes
   through the reciprocal Approx LUT like average pooling does. *)
let qlcn fmt ~eval ~window ~epsilon ~out input =
  let shape = input.qshape in
  let c = Shape.channels shape
  and h = Shape.height shape
  and w = Shape.width shape in
  let half = window / 2 in
  let out = slot out (c * h * w) in
  for ch = 0 to c - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let sum = ref 0.0 and sumsq = ref 0.0 and count = ref 0 in
        for dy = -half to half do
          for dx = -half to half do
            let yy = y + dy and xx = x + dx in
            if yy >= 0 && yy < h && xx >= 0 && xx < w then begin
              let v =
                Fixed.to_float fmt input.qdata.((ch * h * w) + (yy * w) + xx)
              in
              sum := !sum +. v;
              sumsq := !sumsq +. (v *. v);
              incr count
            end
          done
        done;
        let n = float_of_int !count in
        let mean = !sum /. n in
        let var = Float.max 0.0 ((!sumsq /. n) -. (mean *. mean)) in
        let denom = Float.max epsilon (sqrt var) in
        let v = Fixed.to_float fmt input.qdata.((ch * h * w) + (y * w) + x) in
        out.((ch * h * w) + (y * w) + x) <-
          Fixed.of_float fmt ((v -. mean) *. eval.eval_reciprocal denom)
      done
    done
  done;
  { qshape = shape; qdata = out }

let qsoftmax fmt ~eval ~out input =
  let floats = Array.map (Fixed.to_float fmt) input.qdata in
  let m = Array.fold_left Float.max neg_infinity floats in
  let exps = Array.map (fun x -> eval.eval_exp (x -. m)) floats in
  let total = Array.fold_left ( +. ) 0.0 exps in
  let inv = eval.eval_reciprocal total in
  let out = slot out (Array.length exps) in
  Array.iteri (fun i e -> out.(i) <- Fixed.of_float fmt (e *. inv)) exps;
  { input with qdata = out }

let qconcat ~out bottoms =
  let total = List.fold_left (fun acc b -> acc + Array.length b.qdata) 0 bottoms in
  let first = match bottoms with b :: _ -> b | [] -> fail "concat: no bottoms" in
  let h = Shape.height first.qshape and w = Shape.width first.qshape in
  let channels = total / (h * w) in
  let out = slot out total in
  let offset = ref 0 in
  List.iter
    (fun b ->
      Array.blit b.qdata 0 out !offset (Array.length b.qdata);
      offset := !offset + Array.length b.qdata)
    bottoms;
  { qshape = Shape.chw ~channels ~height:h ~width:w; qdata = out }

let qclassifier ~top_k ~out input =
  let n = Array.length input.qdata in
  let indices = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      if input.qdata.(a) > input.qdata.(b) then -1
      else if input.qdata.(a) < input.qdata.(b) then 1
      else compare a b)
    indices;
  (* Indices are integers: represent them exactly in the integer part. *)
  let out = slot out top_k in
  for i = 0 to top_k - 1 do
    out.(i) <- indices.(i)
  done;
  { qshape = Shape.vector top_k; qdata = out }

let eval_node fmt eval layer ~params ~bottoms ~out =
  let one () =
    match bottoms with
    | [ b ] -> b
    | _ -> fail "layer %s expects one bottom" (Layer.name layer)
  in
  let flat q = { q with qshape = Shape.vector (Array.length q.qdata) } in
  match layer with
  | Layer.Input _ -> fail "input layers are not evaluated"
  | Layer.Conv { stride; pad; group; bias = has_bias; _ } -> begin
      match params, has_bias with
      | [ w ], false ->
          qconv2d fmt ~input:(one ()) ~weights:w ~bias:None ~stride ~pad ~group ~out
      | [ w; b ], true ->
          qconv2d fmt ~input:(one ()) ~weights:w ~bias:(Some b) ~stride ~pad
            ~group ~out
      | _ -> fail "convolution: wrong parameter tensors"
    end
  | Layer.Pool { method_; kernel_size; stride } ->
      qpool fmt ~method_ ~input:(one ()) ~kernel:kernel_size ~stride ~eval ~out
  | Layer.Global_pool method_ -> qglobal_pool fmt ~method_ ~eval ~out (one ())
  | Layer.Fc { bias = has_bias; _ } -> begin
      match params, has_bias with
      | [ w ], false ->
          qfully_connected fmt ~input:(flat (one ())) ~weights:w ~bias:None ~out
      | [ w; b ], true ->
          qfully_connected fmt ~input:(flat (one ())) ~weights:w ~bias:(Some b)
            ~out
      | _ -> fail "inner product: wrong parameter tensors"
    end
  | Layer.Act act -> qmap fmt (eval.eval_activation act) ~out (one ())
  | Layer.Lrn { local_size; alpha; beta; k } ->
      qlrn fmt ~eval ~input:(one ()) ~local_size ~alpha ~beta ~k ~out
  | Layer.Lcn { window; epsilon } -> qlcn fmt ~eval ~window ~epsilon ~out (one ())
  | Layer.Dropout _ ->
      let input = one () in
      let n = Array.length input.qdata in
      let out = slot out n in
      Array.blit input.qdata 0 out 0 n;
      { input with qdata = out }
  | Layer.Softmax -> qsoftmax fmt ~eval ~out (one ())
  | Layer.Recurrent { steps; bias = has_bias; _ } -> begin
      match params, has_bias with
      | [ w_in; w_rec ], false ->
          qrecurrent fmt ~eval ~w_in ~w_rec ~bias:None ~steps ~out (flat (one ()))
      | [ w_in; w_rec; b ], true ->
          qrecurrent fmt ~eval ~w_in ~w_rec ~bias:(Some b) ~steps ~out
            (flat (one ()))
      | _ -> fail "recurrent: wrong parameter tensors"
    end
  | Layer.Associative { cells_per_dim; active_cells } ->
      let code =
        Db_tensor.Ops.associative_encode ~cells_per_dim ~active_cells
          (dequantize fmt (flat (one ())))
      in
      let n = Tensor.numel code in
      let out = slot out n in
      Fixed.quantize_into fmt code out;
      { qshape = Tensor.shape code; qdata = out }
  | Layer.Concat -> qconcat ~out bottoms
  | Layer.Classifier { top_k } -> qclassifier ~top_k ~out (flat (one ()))
  | Layer.Backward _ | Layer.Sgd_update _ ->
      fail "training op %s is not a forward layer" (Layer.name layer)

let forward ?(eval = exact_eval) ~fmt net params ~inputs =
  let env = ref [] in
  let blob name =
    match List.assoc_opt name !env with
    | Some t -> t
    | None -> fail "blob %S not available" name
  in
  Network.iter net (fun node ->
      let out =
        match node.Network.layer with
        | Layer.Input { shape } -> begin
            match node.Network.tops with
            | [ top ] -> begin
                match List.assoc_opt top inputs with
                | Some t ->
                    if not (Shape.equal (Tensor.shape t) shape) then
                      fail "input %S: shape mismatch" top;
                    quantize fmt t
                | None -> fail "missing input tensor for blob %S" top
              end
            | [] | _ :: _ :: _ -> fail "input node must have exactly one top"
          end
        | layer ->
            let bottoms = List.map blob node.Network.bottoms in
            let qparams =
              List.map (quantize fmt) (Params.get params node.Network.node_name)
            in
            eval_node fmt eval layer ~params:qparams ~bottoms ~out:[||]
      in
      List.iter (fun top -> env := (top, out) :: !env) node.Network.tops);
  List.rev !env

let qoutput ?(eval = exact_eval) ~fmt net params ~inputs =
  let env = forward ~eval ~fmt net params ~inputs in
  match Network.output_blobs net with
  | [ blob ] -> begin
      match List.assoc_opt blob env with
      | Some q -> q
      | None -> fail "output blob missing from environment"
    end
  | blobs -> fail "network has %d output blobs, expected one" (List.length blobs)

let output ?eval ~fmt net params ~inputs =
  let q = qoutput ?eval ~fmt net params ~inputs in
  (* Classifier outputs carry integer indices, not Q-format values. *)
  if Network.classifier_output net then
    Tensor.of_array q.qshape (Array.map float_of_int q.qdata)
  else dequantize fmt q
