module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Ops = Db_tensor.Ops
module Op = Db_ir.Op

let fail fmt = Db_util.Error.failf_at ~component:"backprop" fmt

(* Tensor buffers are float64 Bigarrays; rebind flat indexing so the
   gradient kernels below read exactly like the forward ones.  The
   operators must be [external] redeclarations of the Bigarray
   primitives: a [let]-alias of [Array1.get] compiles (without flambda)
   to an out-of-line C call that boxes every float, which is a ~7x
   slowdown across the whole trainer. *)
external ( .%() ) :
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  float = "%caml_ba_ref_1"

external ( .%()<- ) :
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  float ->
  unit = "%caml_ba_set_1"

type cache = {
  c_op : Op.t;
  c_params : Tensor.t list;
  c_input : Tensor.t;
  c_output : Tensor.t;
}

let supported = function
  | Op.Conv _ | Op.Pool _ | Op.Global_pool _ | Op.Fc _ | Op.Act _
  | Op.Dropout _ | Op.Softmax | Op.Associative _ | Op.Lrn _ ->
      true
  | Op.Input _ | Op.Lcn _ | Op.Recurrent _ | Op.Concat | Op.Classifier _
  | Op.Backward _ | Op.Sgd_update _ ->
      false

let forward_op ~op ~params ~input =
  let output = Db_ir.Interp.eval_op op ~params ~bottoms:[ input ] in
  (output, { c_op = op; c_params = params; c_input = input; c_output = output })

(* dL/dx and dL/dW for a convolution, direct nested loops mirroring the
   forward pass: for each output position, route grad into the receptive
   field and the kernel taps. *)
let conv_backward ~input ~weights ~stride ~pad ~group ~grad_output ~has_bias =
  let ish = Tensor.shape input and wsh = Tensor.shape weights in
  let h = Shape.dim ish 1 and w = Shape.dim ish 2 in
  let cout = Shape.dim wsh 0 and cin_g = Shape.dim wsh 1 and k = Shape.dim wsh 2 in
  let osh = Tensor.shape grad_output in
  let oh = Shape.dim osh 1 and ow = Shape.dim osh 2 in
  let gx = Tensor.create ish in
  let gw = Tensor.create wsh in
  let gb = Tensor.create (Shape.vector cout) in
  let idata = Tensor.data input
  and wdata = Tensor.data weights
  and godata = Tensor.data grad_output
  and gxdata = Tensor.data gx
  and gwdata = Tensor.data gw
  and gbdata = Tensor.data gb in
  let cout_g = cout / group in
  (* Two disjoint-write passes so the pool can split the work without
     racing: gw/gb are owned by the output channel, gx by the input
     channel.  Each pass keeps the original loop nesting (oc, oy, ox, ky,
     kx ascending), so every gradient element accumulates its terms in the
     same order as the single sequential pass — results are bitwise
     unchanged for any pool width. *)
  let conv_work = cout * oh * ow * cin_g * k * k in
  Db_parallel.Pool.parallel_for ~work:conv_work ~lo:0 ~hi:cout (fun oc ->
      let g = oc / cout_g in
      let base_ic = g * cin_g in
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let go = godata.%((oc * oh * ow) + (oy * ow) + ox) in
          gbdata.%(oc) <- gbdata.%(oc) +. go;
          for ic = 0 to cin_g - 1 do
            for ky = 0 to k - 1 do
              let iy = (oy * stride) + ky - pad in
              if iy >= 0 && iy < h then
                for kx = 0 to k - 1 do
                  let ix = (ox * stride) + kx - pad in
                  if ix >= 0 && ix < w then begin
                    let ii = ((base_ic + ic) * h * w) + (iy * w) + ix in
                    let wi = (((oc * cin_g) + ic) * k * k) + (ky * k) + kx in
                    gwdata.%(wi) <- gwdata.%(wi) +. (idata.%(ii) *. go)
                  end
                done
            done
          done
        done
      done);
  Db_parallel.Pool.parallel_for ~work:conv_work ~lo:0 ~hi:(group * cin_g)
    (fun gc ->
      let g = gc / cin_g in
      let ic = gc - (g * cin_g) in
      for oc = g * cout_g to ((g + 1) * cout_g) - 1 do
        for oy = 0 to oh - 1 do
          for ox = 0 to ow - 1 do
            let go = godata.%((oc * oh * ow) + (oy * ow) + ox) in
            for ky = 0 to k - 1 do
              let iy = (oy * stride) + ky - pad in
              if iy >= 0 && iy < h then
                for kx = 0 to k - 1 do
                  let ix = (ox * stride) + kx - pad in
                  if ix >= 0 && ix < w then begin
                    let ii = (gc * h * w) + (iy * w) + ix in
                    let wi = (((oc * cin_g) + ic) * k * k) + (ky * k) + kx in
                    gxdata.%(ii) <- gxdata.%(ii) +. (wdata.%(wi) *. go)
                  end
                done
            done
          done
        done
      done);
  (gx, if has_bias then [ gw; gb ] else [ gw ])

let max_pool_backward ~input ~kernel ~stride ~grad_output =
  let ish = Tensor.shape input in
  let c = Shape.dim ish 0 and h = Shape.dim ish 1 and w = Shape.dim ish 2 in
  let osh = Tensor.shape grad_output in
  let oh = Shape.dim osh 1 and ow = Shape.dim osh 2 in
  let gx = Tensor.create ish in
  let idata = Tensor.data input
  and godata = Tensor.data grad_output
  and gxdata = Tensor.data gx in
  Db_parallel.Pool.parallel_for ~work:(c * oh * ow * kernel * kernel) ~lo:0
    ~hi:c (fun ch ->
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          (* Route the gradient to the argmax of the window (first on ties,
             like the forward max). *)
          let best = ref neg_infinity and best_i = ref (-1) in
          for ky = 0 to kernel - 1 do
            for kx = 0 to kernel - 1 do
              let ii = (ch * h * w) + (((oy * stride) + ky) * w) + (ox * stride) + kx in
              if idata.%(ii) > !best then begin best := idata.%(ii); best_i := ii end
            done
          done;
          gxdata.%(!best_i) <-
            gxdata.%(!best_i) +. godata.%((ch * oh * ow) + (oy * ow) + ox)
        done
      done);
  gx

let avg_pool_backward ~input ~kernel ~stride ~grad_output =
  let ish = Tensor.shape input in
  let c = Shape.dim ish 0 and h = Shape.dim ish 1 and w = Shape.dim ish 2 in
  let osh = Tensor.shape grad_output in
  let oh = Shape.dim osh 1 and ow = Shape.dim osh 2 in
  let gx = Tensor.create ish in
  let godata = Tensor.data grad_output and gxdata = Tensor.data gx in
  let inv_area = 1.0 /. float_of_int (kernel * kernel) in
  Db_parallel.Pool.parallel_for ~work:(c * oh * ow * kernel * kernel) ~lo:0
    ~hi:c (fun ch ->
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let go = godata.%((ch * oh * ow) + (oy * ow) + ox) *. inv_area in
          for ky = 0 to kernel - 1 do
            for kx = 0 to kernel - 1 do
              let ii = (ch * h * w) + (((oy * stride) + ky) * w) + (ox * stride) + kx in
              gxdata.%(ii) <- gxdata.%(ii) +. go
            done
          done
        done
      done);
  gx

let backward_layer cache ~grad_output =
  match cache.c_op with
  | Op.Conv { stride; pad; group; bias; _ } -> begin
      match cache.c_params with
      | weights :: _ ->
          let gx, gps =
            conv_backward ~input:cache.c_input ~weights ~stride ~pad ~group
              ~grad_output ~has_bias:bias
          in
          (Some gx, gps)
      | [] -> fail "convolution cache without weights"
    end
  | Op.Pool { method_ = Op.Max_pool; kernel_size; stride } ->
      (Some (max_pool_backward ~input:cache.c_input ~kernel:kernel_size ~stride ~grad_output), [])
  | Op.Pool { method_ = Op.Avg_pool; kernel_size; stride } ->
      (Some (avg_pool_backward ~input:cache.c_input ~kernel:kernel_size ~stride ~grad_output), [])
  | Op.Global_pool Op.Avg_pool ->
      let ish = Tensor.shape cache.c_input in
      let c = Shape.channels ish in
      let hw = Tensor.numel cache.c_input / c in
      let gx = Tensor.create ish in
      for ch = 0 to c - 1 do
        let go = Tensor.get grad_output ch /. float_of_int hw in
        for i = 0 to hw - 1 do
          Tensor.set gx ((ch * hw) + i) go
        done
      done;
      (Some gx, [])
  | Op.Global_pool Op.Max_pool ->
      let ish = Tensor.shape cache.c_input in
      let c = Shape.channels ish in
      let hw = Tensor.numel cache.c_input / c in
      let gx = Tensor.create ish in
      for ch = 0 to c - 1 do
        let best = ref neg_infinity and best_i = ref (-1) in
        for i = 0 to hw - 1 do
          let v = Tensor.get cache.c_input ((ch * hw) + i) in
          if v > !best then begin best := v; best_i := (ch * hw) + i end
        done;
        Tensor.set gx !best_i (Tensor.get grad_output ch)
      done;
      (Some gx, [])
  | Op.Fc { bias; _ } -> begin
      match cache.c_params with
      | weights :: _ ->
          let nout = Shape.dim (Tensor.shape weights) 0
          and nin = Shape.dim (Tensor.shape weights) 1 in
          let x = Ops.flatten cache.c_input in
          let gw = Tensor.create (Tensor.shape weights) in
          let gx = Tensor.create (Tensor.shape x) in
          let wdata = Tensor.data weights
          and xdata = Tensor.data x
          and godata = Tensor.data grad_output
          and gwdata = Tensor.data gw
          and gxdata = Tensor.data gx in
          (* gw rows are owned by o; gx elements by i.  The i-block pass
             keeps o as the outer loop so each gx element still sums its
             terms in ascending-o order, exactly as the single o-loop did. *)
          Db_parallel.Pool.parallel_for ~work:(nout * nin) ~lo:0 ~hi:nout
            (fun o ->
              let go = godata.%(o) in
              for i = 0 to nin - 1 do
                gwdata.%((o * nin) + i) <-
                  gwdata.%((o * nin) + i) +. (go *. xdata.%(i))
              done);
          let block = 256 in
          let nblocks = (nin + block - 1) / block in
          Db_parallel.Pool.parallel_for ~work:(nout * nin) ~lo:0 ~hi:nblocks
            (fun bi ->
              let s = bi * block and e = Stdlib.min nin ((bi + 1) * block) in
              for o = 0 to nout - 1 do
                let go = godata.%(o) in
                for i = s to e - 1 do
                  gxdata.%(i) <- gxdata.%(i) +. (go *. wdata.%((o * nin) + i))
                done
              done);
          let gx = Tensor.reshape gx (Tensor.shape cache.c_input) in
          (Some gx, if bias then [ gw; Tensor.copy grad_output ] else [ gw ])
      | [] -> fail "inner product cache without weights"
    end
  | Op.Act Op.Relu ->
      ( Some
          (Tensor.map2
             (fun x g -> if x > 0.0 then g else 0.0)
             cache.c_input grad_output),
        [] )
  | Op.Act Op.Sigmoid ->
      ( Some
          (Tensor.map2 (fun y g -> g *. y *. (1.0 -. y)) cache.c_output grad_output),
        [] )
  | Op.Act Op.Tanh ->
      (Some (Tensor.map2 (fun y g -> g *. (1.0 -. (y *. y))) cache.c_output grad_output), [])
  | Op.Act Op.Sign ->
      (* Straight-through estimator. *)
      (Some (Tensor.copy grad_output), [])
  | Op.Dropout _ -> (Some (Tensor.copy grad_output), [])
  | Op.Softmax ->
      (* dL/dx_i = y_i * (g_i - sum_j g_j y_j) *)
      let y = cache.c_output in
      let s = Tensor.dot grad_output y in
      (Some (Tensor.map2 (fun yi gi -> yi *. (gi -. s)) y grad_output), [])
  | Op.Lrn { local_size; alpha; beta; k } ->
      (* Frozen-denominator approximation: treat each position's scale as a
         constant, so dx = g / scale^beta (exact when alpha is small, as in
         the AlexNet/MNIST settings used here). *)
      let ish = Tensor.shape cache.c_input in
      let c = Shape.dim ish 0 and h = Shape.dim ish 1 and w = Shape.dim ish 2 in
      let half = local_size / 2 in
      let gx = Tensor.create ish in
      let idata = Tensor.data cache.c_input
      and godata = Tensor.data grad_output
      and gxdata = Tensor.data gx in
      Db_parallel.Pool.parallel_for ~work:(c * h * w * local_size) ~lo:0
        ~hi:c (fun ch ->
          let lo = Stdlib.max 0 (ch - half)
          and hi = Stdlib.min (c - 1) (ch + half) in
          for y = 0 to h - 1 do
            for x = 0 to w - 1 do
              let sq = ref 0.0 in
              for j = lo to hi do
                let v = idata.%((j * h * w) + (y * w) + x) in
                sq := !sq +. (v *. v)
              done;
              let scale = k +. (alpha /. float_of_int local_size *. !sq) in
              let i = (ch * h * w) + (y * w) + x in
              gxdata.%(i) <- godata.%(i) /. (scale ** beta)
            done
          done);
      (Some gx, [])
  | Op.Associative _ -> (None, [])
  | Op.Input _ | Op.Lcn _ | Op.Recurrent _ | Op.Concat | Op.Classifier _
  | Op.Backward _ | Op.Sgd_update _ ->
      fail "op %s is not differentiable here" (Op.name cache.c_op)
