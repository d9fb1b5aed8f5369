(* Interval abstract interpretation of the fixed-point datapath.

   Starting from the declared input range, per-tensor value intervals are
   pushed through every [Op.t] of the lowered graph: convolutions and
   fully-connected layers via signed-magnitude interval dot products over
   the actual weight/bias parameters (or, when no parameters exist yet,
   over the Xavier-initialisation magnitude bound implied by the layer's
   fan), and every other operator via a sound transfer function of its
   float semantics.

   Two parallel chains are maintained per tensor:

   - [exact]: the float-semantics interval, unclamped.  The dynamic
     interpreter's observed ranges are always enclosed by it (the
     enclosure property tests in test/test_check.ml).
   - [stored]: the interval of values the quantized datapath can hold
     after each layer's write-back.  [Quantized.rescale_acc] saturates
     every stored value into the constraint's [Fixed.format], so this
     chain clamps at every node — it is what bounds the *accumulator
     input* of the next layer and hence the minimal accumulator width.

   Severity policy (the zoo must pass --strict with zero errors):
   - errors are reserved for provable configuration bugs: a declared
     input range the format cannot represent (DB-R001), parameter
     magnitudes beyond the representable range (DB-R002), and a required
     accumulator wider than the 62-bit simulator-safe limit (DB-R003);
   - warnings fire on conditions under the user's direct control with
     under one bit of headroom left (DB-R004) and on calibration
     clamping away every fraction bit (DB-R006);
   - a propagated interval escaping the format mid-network is reported
     once as *info* (DB-R005): saturation is possible, the range proof is
     lost from that layer on, but the saturating write-back keeps the
     hardware well-defined — deep networks routinely hit this and it must
     not fail the strict gate. *)

module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Fixed = Db_fixed.Fixed
module Op = Db_ir.Op
module Graph = Db_ir.Graph
module D = Db_analysis.Diagnostic

let fail fmt = Db_util.Error.failf_at ~component:"range-check" fmt

(* Tensor buffers are float64 Bigarrays; rebind flat indexing for the
   weight/bias tap readers below ([external] so the primitive inlines
   instead of going through a boxing C stub). *)
external ( .%() ) :
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  int ->
  float = "%caml_ba_ref_1"

let code_input_escape = "DB-R001"

let code_param_escape = "DB-R002"

let code_acc_width = "DB-R003"

let code_headroom = "DB-R004"

let code_saturation = "DB-R005"

let code_frac_clamp = "DB-R006"

(* The dynamic engines hold wide accumulators in OCaml ints; one sign bit
   above 62 data bits is the last width whose arithmetic stays exact. *)
let acc_bits_limit = 62

let default_input = Interval.make ~lo:(-1.0) ~hi:1.0

type layer_range = {
  lr_node : string;
  lr_op : string;
  lr_blob : string;
  lr_exact : Interval.t;
  lr_stored : Interval.t;
  lr_proven : bool;
  lr_acc_bits : int option;
}

type report = {
  rp_fmt : Fixed.format;
  rp_input : Interval.t;
  rp_layers : layer_range list;
  rp_min_acc_bits : int;
  rp_diags : D.t list;
}

let blob_interval report blob =
  List.find_map
    (fun lr -> if lr.lr_blob = blob then Some lr.lr_exact else None)
    report.rp_layers

let layer_acc_bits report =
  List.filter_map
    (fun lr -> Option.map (fun b -> (lr.lr_node, b)) lr.lr_acc_bits)
    report.rp_layers

(* --- weighted-layer bounds ----------------------------------------------- *)

(* Interval dot product of one layer: [units] output units, each summing
   [taps] products of a weight with an input drawn from [x], plus a bias.
   [include_zero] widens every term with 0 — sound for windows that clip
   taps away at padded borders.  Also returns the magnitudes the
   accumulator-width and representability checks need. *)
type weighted = {
  wb_out : Interval.t;
  wb_taps : int;
  wb_max_abs_w : float;
  wb_max_sum_abs_w : float;
  wb_max_abs_b : float;
}

let weighted_bounds ~include_zero ~units ~taps ~tap ~bias (x : Interval.t) =
  if units <= 0 || taps <= 0 then fail "weighted layer with no units or taps";
  let out_lo = ref infinity and out_hi = ref neg_infinity in
  let max_w = ref 0.0 and max_sum = ref 0.0 and max_b = ref 0.0 in
  for u = 0 to units - 1 do
    let hi = ref 0.0 and lo = ref 0.0 and sum_abs = ref 0.0 in
    for i = 0 to taps - 1 do
      let w = tap u i in
      let th = Interval.term_hi x w and tl = Interval.term_lo x w in
      if include_zero then begin
        hi := !hi +. Float.max 0.0 th;
        lo := !lo +. Float.min 0.0 tl
      end
      else begin
        hi := !hi +. th;
        lo := !lo +. tl
      end;
      sum_abs := !sum_abs +. Float.abs w;
      max_w := Float.max !max_w (Float.abs w)
    done;
    let b = bias u in
    max_b := Float.max !max_b (Float.abs b);
    max_sum := Float.max !max_sum !sum_abs;
    out_hi := Float.max !out_hi (!hi +. b);
    out_lo := Float.min !out_lo (!lo +. b)
  done;
  {
    wb_out = Interval.make ~lo:!out_lo ~hi:!out_hi;
    wb_taps = taps;
    wb_max_abs_w = !max_w;
    wb_max_sum_abs_w = !max_sum;
    wb_max_abs_b = !max_b;
  }

(* No parameters yet (the generator gate): bound every weight by the
   Xavier-initialisation magnitude sqrt(6 / (fan_in + fan_out)) implied by
   the parameter shape, biases by zero — exactly the distribution
   [Params.init_xavier] draws from, so any Xavier-initialised network's
   true intervals are enclosed. *)
let xavier_bound shape =
  let fan_in, fan_out =
    match Shape.to_list shape with
    | [ nout; nin ] -> (nin, nout)
    | [ cout; cin; kh; kw ] -> (cin * kh * kw, cout * kh * kw)
    | dims ->
        let n = List.fold_left ( * ) 1 dims in
        (n, n)
  in
  sqrt (6.0 /. float_of_int (Stdlib.max 1 (fan_in + fan_out)))

let assumed_bounds ~taps ~weight_bound (x : Interval.t) =
  if taps <= 0 then fail "weighted layer with no taps";
  let m = float_of_int taps *. weight_bound *. Interval.abs_max x in
  {
    wb_out = Interval.make ~lo:(-.m) ~hi:m;
    wb_taps = taps;
    wb_max_abs_w = weight_bound;
    wb_max_sum_abs_w = float_of_int taps *. weight_bound;
    wb_max_abs_b = 0.0;
  }

(* Minimal accumulator width of one layer's quantized dot product: the
   wide accumulator holds sums of int products at 2*frac_bits scale plus
   the bias shifted up by frac_bits ([Quantized.rescale_acc]'s input).
   Every quantized magnitude carries the half-LSB rounding slack. *)
let acc_bits_of fmt wb (x_stored : Interval.t) =
  let f = float_of_int (1 lsl fmt.Fixed.frac_bits) in
  let xq_cap = float_of_int (1 lsl (fmt.Fixed.total_bits - 1)) in
  let xq =
    Float.min xq_cap (Float.round (Interval.abs_max x_stored *. f) +. 1.0)
  in
  let sum_wq =
    (wb.wb_max_sum_abs_w *. f) +. (0.5 *. float_of_int wb.wb_taps)
  in
  let bias_q = ((wb.wb_max_abs_b *. f) +. 0.5) *. f in
  Fixed.signed_bits_for ((sum_wq *. xq) +. bias_q)

(* --- per-op transfer functions ------------------------------------------- *)

let act_interval act (x : Interval.t) =
  match act with
  | Op.Relu ->
      Interval.make
        ~lo:(Float.max 0.0 x.Interval.lo)
        ~hi:(Float.max 0.0 x.Interval.hi)
  | Op.Sigmoid ->
      Interval.clamp
        (Interval.monotone (fun v -> 1.0 /. (1.0 +. exp (-.v))) x)
        ~lo:0.0 ~hi:1.0
  | Op.Tanh ->
      Interval.clamp (Interval.monotone Float.tanh x) ~lo:(-1.0) ~hi:1.0
  | Op.Sign ->
      if x.Interval.lo >= 0.0 then Interval.point 1.0
      else if x.Interval.hi < 0.0 then Interval.point (-1.0)
      else Interval.make ~lo:(-1.0) ~hi:1.0

(* LRN divides by (k + alpha/n * sum v^2)^beta >= k^beta: magnitudes scale
   by at most k^-beta and signs are preserved. *)
let lrn_interval ~k ~beta (x : Interval.t) =
  if k <= 0.0 || beta < 0.0 then Interval.top
  else begin
    let s = k ** -.beta in
    let lo = if x.Interval.lo >= 0.0 then 0.0 else x.Interval.lo *. s in
    let hi = if x.Interval.hi <= 0.0 then 0.0 else x.Interval.hi *. s in
    Interval.make ~lo ~hi
  end

(* LCN subtracts a window mean and divides by a std floored at epsilon:
   |out| <= (hi - lo) / epsilon. *)
let lcn_interval ~epsilon (x : Interval.t) =
  if epsilon <= 0.0 then Interval.top
  else begin
    let b = Interval.width x /. epsilon in
    Interval.make ~lo:(-.b) ~hi:b
  end

(* --- the analysis -------------------------------------------------------- *)

type mode = Actual of Db_nn.Params.t | Assumed

let weight_source mode (node : Graph.node) =
  match mode with
  | Assumed -> None
  | Actual params -> begin
      match Db_nn.Params.get params node.Graph.node_name with
      | [] -> None
      | tensors -> Some tensors
    end

let conv_bounds mode (node : Graph.node) ~num_output ~kernel_size ~pad ~group
    ~has_bias x =
  let bottom =
    match node.Graph.in_shapes with
    | b :: _ -> b
    | [] -> fail "%s: convolution with no bottom shape" node.Graph.node_name
  in
  let cin_g = Shape.channels bottom / Stdlib.max 1 group in
  let taps = cin_g * kernel_size * kernel_size in
  match weight_source mode node with
  | Some (w :: rest) ->
      let wdata = Tensor.data w in
      let bdata =
        match rest, has_bias with
        | b :: _, true -> Some (Tensor.data b)
        | _ -> None
      in
      weighted_bounds ~include_zero:(pad > 0) ~units:num_output ~taps
        ~tap:(fun u i -> wdata.%((u * taps) + i))
        ~bias:(fun u -> match bdata with Some b -> b.%(u) | None -> 0.0)
        x
  | Some [] | None -> begin
      match node.Graph.param_shapes with
      | shape :: _ -> assumed_bounds ~taps ~weight_bound:(xavier_bound shape) x
      | [] -> assumed_bounds ~taps ~weight_bound:1.0 x
    end

let fc_bounds mode (node : Graph.node) ~num_output ~has_bias x =
  let taps =
    match node.Graph.in_shapes with
    | b :: _ -> Shape.numel b
    | [] -> fail "%s: FC with no bottom shape" node.Graph.node_name
  in
  match weight_source mode node with
  | Some (w :: rest) ->
      let wdata = Tensor.data w in
      let bdata =
        match rest, has_bias with
        | b :: _, true -> Some (Tensor.data b)
        | _ -> None
      in
      weighted_bounds ~include_zero:false ~units:num_output ~taps
        ~tap:(fun u i -> wdata.%((u * taps) + i))
        ~bias:(fun u -> match bdata with Some b -> b.%(u) | None -> 0.0)
        x
  | Some [] | None -> begin
      match node.Graph.param_shapes with
      | shape :: _ -> assumed_bounds ~taps ~weight_bound:(xavier_bound shape) x
      | [] -> assumed_bounds ~taps ~weight_bound:1.0 x
    end

(* The recurrent unit drives tanh(W_in x + W_rec s + b) with the state s
   already squashed into [-1, 1] (and 0 initially). *)
let recurrent_bounds mode (node : Graph.node) ~num_output ~has_bias x =
  let nin =
    match node.Graph.in_shapes with
    | b :: _ -> Shape.numel b
    | [] -> fail "%s: recurrent with no bottom shape" node.Graph.node_name
  in
  let state = Interval.make ~lo:(-1.0) ~hi:1.0 in
  let drive =
    match weight_source mode node with
    | Some (w_in :: w_rec :: rest) ->
        let win = Tensor.data w_in and wrec = Tensor.data w_rec in
        let bdata =
          match rest, has_bias with
          | b :: _, true -> Some (Tensor.data b)
          | _ -> None
        in
        let taps = nin + num_output in
        weighted_bounds ~include_zero:false ~units:num_output ~taps
          ~tap:(fun u i ->
            if i < nin then win.%((u * nin) + i)
            else wrec.%((u * num_output) + i - nin))
          ~bias:(fun u -> match bdata with Some b -> b.%(u) | None -> 0.0)
          (Interval.join x state)
    | Some _ | None -> begin
        let bound =
          match node.Graph.param_shapes with
          | shape :: _ -> xavier_bound shape
          | [] -> 1.0
        in
        assumed_bounds ~taps:(nin + num_output) ~weight_bound:bound
          (Interval.join x state)
      end
  in
  { drive with wb_out = act_interval Op.Tanh drive.wb_out }

(* One step of the abstract interpreter: the output interval of [node]
   given its input intervals, plus the weighted-layer magnitudes when the
   node owns parameters. *)
let transfer mode (node : Graph.node) (ins : Interval.t list) =
  let one () =
    match ins with
    | [ x ] -> x
    | x :: _ -> x
    | [] -> fail "%s: operator with no inputs" node.Graph.node_name
  in
  match node.Graph.op with
  | Op.Input _ -> fail "input nodes carry the declared interval"
  | Op.Conv { num_output; kernel_size; pad; group; bias; _ } ->
      let wb =
        conv_bounds mode node ~num_output ~kernel_size ~pad ~group
          ~has_bias:bias (one ())
      in
      (wb.wb_out, Some wb)
  | Op.Fc { num_output; bias; _ } ->
      let wb = fc_bounds mode node ~num_output ~has_bias:bias (one ()) in
      (wb.wb_out, Some wb)
  | Op.Recurrent { num_output; bias; _ } ->
      let wb = recurrent_bounds mode node ~num_output ~has_bias:bias (one ()) in
      (wb.wb_out, Some wb)
  | Op.Pool _ | Op.Global_pool _ ->
      (* Max picks an input value; average is a convex combination. *)
      (one (), None)
  | Op.Act act -> (act_interval act (one ()), None)
  | Op.Lrn { beta; k; _ } -> (lrn_interval ~k ~beta (one ()), None)
  | Op.Lcn { epsilon; _ } -> (lcn_interval ~epsilon (one ()), None)
  | Op.Dropout _ ->
      (* Inference-time dropout is the identity. *)
      (one (), None)
  | Op.Softmax -> (Interval.make ~lo:0.0 ~hi:1.0, None)
  | Op.Associative { active_cells; _ } ->
      (Interval.make ~lo:0.0 ~hi:(1.0 /. float_of_int (Stdlib.max 1 active_cells)), None)
  | Op.Concat -> (Interval.hull ins, None)
  | Op.Classifier _ ->
      let n =
        match node.Graph.in_shapes with
        | b :: _ -> Shape.numel b
        | [] -> 1
      in
      (Interval.make ~lo:0.0 ~hi:(float_of_int (Stdlib.max 1 (n - 1))), None)
  | Op.Backward _ | Op.Sgd_update _ ->
      (* Gradient accumulators are sized from the *forward* graph's DB-R003
         proof ([Db_core.Train_builder]); interval analysis itself only
         runs on inference graphs. *)
      fail "range analysis runs on the forward graph; %s is a training op"
        (Op.name node.Graph.op)

let analyze ?params ?(input = default_input) ~fmt (g : Graph.t) =
  let mode = match params with Some p -> Actual p | None -> Assumed in
  let lo_f = Fixed.min_float fmt and hi_f = Fixed.max_float fmt in
  let half_lsb = Fixed.resolution fmt /. 2.0 in
  let diags = ref [] in
  let diag code severity ?item msg =
    diags := D.v ~code ~severity ~scope:g.Graph.graph_name ?item msg :: !diags
  in
  let exact_env : (string, Interval.t) Hashtbl.t = Hashtbl.create 32 in
  let stored_env : (string, Interval.t) Hashtbl.t = Hashtbl.create 32 in
  let proven_env : (string, bool) Hashtbl.t = Hashtbl.create 32 in
  let lookup env blob node =
    match Hashtbl.find_opt env blob with
    | Some i -> i
    | None -> fail "%s: blob %S has no interval (graph not in def order)" node blob
  in
  let saturation_reported = ref false in
  let layers = ref [] in
  let min_acc = ref 0 in
  let input_fits = Fixed.fits_float fmt input.Interval.lo
                   && Fixed.fits_float fmt input.Interval.hi in
  Graph.iter g (fun node ->
      let name = node.Graph.node_name in
      if Op.is_input node.Graph.op then begin
        if not input_fits then
          diag code_input_escape D.Error ~item:name
            (Printf.sprintf
               "declared input interval %s escapes %s ([%g, %g]): every \
                out-of-range sample saturates before the first layer"
               (Interval.to_string input)
               (Format.asprintf "%a" Fixed.pp_format fmt)
               lo_f hi_f)
        else if Fixed.headroom_bits fmt (Interval.abs_max input) < 1.0 then
          diag code_headroom D.Warning ~item:name
            (Printf.sprintf
               "declared input interval %s leaves under 1 bit of headroom \
                in %s (max representable %g)"
               (Interval.to_string input)
               (Format.asprintf "%a" Fixed.pp_format fmt)
               hi_f);
        let stored = Interval.clamp input ~lo:lo_f ~hi:hi_f in
        List.iter
          (fun top ->
            Hashtbl.replace exact_env top input;
            Hashtbl.replace stored_env top stored;
            Hashtbl.replace proven_env top input_fits)
          node.Graph.outputs;
        layers :=
          {
            lr_node = name;
            lr_op = Op.name node.Graph.op;
            lr_blob = (match node.Graph.outputs with b :: _ -> b | [] -> name);
            lr_exact = input;
            lr_stored = stored;
            lr_proven = input_fits;
            lr_acc_bits = None;
          }
          :: !layers
      end
      else begin
        let exact_ins =
          List.map (fun b -> lookup exact_env b name) node.Graph.inputs
        in
        let stored_ins =
          List.map (fun b -> lookup stored_env b name) node.Graph.inputs
        in
        let ins_proven =
          List.for_all (fun b -> lookup proven_env b name) node.Graph.inputs
        in
        let exact_raw, wb_exact = transfer mode node exact_ins in
        let stored_raw, wb_stored = transfer mode node stored_ins in
        let exact = Interval.widen exact_raw in
        let stored =
          let w = Interval.widen stored_raw in
          Interval.clamp
            (Interval.make
               ~lo:(w.Interval.lo -. half_lsb)
               ~hi:(w.Interval.hi +. half_lsb))
            ~lo:lo_f ~hi:hi_f
        in
        (* Parameter representability (actual magnitudes, or the assumed
           Xavier bound). *)
        (match wb_exact with
        | Some wb ->
            let pmax = Float.max wb.wb_max_abs_w wb.wb_max_abs_b in
            if pmax > hi_f then
              diag code_param_escape D.Error ~item:name
                (Printf.sprintf
                   "parameter magnitude %g exceeds the representable range \
                    of %s (max %g): weights saturate at quantization"
                   pmax
                   (Format.asprintf "%a" Fixed.pp_format fmt)
                   hi_f)
            else if pmax > 0.0 && Fixed.headroom_bits fmt pmax < 1.0 then
              diag code_headroom D.Warning ~item:name
                (Printf.sprintf
                   "parameter magnitude %g leaves under 1 bit of headroom \
                    in %s" pmax
                   (Format.asprintf "%a" Fixed.pp_format fmt))
        | None -> ());
        (* Accumulator width of the quantized dot product, bounded by the
           *stored* (write-back-saturated) input interval. *)
        let acc_bits =
          match wb_stored with
          | Some wb ->
              let bits =
                acc_bits_of fmt wb (Interval.hull stored_ins)
              in
              if bits > acc_bits_limit then
                diag code_acc_width D.Error ~item:name
                  (Printf.sprintf
                     "layer needs a %d-bit accumulator, over the %d-bit \
                      exact-arithmetic limit of the simulation path"
                     bits acc_bits_limit);
              min_acc := Stdlib.max !min_acc bits;
              Some bits
          | None -> None
        in
        let fits =
          Interval.is_finite exact
          && Fixed.fits_float fmt exact.Interval.lo
          && Fixed.fits_float fmt exact.Interval.hi
        in
        let proven = ins_proven && fits in
        if ins_proven && (not fits) && not !saturation_reported then begin
          saturation_reported := true;
          diag code_saturation D.Info ~item:name
            (Printf.sprintf
               "propagated interval %s escapes %s at layer %S: saturation \
                is possible and the range proof is lost downstream (the \
                saturating write-back keeps values in [%g, %g])"
               (Interval.to_string exact)
               (Format.asprintf "%a" Fixed.pp_format fmt)
               name lo_f hi_f)
        end;
        List.iter
          (fun top ->
            Hashtbl.replace exact_env top exact;
            Hashtbl.replace stored_env top stored;
            Hashtbl.replace proven_env top proven)
          node.Graph.outputs;
        layers :=
          {
            lr_node = name;
            lr_op = Op.name node.Graph.op;
            lr_blob = (match node.Graph.outputs with b :: _ -> b | [] -> name);
            lr_exact = exact;
            lr_stored = stored;
            lr_proven = proven;
            lr_acc_bits = acc_bits;
          }
          :: !layers
      end);
  {
    rp_fmt = fmt;
    rp_input = input;
    rp_layers = List.rev !layers;
    rp_min_acc_bits = !min_acc;
    rp_diags = D.sort (List.rev !diags);
  }

let min_acc_bits ?params ?input ~fmt g =
  (analyze ?params ?input ~fmt g).rp_min_acc_bits

(* A Q-format point is infeasible for design-space search when it cannot
   even represent the canonical [-1, 1] input range: every sample would
   saturate before the first MAC, so costing the point is wasted work. *)
let format_feasibility fmt =
  if Fixed.max_float fmt < 1.0 then
    Error
      (Printf.sprintf
         "max representable value %g cannot hold the canonical [-1, 1] \
          input range" (Fixed.max_float fmt))
  else Ok ()

(* Surfaced by [Calibration.choose_format] when the profiled magnitude
   forces the fraction entirely out of the word. *)
let frac_clamp_diag ~total_bits ~max_abs =
  D.v ~code:code_frac_clamp ~severity:D.Warning ~scope:"calibration"
    (Printf.sprintf
       "profiled magnitude %g forces 0 fraction bits in a %d-bit word: the \
        chosen format has integer resolution only; widen the word or \
        rescale the model" max_abs total_bits)
