(* Property tests for the specialized simulation engine (DESIGN.md §14):
   for every zoo model, the compiled-trace replay must be bitwise-identical
   to the generic engine — output tensors, sim.*/agu.* observability
   counters, and control-replay cycles — at any pool width, and the batched
   entry point must reproduce the per-sample results exactly.  These are
   the properties the fault campaign's [Specialized] engine relies on. *)

module Simulator = Db_sim.Simulator
module Specialize = Db_sim.Specialize
module Constraints = Db_core.Constraints
module Design_cache = Db_core.Design_cache
module Zoo = Db_workloads.Model_zoo
module Network = Db_nn.Network
module Layer = Db_nn.Layer
module Params = Db_nn.Params
module Tensor = Db_tensor.Tensor
module Pool = Db_parallel.Pool
module Obs = Db_obs.Obs
module Quantized = Db_nn.Quantized
module Fixed = Db_fixed.Fixed
module Shape = Db_tensor.Shape
module Rng = Db_util.Rng
module Compiler = Db_core.Compiler

(* Every model the zoo serves by name (the `ir`/`lint` gates enumerate the
   same twelve) plus the trainable CMAC stand-in. *)
let zoo_models = Zoo.named @ [ ("cmac-surrogate", Zoo.cmac_surrogate_prototxt) ]

let design_of prototxt =
  let net = Zoo.build prototxt in
  Design_cache.generate (Constraints.with_dsp_cap Constraints.db_medium 8) net

let inputs_for ~seed design =
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create seed in
  let params = Params.init_xavier rng net in
  let inputs =
    List.concat_map
      (fun node ->
        match node.Network.layer with
        | Layer.Input { shape } ->
            List.map
              (fun top ->
                (top, Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0))
              node.Network.tops
        | _ -> [])
      (Network.input_nodes net)
  in
  (params, inputs)

(* Run [f] with the obs layer on and return its sim.*/agu.* counters. *)
let engine_counters f =
  Obs.set_enabled true;
  Obs.reset ();
  let result = f () in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  Obs.reset ();
  let prefixed (name, _) =
    String.length name >= 4
    && (String.sub name 0 4 = "sim." || String.sub name 0 4 = "agu.")
  in
  (result, List.filter prefixed snap.Obs.counters)

let check_model (name, prototxt) () =
  let design = design_of prototxt in
  let params, inputs = inputs_for ~seed:11 design in
  let spec_out, spec_counters =
    engine_counters (fun () ->
        Simulator.functional_output design params ~inputs)
  in
  let gen_out, gen_counters =
    engine_counters (fun () ->
        Generic_engine.functional_output design params ~inputs)
  in
  Alcotest.(check bool)
    (name ^ ": specialized output bitwise-equals generic")
    true
    (Tensor.equal_bits spec_out gen_out);
  Alcotest.(check (list (pair string int)))
    (name ^ ": sim.*/agu.* counters identical")
    gen_counters spec_counters;
  (* Control replay: closed-form trace cycles vs the cycle-accurate AGU
     machine, under a watchdog budget sized from the trace itself —
     alexnet/vgg16-class designs replay hundreds of millions of control
     cycles. *)
  let cycles = Specialize.control_cycles (Specialize.of_design design) in
  let budget = (2 * cycles) + 1_000 in
  Alcotest.(check int)
    (name ^ ": control cycles")
    cycles
    (Simulator.replay_control ~cycle_budget:budget design);
  (* The generic machine clocks every FSM step, so cross-check against it
     only where that stays tractable; the AGU enclosure gate covers the
     machine itself on every access pattern. *)
  if cycles <= 60_000_000 then
    Alcotest.(check int)
      (name ^ ": control cycles (cycle-accurate)")
      cycles
      (Generic_engine.replay_control ~cycle_budget:budget design)

(* A conv output read both by an activation and by the concat that joins
   the activation back in: the activation must write its own arena slot,
   not the conv words the concat still reads.  The head's sigmoid is the
   network output. *)
let branchy_prototxt =
  {|name: "branchy"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 2 dim: 10 dim: 10 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1"
  convolution_param { num_output: 8 kernel_size: 3 pad: 1 } }
layers { name: "act" type: TANH bottom: "conv1" top: "act" }
layers { name: "join" type: CONCAT bottom: "act" bottom: "conv1" top: "join" }
layers { name: "fc" type: INNER_PRODUCT bottom: "join" top: "fc"
  inner_product_param { num_output: 4 } }
layers { name: "head" type: SIGMOID bottom: "fc" top: "head" }
|}

let test_jobs_invariance () =
  (* The engines must produce the same bits whether the pool fans out
     (DEEPBURNING_JOBS=4, the test environment) or runs sequentially. *)
  let design = design_of Zoo.mnist_prototxt in
  let params, inputs = inputs_for ~seed:23 design in
  let wide = Simulator.functional_output design params ~inputs in
  let narrow =
    Pool.with_sequential (fun () ->
        Simulator.functional_output design params ~inputs)
  in
  Alcotest.(check bool) "jobs=4 equals jobs=1" true
    (Tensor.equal_bits wide narrow);
  let wide_gen = Generic_engine.functional_output design params ~inputs in
  Alcotest.(check bool) "specialized equals generic at jobs=4" true
    (Tensor.equal_bits wide wide_gen)

let test_batch_matches_singles () =
  let design = design_of Zoo.lenet5_prototxt in
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create 37 in
  let params = Params.init_xavier rng net in
  let input_node = List.hd (Network.input_nodes net) in
  let shape =
    match input_node.Network.layer with
    | Layer.Input { shape } -> shape
    | _ -> assert false
  in
  let blob = List.hd input_node.Network.tops in
  let samples =
    List.init 6 (fun _ ->
        [ (blob, Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0) ])
  in
  let batched = Simulator.functional_output_batch design params ~batch:samples in
  let singles =
    List.map
      (fun inputs -> Simulator.functional_output design params ~inputs)
      samples
  in
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch sample %d bitwise-equals single call" i)
        true (Tensor.equal_bits b s))
    (List.combine batched singles);
  let sequential =
    Pool.with_sequential (fun () ->
        Simulator.functional_output_batch design params ~batch:samples)
  in
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch sample %d invariant under pool width" i)
        true (Tensor.equal_bits b s))
    (List.combine batched sequential)

(* The fault campaign's whole observable result — rendered JSON, so every
   outcome class, rate and degradation point — must not depend on the
   engine that produced it.  Parameters, then [n] inputs, are drawn from
   [seed]. *)
let campaign_engines_agree design ~seed ~inputs:n config =
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create seed in
  let params = Params.init_xavier rng net in
  let input_node = List.hd (Network.input_nodes net) in
  let shape =
    match input_node.Network.layer with
    | Layer.Input { shape } -> shape
    | _ -> assert false
  in
  let blob = List.hd input_node.Network.tops in
  let inputs =
    Array.init n (fun _ -> Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0)
  in
  let run engine =
    Db_fault.Campaign.render_json
      (Db_fault.Campaign.run ~design ~params ~input_blob:blob ~inputs
         { config with Db_fault.Campaign.engine })
  in
  Alcotest.(check string) "campaign JSON identical across engines"
    (run Db_fault.Campaign.Generic)
    (run Db_fault.Campaign.Specialized)

let test_campaign_engines_agree () =
  let net =
    Zoo.build (Zoo.ann_prototxt ~name:"specann" ~inputs:4 ~hidden1:8 ~hidden2:8 ~outputs:3)
  in
  let design =
    Design_cache.generate (Constraints.with_dsp_cap Constraints.db_medium 4) net
  in
  campaign_engines_agree design ~seed:5 ~inputs:3
    {
      Db_fault.Campaign.default_config with
      Db_fault.Campaign.trials = 60;
      cycle_budget = 20_000;
      rates = [ 1e-4 ];
    }

let test_campaign_engines_agree_lenet5 () =
  (* Weight faults replay through the design's activation tables, tanh-LUT
     faults through the faulted closure; both must match the generic
     engine word for word. *)
  campaign_engines_agree (design_of Zoo.lenet5_prototxt) ~seed:5 ~inputs:2
    {
      Db_fault.Campaign.default_config with
      Db_fault.Campaign.trials = 60;
      rates = [ 1e-4 ];
      targets = [ Db_fault.Site.Weights; Db_fault.Site.Lut_tables ];
    }

(* The CLI's own campaign — its default constraint, seed 42, 200 trials,
   every class, the default rates, 8 inputs, a 200 000-cycle budget — on
   the two CNNs, and a shorter one on the zoo's concat + LRN network. *)
let cli_design prototxt =
  Design_cache.generate
    (Constraints.parse Db_serve.Serve.default_constraint_script)
    (Zoo.build prototxt)

let test_campaign_engines_agree_cli prototxt () =
  campaign_engines_agree (cli_design prototxt) ~seed:42 ~inputs:8
    Db_fault.Campaign.default_config

let test_campaign_engines_agree_googlenet () =
  campaign_engines_agree (cli_design Zoo.googlenet_like_prototxt) ~seed:42
    ~inputs:2
    { Db_fault.Campaign.default_config with Db_fault.Campaign.trials = 40 }

(* --- kernel oracle --------------------------------------------------------- *)

(* The direct six-deep convolution the specialized engine ran before its
   tap-major kernel, kept here as the oracle: one output word at a time,
   taps in (ic, ky, kx) order, every input index bounds-tested. *)
let direct_conv fmt ~(input : Quantized.qtensor) ~(weights : Quantized.qtensor)
    ~bias ~stride ~pad ~group ~cin_g ~cout ~k ~h ~w ~oh ~ow =
  let idata = input.Quantized.qdata and wdata = weights.Quantized.qdata in
  let out = Array.make (cout * oh * ow) 0 in
  let cout_g = cout / group in
  for oc = 0 to cout - 1 do
    let g = oc / cout_g in
    let base_ic = g * cin_g in
    let b =
      match bias with
      | None -> 0
      | Some (bt : Quantized.qtensor) ->
          bt.Quantized.qdata.(oc) lsl fmt.Fixed.frac_bits
    in
    let wbase_oc = oc * cin_g * k * k in
    let obase_oc = oc * oh * ow in
    for oy = 0 to oh - 1 do
      let obase = obase_oc + (oy * ow) in
      for ox = 0 to ow - 1 do
        let acc = ref b in
        for ic = 0 to cin_g - 1 do
          let ibase_c = (base_ic + ic) * h * w in
          let wbase_c = wbase_oc + (ic * k * k) in
          for ky = 0 to k - 1 do
            let iy = (oy * stride) + ky - pad in
            if iy >= 0 && iy < h then begin
              let ibase = ibase_c + (iy * w) in
              let wbase = wbase_c + (ky * k) in
              for kx = 0 to k - 1 do
                let ix = (ox * stride) + kx - pad in
                if ix >= 0 && ix < w then
                  acc := !acc + (idata.(ibase + ix) * wdata.(wbase + kx))
              done
            end
          done
        done;
        out.(obase + ox) <- Quantized.rescale_acc fmt !acc
      done
    done
  done;
  { Quantized.qshape = Shape.chw ~channels:cout ~height:oh ~width:ow; qdata = out }

type conv_case = {
  group : int;
  cin_g : int;
  cout_g : int;
  k : int;
  stride : int;
  pad : int;
  h : int;
  w : int;
  has_bias : bool;
  wide : bool;  (** words over the whole [int] range, so partial sums wrap *)
  fmt : Fixed.format;
  seed : int;
}

let print_conv_case c =
  Printf.sprintf
    "group=%d cin_g=%d cout_g=%d k=%d stride=%d pad=%d h=%d w=%d bias=%b \
     wide=%b fmt=Q%d.%d seed=%d"
    c.group c.cin_g c.cout_g c.k c.stride c.pad c.h c.w c.has_bias c.wide
    c.fmt.Fixed.total_bits c.fmt.Fixed.frac_bits c.seed

let gen_conv_case =
  QCheck.Gen.(
    let* group = int_range 1 4 in
    let* cin_g = int_range 1 3 in
    (* 1..9 output channels per group: whole blocks of four and every
       remainder. *)
    let* cout_g = int_range 1 9 in
    let* k = int_range 1 11 in
    let* stride = int_range 1 4 in
    let* pad = int_range 0 (k - 1) in
    (* The input may be smaller than the kernel, as long as the padded
       input still holds one window. *)
    let extent = int_range (Stdlib.max 1 (k - (2 * pad))) (k + 8) in
    let* h = extent in
    let* w = extent in
    let* has_bias = bool in
    let* wide = bool in
    let* fmt = oneofl [ Fixed.q8_4; Fixed.q16_8; Fixed.q24_12; Fixed.q32_16 ] in
    let* seed = int_range 0 1_000_000 in
    return
      { group; cin_g; cout_g; k; stride; pad; h; w; has_bias; wide; fmt; seed })

let prop_conv_kernel_oracle =
  QCheck.Test.make ~name:"tap-major conv = direct oracle" ~count:300
    (QCheck.make ~print:print_conv_case gen_conv_case)
    (fun c ->
      let rng = Rng.create c.seed in
      let words n =
        Array.init n (fun _ ->
            if c.wide then Int64.to_int (Rng.next_int64 rng)
            else
              Fixed.min_value c.fmt
              + Rng.int rng (Fixed.max_value c.fmt - Fixed.min_value c.fmt + 1))
      in
      let cin = c.group * c.cin_g and cout = c.group * c.cout_g in
      let qtensor qshape = { Quantized.qshape; qdata = words (Shape.numel qshape) } in
      let input = qtensor (Shape.chw ~channels:cin ~height:c.h ~width:c.w) in
      let weights = qtensor (Shape.of_list [ cout; c.cin_g; c.k; c.k ]) in
      let bias = if c.has_bias then Some (qtensor (Shape.vector cout)) else None in
      let dim n =
        Db_tensor.Ops.conv_output_dim ~input:n ~kernel:c.k ~stride:c.stride
          ~pad_lo:c.pad ~pad_hi:c.pad
      in
      let expect =
        direct_conv c.fmt ~input ~weights ~bias ~stride:c.stride ~pad:c.pad
          ~group:c.group ~cin_g:c.cin_g ~cout ~k:c.k ~h:c.h ~w:c.w ~oh:(dim c.h)
          ~ow:(dim c.w)
      in
      (* The kernel writes over whatever its buffer held. *)
      let out = words (Array.length expect.Quantized.qdata) in
      match
        Specialize.conv_kernel c.fmt ~input ~weights ~bias ~stride:c.stride
          ~pad:c.pad ~group:c.group ~out
      with
      | None -> QCheck.Test.fail_report "guard rejected well-formed shapes"
      | Some got ->
          Shape.equal got.Quantized.qshape expect.Quantized.qshape
          && got.Quantized.qdata = expect.Quantized.qdata)

let test_conv_kernel_guard () =
  (* A bias shorter than the output channels fails the guard, so playback
     falls back to the generic kernel and its error. *)
  let q shape = { Quantized.qshape = shape; qdata = Array.make (Shape.numel shape) 1 } in
  Alcotest.(check bool) "short bias rejected" true
    (Option.is_none
       (Specialize.conv_kernel Fixed.q16_8
          ~input:(q (Shape.chw ~channels:2 ~height:4 ~width:4))
          ~weights:(q (Shape.of_list [ 3; 2; 3; 3 ]))
          ~bias:(Some (q (Shape.vector 2)))
          ~stride:1 ~pad:0 ~group:1 ~out:(Array.make 12 0)))

(* --- the arena contract --------------------------------------------------- *)

type op_case = { op : int; c : int; h : int; w : int; faulted : bool; oseed : int }

let op_names =
  [| "max pool"; "ave pool"; "global max pool"; "global ave pool"; "lrn"; "lcn";
     "softmax"; "concat"; "recurrent"; "associative"; "classifier"; "conv"; "fc";
     "act"; "dropout" |]

let print_op_case o =
  Printf.sprintf "%s c=%d h=%d w=%d faulted=%b seed=%d" op_names.(o.op) o.c o.h
    o.w o.faulted o.oseed

let gen_op_case =
  QCheck.Gen.(
    let* op = int_bound (Array.length op_names - 1) in
    let* c = int_range 1 6 in
    let* h = int_range 1 7 in
    let* w = int_range 1 7 in
    let* faulted = bool in
    let* oseed = int_range 0 1_000_000 in
    return { op; c; h; w; faulted; oseed })

(* A campaign-style evaluator whose every LUT reads off its design word. *)
let faulted_eval =
  let e = Quantized.exact_eval in
  {
    Quantized.eval_activation = (fun a x -> 0.75 *. e.Quantized.eval_activation a x);
    eval_reciprocal = (fun x -> 1.75 *. e.Quantized.eval_reciprocal x);
    eval_power = (fun x y -> 1.75 *. e.Quantized.eval_power x y);
    eval_exp = (fun x -> 1.25 *. e.Quantized.eval_exp x);
  }

(* One op of each kind [eval_node] evaluates, on random words of the
   case's dimensions: the layer, its parameters and its bottoms. *)
let op_of_case o ~words =
  let rng = Rng.create o.oseed in
  let q shape = { Quantized.qshape = shape; qdata = words rng (Shape.numel shape) } in
  let map = q (Shape.chw ~channels:o.c ~height:o.h ~width:o.w) in
  let n = o.c * o.h * o.w in
  let side = Int.min o.h o.w in
  let pool method_ =
    let kernel = 1 + Rng.int rng side in
    (Layer.Pool { method_; kernel_size = kernel; stride = 1 + Rng.int rng 3 }, [], [ map ])
  in
  match op_names.(o.op) with
  | "max pool" -> pool Layer.Max_pool
  | "ave pool" -> pool Layer.Avg_pool
  | "global max pool" -> (Layer.Global_pool Layer.Max_pool, [], [ map ])
  | "global ave pool" -> (Layer.Global_pool Layer.Avg_pool, [], [ map ])
  | "lrn" ->
      let local_size = 1 + (2 * Rng.int rng 3) in
      (Layer.Lrn { local_size; alpha = 1e-2; beta = 0.75; k = 1.0 }, [], [ map ])
  | "lcn" -> (Layer.Lcn { window = 1 + (2 * Rng.int rng 3); epsilon = 1e-2 }, [], [ map ])
  | "softmax" -> (Layer.Softmax, [], [ map ])
  | "concat" ->
      let other = q (Shape.chw ~channels:(1 + Rng.int rng 4) ~height:o.h ~width:o.w) in
      (Layer.Concat, [], [ map; other; map ])
  | "recurrent" ->
      let nout = o.c in
      ( Layer.Recurrent { num_output = nout; steps = 1 + Rng.int rng 3; bias = true },
        [ q (Shape.of_list [ nout; n ]); q (Shape.of_list [ nout; nout ]); q (Shape.vector nout) ],
        [ map ] )
  | "associative" ->
      (Layer.Associative { cells_per_dim = 2 + Rng.int rng 6; active_cells = 1 + Rng.int rng 3 },
       [], [ map ])
  | "classifier" -> (Layer.Classifier { top_k = 1 + Rng.int rng n }, [], [ map ])
  | "conv" ->
      let kernel = 1 + Rng.int rng side in
      ( Layer.Conv
          { num_output = 3; kernel_size = kernel; stride = 1; pad = Rng.int rng 2;
            group = 1; bias = true },
        [ q (Shape.of_list [ 3; o.c; kernel; kernel ]); q (Shape.vector 3) ],
        [ map ] )
  | "fc" ->
      ( Layer.Fc { num_output = 5; bias = true },
        [ q (Shape.of_list [ 5; n ]); q (Shape.vector 5) ],
        [ map ] )
  | "act" -> (Layer.Act Layer.Sigmoid, [], [ map ])
  | "dropout" -> (Layer.Dropout { ratio = 0.5 }, [], [ map ])
  | name -> failwith name

(* Every op's one kernel writes every word of a slot that still holds
   other words, and returns that slot; given a slot of the wrong size it
   leaves it alone and returns fresh words.  Both equal a fresh
   evaluation word for word, under the exact and a faulted evaluator. *)
let prop_slot_contract =
  QCheck.Test.make ~name:"every op into a used slot = into a fresh one" ~count:600
    (QCheck.make ~print:print_op_case gen_op_case)
    (fun o ->
      let fmt = Fixed.q16_8 in
      let words rng n =
        Array.init n (fun _ ->
            Fixed.min_value fmt
            + Rng.int rng (Fixed.max_value fmt - Fixed.min_value fmt + 1))
      in
      let layer, params, bottoms = op_of_case o ~words in
      let eval = if o.faulted then faulted_eval else Quantized.exact_eval in
      let run out = Quantized.eval_node fmt eval layer ~params ~bottoms ~out in
      let fresh = run [||] in
      let n = Array.length fresh.Quantized.qdata in
      let same (got : Quantized.qtensor) =
        Shape.equal got.Quantized.qshape fresh.Quantized.qshape
        && got.Quantized.qdata = fresh.Quantized.qdata
      in
      let rng = Rng.create (o.oseed + 1) in
      let used = words rng n in
      let into = run used in
      if into.Quantized.qdata != used then
        QCheck.Test.fail_report "did not write into a slot of the output's size";
      let wrong = words rng (n + 1) in
      let saved = Array.copy wrong in
      let beside = run wrong in
      same into && same beside && beside.Quantized.qdata != wrong && wrong = saved)

(* Pooling over the windows the contract above seldom draws: kernels up
   to 5 (areas 1, 4 and 16 divide by shifting, 9 and 25 by the
   reciprocal), strides up to 4 and maps up to 8 wider than the kernel. *)
type pool_case = {
  method_ : Layer.pool_method;
  c : int;
  kernel : int;
  pstride : int;
  ph : int;
  pw : int;
  pseed : int;
}

let print_pool_case p =
  Printf.sprintf "%s c=%d k=%d stride=%d h=%d w=%d seed=%d"
    (match p.method_ with Layer.Max_pool -> "max" | Layer.Avg_pool -> "ave")
    p.c p.kernel p.pstride p.ph p.pw p.pseed

let gen_pool_case =
  QCheck.Gen.(
    let* method_ = oneofl [ Layer.Max_pool; Layer.Avg_pool ] in
    let* c = int_range 1 4 in
    let* kernel = int_range 1 5 in
    let* pstride = int_range 1 4 in
    let* ph = int_range kernel (kernel + 8) in
    let* pw = int_range kernel (kernel + 8) in
    let* pseed = int_range 0 1_000_000 in
    return { method_; c; kernel; pstride; ph; pw; pseed })

(* Pooling into a slot that still holds the previous sample's words
   writes every word of it and equals a fresh pooling; a slot of the
   wrong size is left alone. *)
let prop_pool_into =
  QCheck.Test.make ~name:"pool into a used slot = Quantized pooling" ~count:200
    (QCheck.make ~print:print_pool_case gen_pool_case)
    (fun p ->
      let fmt = Fixed.q16_8 in
      let rng = Rng.create p.pseed in
      let words n =
        Array.init n (fun _ ->
            Fixed.min_value fmt
            + Rng.int rng (Fixed.max_value fmt - Fixed.min_value fmt + 1))
      in
      let shape = Shape.chw ~channels:p.c ~height:p.ph ~width:p.pw in
      let input = { Quantized.qshape = shape; qdata = words (Shape.numel shape) } in
      let into out =
        Quantized.eval_node fmt Quantized.exact_eval
          (Layer.Pool { method_ = p.method_; kernel_size = p.kernel; stride = p.pstride })
          ~params:[] ~bottoms:[ input ] ~out
      in
      let expect = into [||] in
      let n = Array.length expect.Quantized.qdata in
      let wrong = words (n + 1) in
      let saved = Array.copy wrong in
      let beside = into wrong in
      let used = words n in
      let got = into used in
      if got.Quantized.qdata != used then
        QCheck.Test.fail_report "did not write into a slot of the output's size";
      beside.Quantized.qdata != wrong && wrong = saved
      && beside.Quantized.qdata = expect.Quantized.qdata
      && Shape.equal got.Quantized.qshape expect.Quantized.qshape
      && got.Quantized.qdata = expect.Quantized.qdata)

(* A 3x3 average pool divides through the reciprocal LUT; a campaign's
   faulted evaluator must reach the arena kernel, not the design's word. *)
let avgpool3_prototxt =
  {|name: "avgpool3"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 2 dim: 9 dim: 9 } }
layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
  convolution_param { num_output: 4 kernel_size: 3 pad: 1 } }
layers { name: "pool" type: POOLING bottom: "conv" top: "pool"
  pooling_param { pool: AVE kernel_size: 3 stride: 3 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "pool" top: "fc"
  inner_product_param { num_output: 5 } }
|}

let test_faulted_reciprocal () =
  let design = design_of avgpool3_prototxt in
  let params, inputs = inputs_for ~seed:3 design in
  let sp = Specialize.of_design design in
  let healthy = Specialize.lut_eval sp in
  let faulted =
    { healthy with
      Quantized.eval_reciprocal = (fun x -> 1.75 *. healthy.Quantized.eval_reciprocal x) }
  in
  let bound = Specialize.bind sp params in
  let spec = Specialize.output ~eval:faulted bound ~inputs in
  let gen =
    Quantized.output ~eval:faulted ~fmt:(Specialize.qformat sp)
      design.Db_core.Design.network params ~inputs
  in
  Alcotest.(check bool) "faulted playback bitwise-equals generic" true
    (Tensor.equal_bits spec gen);
  Alcotest.(check bool) "the fault is visible" false
    (Tensor.equal_bits spec (Specialize.output bound ~inputs))

(* MNIST has one LRN over a pooled map: a campaign's faulted power LUT
   reaches its slot as it reaches the generic kernel. *)
let test_faulted_power () =
  let design = design_of Zoo.mnist_prototxt in
  let params, inputs = inputs_for ~seed:3 design in
  let sp = Specialize.of_design design in
  let healthy = Specialize.lut_eval sp in
  let faulted =
    { healthy with
      Quantized.eval_power = (fun x y -> 1.75 *. healthy.Quantized.eval_power x y) }
  in
  let bound = Specialize.bind sp params in
  let spec = Specialize.output ~eval:faulted bound ~inputs in
  let gen =
    Quantized.output ~eval:faulted ~fmt:(Specialize.qformat sp)
      design.Db_core.Design.network params ~inputs
  in
  Alcotest.(check bool) "faulted playback bitwise-equals generic" true
    (Tensor.equal_bits spec gen);
  Alcotest.(check bool) "the fault is visible" false
    (Tensor.equal_bits spec (Specialize.output bound ~inputs))

(* --- arena ownership --------------------------------------------------------- *)

let zoo_batch prototxt ~seed n =
  let design = design_of prototxt in
  let net = design.Db_core.Design.network in
  let rng = Rng.create seed in
  let params = Params.init_xavier rng net in
  let blob, shape = Network.first_input net in
  let batch =
    List.init n (fun _ ->
        [ (blob, Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0) ])
  in
  (design, params, batch)

let lenet5_batch = zoo_batch Zoo.lenet5_prototxt

(* Every tensor [output_batch] returns is its own: scribbling over one
   leaves the others, and a re-run, as they were. *)
let test_batch_outputs_unaliased () =
  List.iter
    (fun (width, run) ->
      List.iter
        (fun n ->
          let design, params, batch = lenet5_batch ~seed:41 n in
          let play () =
            run (fun () -> Simulator.functional_output_batch design params ~batch)
          in
          let saved = List.map Tensor.copy (play ()) in
          for i = 0 to n - 1 do
            let outs = play () in
            let victim = List.nth outs i in
            for j = 0 to Tensor.numel victim - 1 do
              Tensor.set victim j Float.nan
            done;
            List.iteri
              (fun k (o, s) ->
                if k <> i && not (Tensor.equal_bits o s) then
                  Alcotest.failf "width %d batch %d: sample %d changed with sample %d"
                    width n k i)
              (List.combine outs saved)
          done;
          List.iteri
            (fun k (o, s) ->
              if not (Tensor.equal_bits o s) then
                Alcotest.failf "width %d batch %d: re-run sample %d differs" width n k)
            (List.combine (play ()) saved))
        [ 1; 3; 8 ])
    [ (1, Pool.with_sequential); (4, fun f -> f ()) ]

(* [qoutput] hands its caller words no later call overwrites. *)
let test_qoutput_owned () =
  let design, params, batch = lenet5_batch ~seed:43 3 in
  let bound = Specialize.bind (Specialize.of_design design) params in
  let first = Specialize.qoutput bound ~inputs:(List.hd batch) in
  let saved = Array.copy first.Quantized.qdata in
  List.iter (fun inputs -> ignore (Specialize.qoutput bound ~inputs)) (List.tl batch);
  ignore (Specialize.output_batch bound ~batch);
  Alcotest.(check (array int)) "first result intact" saved first.Quantized.qdata

(* --- allocation budget ------------------------------------------------------- *)

(* Major words [f] allocates on the calling domain.  [Gc.counters] reads
   this domain's live counts ([Gc.quick_stat] only samples them at
   collections). *)
let major_words f =
  Gc.minor ();
  let _, _, before = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, _, after = Gc.counters () in
  after -. before

(* Both counts are taken on the calling domain at width 1, where they
   repeat exactly.  A batch replays through one arena, so eight samples
   may allocate little more major heap than one (binding the parameters
   dominates both) — on MNIST too, whose LRN writes its own slot, and on
   googlenet-like, whose concat does; and filling a tensor with uniform
   draws allocates nothing per element. *)
let test_allocation_budget () =
  List.iter
    (fun (name, prototxt) ->
      let design, params, batch = zoo_batch prototxt ~seed:47 8 in
      Pool.with_sequential (fun () ->
          let play batch () =
            Simulator.functional_output_batch design params ~batch
          in
          ignore (play batch ());
          let one = major_words (play [ List.hd batch ]) in
          let eight = major_words (play batch) in
          if eight > 1.5 *. one then
            Alcotest.failf
              "%s: batch of 8 allocates %.0f major words, batch of 1 %.0f" name
              eight one))
    [
      ("lenet5", Zoo.lenet5_prototxt);
      ("mnist", Zoo.mnist_prototxt);
      ("googlenet-like", Zoo.googlenet_like_prototxt);
    ];
  let rng = Rng.create 5 in
  let shape = Shape.vector 65536 in
  ignore (Tensor.random_uniform rng (Shape.vector 1) ~min:0.0 ~max:1.0);
  let before = Gc.minor_words () in
  let t = Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0 in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity t);
  if words > 64.0 then
    Alcotest.failf "random_uniform over 65536 elements: %.0f minor words" words

(* A campaign's trials flip words of one working copy in place and write
   them back, so at width 1 eighty weight/bias trials may allocate little
   more major heap than ten: binding the parameters and the golden runs
   dominate both.  MNIST's bound is wider: its ten-trial run allocates too
   little minor heap (about 19k words) to reach a minor collection, while
   the eighty-trial run reaches a few, which promote the ~2.4k words of
   young data the run keeps live (its small bound tensors, arena slots and
   fault space) once — 1.22x against a per-trial slope of about 11 words.
   An LRN output allocated per trial (512 words straight to the major
   heap) reads 3.3x. *)
let test_campaign_allocation_budget () =
  List.iter
    (fun (name, prototxt, bound) ->
      let design = cli_design prototxt in
      let rng = Rng.create 11 in
      let params = Params.init_xavier rng design.Db_core.Design.network in
      let blob, shape = Network.first_input design.Db_core.Design.network in
      let inputs =
        Array.init 2 (fun _ -> Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0)
      in
      let campaign trials () =
        Db_fault.Campaign.run ~design ~params ~input_blob:blob ~inputs
          {
            Db_fault.Campaign.default_config with
            Db_fault.Campaign.trials;
            rates = [];
            targets = [ Db_fault.Site.Weights; Db_fault.Site.Biases ];
          }
      in
      Pool.with_sequential (fun () ->
          ignore (campaign 10 ());
          let ten = major_words (campaign 10) in
          let eighty = major_words (campaign 80) in
          if eighty > bound *. ten then
            Alcotest.failf "%s: 80 trials allocate %.0f major words, 10 trials %.0f"
              name eighty ten))
    [
      ("lenet5", Zoo.lenet5_prototxt, 1.2);
      ("cifar-lite", Zoo.cifar_lite_prototxt, 1.2);
      ("mnist", Zoo.mnist_prototxt, 1.3);
    ]

(* Words [f] allocates on the calling domain, minor plus major. *)
let allocated_words f =
  let minor0, _, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor1, _, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0)

(* Compiling a trace costs O(nodes + transfers), never O(addresses):
   AlexNet's transfers move 65.8M words and VGG16's 287.6M. *)
let test_compile_allocation () =
  List.iter
    (fun (name, prototxt) ->
      let design = design_of prototxt in
      let words = allocated_words (fun () -> Specialize.compile design) in
      if words >= 1e6 then
        Alcotest.failf "%s: compiling the trace allocates %.0f words" name words)
    [ ("alexnet", Zoo.alexnet_prototxt); ("vgg16", Zoo.vgg16_prototxt) ]

(* --- invalid control patterns ---------------------------------------------- *)

(* [design] with the [k]-th compiled transfer's pattern rewritten by [f]. *)
let with_pattern (design : Db_core.Design.t) k f =
  let seen = ref (-1) in
  let transfer (tr : Compiler.transfer) =
    incr seen;
    if !seen = k then { tr with Compiler.pattern = f tr.Compiler.pattern } else tr
  in
  let programs =
    List.map
      (fun (p : Compiler.fold_program) ->
        { p with Compiler.transfers = List.map transfer p.Compiler.transfers })
      design.Db_core.Design.program.Compiler.programs
  in
  { design with
    Db_core.Design.program = { design.Db_core.Design.program with Compiler.programs } }

let replay engine ~cycle_budget design =
  match engine ~cycle_budget design with
  | cycles -> Ok cycles
  | exception e -> Error e

(* A pattern that fails validation halfway through the schedule: both
   engines raise its validation error once the replay reaches it, and the
   same watchdog payload when the budget runs out on the way, at the
   transfer boundary before it or inside an earlier transfer. *)
let test_invalid_pattern_parity () =
  let design = design_of Zoo.lenet5_prototxt in
  let patterns =
    List.concat_map
      (fun (p : Compiler.fold_program) ->
        List.map (fun (tr : Compiler.transfer) -> tr.Compiler.pattern) p.Compiler.transfers)
      design.Db_core.Design.program.Compiler.programs
  in
  let k = List.length patterns / 2 in
  let cost = List.map Db_mem.Agu_sim.cycles_estimate patterns in
  let before = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < k) cost) in
  let last = List.nth cost (k - 1) in
  Alcotest.(check bool) "the transfer before the corrupted one takes cycles" true
    (last > 1);
  List.iter
    (fun (label, corrupt) ->
      let bad = with_pattern design k corrupt in
      List.iter
        (fun (budget, expect_timeout) ->
          let spec = replay Simulator.replay_control ~cycle_budget:budget bad in
          let gen = replay Generic_engine.replay_control ~cycle_budget:budget bad in
          let what = Printf.sprintf "%s, budget %d" label budget in
          (match spec, expect_timeout with
          | Error (Db_util.Error.Timeout _), true
          | Error (Db_util.Error.Deepburning_error _), false -> ()
          | Ok _, _ | Error _, _ ->
              Alcotest.failf "%s: not the expected failure" what);
          if spec <> gen then Alcotest.failf "%s: the engines disagree" what)
        [
          ((2 * List.fold_left ( + ) 0 cost) + 1_000, false);
          (before, true);
          (before - 1, true);
          (before - last + 1, true);
        ])
    [
      ("x_length = 0", fun p -> { p with Db_mem.Access_pattern.x_length = 0 });
      ("negative start", fun p -> { p with Db_mem.Access_pattern.start = -1 });
      ( "escapes its footprint",
        fun p ->
          { p with
            Db_mem.Access_pattern.x_length =
              p.Db_mem.Access_pattern.footprint + 1 } );
    ]

(* --- activation tables ----------------------------------------------------- *)

let activations net =
  List.sort_uniq compare
    (List.filter_map
       (fun node ->
         match node.Network.layer with Layer.Act a -> Some a | _ -> None)
       net.Network.nodes)

(* Every table entry is the closure's word: for each zoo design with an
   activation, under each Q-format of at most 16 bits on the explorer's
   menu.  Wider formats keep the closure and have no table. *)
let test_activation_tables () =
  let checked = ref 0 in
  List.iter
    (fun (name, prototxt) ->
      let net = Zoo.build prototxt in
      match activations net with
      | [] -> ()
      | acts ->
          let cons = Constraints.with_dsp_cap Constraints.db_medium 8 in
          let graph = Db_ir.Lower.lower ~fmt:cons.Constraints.fmt net in
          let space = Db_dse.Space.make cons graph in
          (* The deterministic seeds hold one candidate per menu format. *)
          let format_of (c : Db_dse.Space.candidate) =
            (c.Db_dse.Space.total_bits, c.Db_dse.Space.frac_bits)
          in
          let per_format =
            List.sort_uniq
              (fun a b -> compare (format_of a) (format_of b))
              (Db_dse.Space.seeds space ~count:0 (Rng.create 1))
          in
          List.iter
            (fun cand ->
              let total_bits, frac_bits = format_of cand in
              let design () =
                Design_cache.generate (Db_dse.Space.constraints_for space cand) net
              in
              if total_bits > 16 then begin
                (* Some wide formats overflow the buffers of big models;
                   those designs do not exist, so have nothing to check. *)
                match design () with
                | exception Db_util.Error.Deepburning_error _ -> ()
                | design ->
                    let sp = Specialize.of_design design in
                    List.iter
                      (fun act ->
                        if Specialize.activation_table sp act <> None then
                          Alcotest.failf "%s Q%d.%d: tabulated" name total_bits
                            frac_bits)
                      acts
              end
              else begin
                let sp = Specialize.of_design (design ()) in
                let fmt = Specialize.qformat sp in
                let eval = Specialize.lut_eval sp in
                List.iter
                  (fun act ->
                    let label =
                      Printf.sprintf "%s Q%d.%d %s" name total_bits frac_bits
                        (Layer.name (Layer.Act act))
                    in
                    match Specialize.activation_table sp act with
                    | None -> Alcotest.failf "%s: no table" label
                    | Some tbl ->
                        let lo = Fixed.min_value fmt in
                        if Array.length tbl <> Fixed.max_value fmt - lo + 1 then
                          Alcotest.failf "%s: %d entries" label (Array.length tbl);
                        let f = eval.Quantized.eval_activation act in
                        Array.iteri
                          (fun i word ->
                            let v = lo + i in
                            let want =
                              Fixed.of_float fmt (f (Fixed.to_float fmt v))
                            in
                            if word <> want then
                              Alcotest.failf "%s: word %d tabulated %d, closure %d"
                                label v word want)
                          tbl;
                        incr checked)
                  acts
              end)
            per_format)
    zoo_models;
  Alcotest.(check bool) "some tables checked" true (!checked > 0)

let suite =
  [
    ( "spec-equivalence",
      List.map
        (fun (name, prototxt) ->
          Alcotest.test_case
            ("spec = generic: " ^ name)
            `Slow
            (check_model (name, prototxt)))
        (zoo_models @ [ ("branchy", branchy_prototxt) ])
      @ [
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "batch = singles" `Quick test_batch_matches_singles;
          Alcotest.test_case "campaign engines agree" `Quick
            test_campaign_engines_agree;
          Alcotest.test_case "campaign engines agree: lenet5" `Quick
            test_campaign_engines_agree_lenet5;
          Alcotest.test_case "campaign CLI: lenet5" `Slow
            (test_campaign_engines_agree_cli Zoo.lenet5_prototxt);
          Alcotest.test_case "campaign CLI: cifar-lite" `Slow
            (test_campaign_engines_agree_cli Zoo.cifar_lite_prototxt);
          Alcotest.test_case "campaign: googlenet-like" `Slow
            test_campaign_engines_agree_googlenet;
          QCheck_alcotest.to_alcotest prop_conv_kernel_oracle;
          Alcotest.test_case "conv kernel guard" `Quick test_conv_kernel_guard;
          QCheck_alcotest.to_alcotest prop_slot_contract;
          QCheck_alcotest.to_alcotest prop_pool_into;
          Alcotest.test_case "faulted reciprocal reaches the pool kernel" `Quick
            test_faulted_reciprocal;
          Alcotest.test_case "faulted power reaches the LRN slot" `Quick
            test_faulted_power;
          Alcotest.test_case "batch outputs unaliased" `Quick
            test_batch_outputs_unaliased;
          Alcotest.test_case "qoutput result owned" `Quick test_qoutput_owned;
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
          Alcotest.test_case "campaign allocation budget" `Quick
            test_campaign_allocation_budget;
          Alcotest.test_case "trace compile is O(transfers)" `Quick
            test_compile_allocation;
          Alcotest.test_case "invalid pattern parity" `Quick
            test_invalid_pattern_parity;
          Alcotest.test_case "activation tables = closure" `Slow
            test_activation_tables;
        ] );
  ]
