module Shape = Db_tensor.Shape
module Op = Db_ir.Op
module Graph = Db_ir.Graph

type fold = {
  fold_layer : string;
  layer_index : int;
  fold_index : int;
  total_folds : int;
  lanes_used : int;
  macs : int;
  other_ops : int;
  feature_words : int;
  weight_words : int;
  output_words : int;
  event : string;
}

let fail fmt = Db_util.Error.failf_at ~component:"folding" fmt

let div_ceil a b = (a + b - 1) / b

let one_bottom op = function
  | [ s ] -> s
  | shapes ->
      fail "op %s expects one bottom, got %d" (Op.name op) (List.length shapes)

let two_bottoms op = function
  | [ dy; reference ] -> (dy, reference)
  | shapes ->
      fail "op %s expects [dY; ref] bottoms, got %d" (Op.name op)
        (List.length shapes)

type run = { fold : fold; count : int }

let event_name ~layer_index ~fold_index =
  Printf.sprintf "layer%d-fold%d" layer_index fold_index

let nth_fold run k =
  if k = 0 then run.fold
  else
    let f = run.fold in
    let fold_index = f.fold_index + k in
    {
      f with
      fold_index;
      event = event_name ~layer_index:f.layer_index ~fold_index;
    }

let run_folds run = List.init run.count (nth_fold run)

(* Spatial folding of [units] output units onto [lanes] lanes: fold i gets
   min(lanes, units - i*lanes) of them, so the folds form at most two runs
   (the full folds, then the tail).  [per_unit] quantifies one unit's work
   and traffic; [shared] is re-streamed every fold. *)
let spatial_folds ~lanes ~units ~node_name ~layer_index
    ~per_unit:(macs_u, ops_u, weights_u, out_u) ~shared_feature_words =
  let total_folds = Stdlib.max 1 (div_ceil units lanes) in
  let full = Stdlib.min total_folds (units / lanes) in
  let run i lanes_used count =
    {
      fold =
        {
          fold_layer = node_name;
          layer_index;
          fold_index = i;
          total_folds;
          lanes_used;
          macs = lanes_used * macs_u;
          other_ops = lanes_used * ops_u;
          feature_words = shared_feature_words;
          weight_words = lanes_used * weights_u;
          output_words = lanes_used * out_u;
          event = event_name ~layer_index ~fold_index:i;
        };
      count;
    }
  in
  let tail =
    if total_folds > full then [ run full (units - (full * lanes)) 1 ] else []
  in
  if full > 0 then run 0 lanes full :: tail else tail

let single_fold ~node_name ~layer_index ~macs ~other_ops ~feature_words
    ~weight_words ~output_words =
  [
    {
      fold =
        {
          fold_layer = node_name;
          layer_index;
          fold_index = 0;
          total_folds = 1;
          lanes_used = 1;
          macs;
          other_ops;
          feature_words;
          weight_words;
          output_words;
          event = event_name ~layer_index ~fold_index:0;
        };
      count = 1;
    };
  ]

let fold_op_plan dp op ~bottoms ~output ~node_name ~layer_index =
  let lanes = dp.Datapath.lanes in
  let out_n = Shape.numel output in
  match op with
  | Op.Input _ -> []
  | Op.Conv { kernel_size = k; group; bias; _ } ->
      let bottom = one_bottom op bottoms in
      let cin_g = Shape.channels bottom / group in
      let cout = Shape.channels output in
      let oh = Shape.height output and ow = Shape.width output in
      let feature_words = cin_g * Shape.height bottom * Shape.width bottom in
      let weights_u = (cin_g * k * k) + if bias then 1 else 0 in
      spatial_folds ~lanes ~units:cout ~node_name ~layer_index
        ~per_unit:(oh * ow * cin_g * k * k, 0, weights_u, oh * ow)
        ~shared_feature_words:feature_words
  | Op.Pool { kernel_size = k; _ } ->
      let bottom = one_bottom op bottoms in
      let c = Shape.channels bottom in
      let oh = Shape.height output and ow = Shape.width output in
      let hw = Shape.height bottom * Shape.width bottom in
      spatial_folds ~lanes ~units:c ~node_name ~layer_index
        ~per_unit:(0, oh * ow * k * k, 0, oh * ow)
        ~shared_feature_words:hw
  | Op.Global_pool _ ->
      let bottom = one_bottom op bottoms in
      let c = Shape.channels bottom in
      let hw = Shape.height bottom * Shape.width bottom in
      spatial_folds ~lanes ~units:c ~node_name ~layer_index
        ~per_unit:(0, hw, 0, 1) ~shared_feature_words:hw
  | Op.Fc { bias; _ } ->
      let bottom = one_bottom op bottoms in
      let nin = Shape.numel bottom in
      let weights_u = nin + if bias then 1 else 0 in
      spatial_folds ~lanes ~units:out_n ~node_name ~layer_index
        ~per_unit:(nin, 0, weights_u, 1)
        ~shared_feature_words:nin
  | Op.Recurrent { num_output; steps; bias } ->
      let bottom = one_bottom op bottoms in
      let nin = Shape.numel bottom in
      let weights_u = nin + num_output + if bias then 1 else 0 in
      let per_step =
        spatial_folds ~lanes ~units:num_output ~node_name ~layer_index
          ~per_unit:(nin + num_output, 1, weights_u, 1)
          ~shared_feature_words:(nin + num_output)
      in
      let folds_per_step =
        List.fold_left (fun acc r -> acc + r.count) 0 per_step
      in
      List.concat
        (List.init steps (fun s ->
             List.map
               (fun r ->
                 let fold_index = (s * folds_per_step) + r.fold.fold_index in
                 {
                   r with
                   fold =
                     {
                       r.fold with
                       fold_index;
                       total_folds = steps * folds_per_step;
                       event = event_name ~layer_index ~fold_index;
                     };
                 })
               per_step))
  | Op.Act _ | Op.Dropout _ ->
      single_fold ~node_name ~layer_index ~macs:0 ~other_ops:out_n
        ~feature_words:out_n ~weight_words:0 ~output_words:out_n
  | Op.Softmax ->
      single_fold ~node_name ~layer_index ~macs:0 ~other_ops:(3 * out_n)
        ~feature_words:out_n ~weight_words:0 ~output_words:out_n
  | Op.Lrn { local_size; _ } ->
      single_fold ~node_name ~layer_index ~macs:(out_n * local_size)
        ~other_ops:(2 * out_n) ~feature_words:out_n ~weight_words:0
        ~output_words:out_n
  | Op.Lcn { window; _ } ->
      single_fold ~node_name ~layer_index ~macs:(2 * out_n * window * window)
        ~other_ops:(2 * out_n) ~feature_words:out_n ~weight_words:0
        ~output_words:out_n
  | Op.Associative _ ->
      let bottom = one_bottom op bottoms in
      single_fold ~node_name ~layer_index ~macs:0
        ~other_ops:(Shape.numel bottom) ~feature_words:(Shape.numel bottom)
        ~weight_words:0 ~output_words:out_n
  | Op.Concat ->
      let feature_words =
        List.fold_left (fun acc s -> acc + Shape.numel s) 0 bottoms
      in
      single_fold ~node_name ~layer_index ~macs:0 ~other_ops:0 ~feature_words
        ~weight_words:0 ~output_words:out_n
  | Op.Classifier { top_k } ->
      let bottom = one_bottom op bottoms in
      let n = Shape.numel bottom in
      let log_k =
        Stdlib.max 1
          (int_of_float (Float.ceil (log (float_of_int (top_k + 1)) /. log 2.0)))
      in
      single_fold ~node_name ~layer_index ~macs:0 ~other_ops:(n * log_k)
        ~feature_words:n ~weight_words:0 ~output_words:top_k
  | Op.Backward { fwd; wrt } -> begin
      let dy, reference = two_bottoms op bottoms in
      let dy_n = Shape.numel dy and ref_n = Shape.numel reference in
      match fwd, wrt with
      | Op.Fc _, Op.Wrt_input ->
          (* dX = Wᵀ·dY: one transposed weight column per input word. *)
          spatial_folds ~lanes ~units:ref_n ~node_name ~layer_index
            ~per_unit:(dy_n, 0, dy_n, 1) ~shared_feature_words:dy_n
      | Op.Fc _, Op.Wrt_params ->
          (* dW = dY·Xᵀ: one outer-product MAC + accumulator flush per
             gradient word. *)
          spatial_folds ~lanes ~units:out_n ~node_name ~layer_index
            ~per_unit:(1, 1, 0, 1) ~shared_feature_words:(dy_n + ref_n)
      | Op.Conv { kernel_size = k; group; _ }, Op.Wrt_input ->
          let cin = Shape.channels reference in
          let cout_g = Shape.channels dy / group in
          let oh = Shape.height dy and ow = Shape.width dy in
          let ih = Shape.height reference and iw = Shape.width reference in
          spatial_folds ~lanes ~units:cin ~node_name ~layer_index
            ~per_unit:(oh * ow * cout_g * k * k, 0, cout_g * k * k, ih * iw)
            ~shared_feature_words:dy_n
      | Op.Conv _, Op.Wrt_params ->
          let oh = Shape.height dy and ow = Shape.width dy in
          spatial_folds ~lanes ~units:out_n ~node_name ~layer_index
            ~per_unit:(oh * ow, 1, 0, 1) ~shared_feature_words:(dy_n + ref_n)
      | Op.Pool { kernel_size = k; _ }, Op.Wrt_input ->
          (* Max routes each dY word through the recorded argmax; avg
             scatters it over the window. *)
          single_fold ~node_name ~layer_index ~macs:0 ~other_ops:(dy_n * k * k)
            ~feature_words:(dy_n + ref_n) ~weight_words:0 ~output_words:out_n
      | Op.Global_pool _, Op.Wrt_input ->
          single_fold ~node_name ~layer_index ~macs:0 ~other_ops:ref_n
            ~feature_words:(dy_n + ref_n) ~weight_words:0 ~output_words:out_n
      | Op.Lrn { local_size; _ }, Op.Wrt_input ->
          single_fold ~node_name ~layer_index ~macs:(out_n * local_size)
            ~other_ops:(2 * out_n) ~feature_words:(dy_n + ref_n) ~weight_words:0
            ~output_words:out_n
      | Op.Softmax, Op.Wrt_input ->
          single_fold ~node_name ~layer_index ~macs:out_n
            ~other_ops:(2 * out_n) ~feature_words:(dy_n + ref_n) ~weight_words:0
            ~output_words:out_n
      | (Op.Act _ | Op.Dropout _ | Op.Associative _), Op.Wrt_input ->
          single_fold ~node_name ~layer_index ~macs:0 ~other_ops:out_n
            ~feature_words:(dy_n + ref_n) ~weight_words:0 ~output_words:out_n
      | _ -> fail "no backward fold plan for %s" (Op.name fwd)
    end
  | Op.Sgd_update _ ->
      (* Per weight word: the eta·g multiply, the momentum blend, and the
         write-back through the update unit's read-modify-write port. *)
      spatial_folds ~lanes ~units:out_n ~node_name ~layer_index
        ~per_unit:(2, 1, 1, 1) ~shared_feature_words:0

let graph_runs dp (g : Graph.t) =
  let compute =
    List.filter (fun n -> not (Op.is_input n.Graph.op)) g.Graph.nodes
  in
  List.concat
    (List.mapi
       (fun layer_index (node : Graph.node) ->
         fold_op_plan dp node.Graph.op ~bottoms:node.Graph.in_shapes
           ~output:node.Graph.out_shape ~node_name:node.Graph.node_name
           ~layer_index)
       compute)

let by_layer fold_of xs =
  let layer x = (fold_of x).fold_layer in
  List.fold_left
    (fun acc x ->
      match acc with
      | (l, group) :: rest when l = layer x -> (l, x :: group) :: rest
      | _ -> (layer x, [ x ]) :: acc)
    [] xs
  |> List.rev_map (fun (l, group) -> (l, List.rev group))

let total f runs =
  List.fold_left (fun acc r -> acc + (r.count * f r.fold)) 0 runs

let total_macs runs = total (fun f -> f.macs) runs
