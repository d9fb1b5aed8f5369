module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Ops = Db_tensor.Ops

let fail fmt = Db_util.Error.failf_at ~component:"ir-interp" fmt

let activation act t =
  match act with
  | Op.Relu -> Ops.relu t
  | Op.Sigmoid -> Ops.sigmoid t
  | Op.Tanh -> Ops.tanh_act t
  | Op.Sign -> Tensor.map (fun x -> if x >= 0.0 then 1.0 else -1.0) t

let global_max_pool input =
  let c = Shape.channels (Tensor.shape input) in
  let hw = Tensor.numel input / c in
  Tensor.init (Shape.vector c) (fun ch ->
      let best = ref neg_infinity in
      for i = 0 to hw - 1 do
        best := Float.max !best (Tensor.get input ((ch * hw) + i))
      done;
      !best)

(* The weight tensor and the optional bias, in [Params] order. *)
let weights_bias op ~has_bias params =
  match params, has_bias with
  | [ w ], false -> (w, None)
  | [ w; b ], true -> (w, Some b)
  | _ -> fail "%s: wrong parameter tensors" (Op.name op)

let eval_op op ~params ~bottoms =
  let one () =
    match bottoms with
    | [ b ] -> b
    | _ -> fail "%s expects one input" (Op.name op)
  in
  match op with
  | Op.Input _ -> fail "input nodes are not evaluated"
  | Op.Backward _ | Op.Sgd_update _ ->
      fail "training op %s has no float forward semantics" (Op.name op)
  | Op.Conv { stride; pad; group; bias = has_bias; _ } ->
      let weights, bias = weights_bias op ~has_bias params in
      Ops.conv2d ~input:(one ()) ~weights ~bias ~stride
        ~padding:(Ops.symmetric_padding pad) ~group
  | Op.Pool { method_ = Op.Max_pool; kernel_size; stride } ->
      Ops.max_pool ~input:(one ()) ~kernel:kernel_size ~stride
  | Op.Pool { method_ = Op.Avg_pool; kernel_size; stride } ->
      Ops.avg_pool ~input:(one ()) ~kernel:kernel_size ~stride
  | Op.Global_pool Op.Avg_pool -> Ops.global_avg_pool ~input:(one ())
  | Op.Global_pool Op.Max_pool -> global_max_pool (one ())
  | Op.Fc { bias = has_bias; _ } ->
      let weights, bias = weights_bias op ~has_bias params in
      Ops.fully_connected ~input:(Ops.flatten (one ())) ~weights ~bias
  | Op.Act act -> activation act (one ())
  | Op.Lrn { local_size; alpha; beta; k } ->
      Ops.lrn ~input:(one ()) ~local_size ~alpha ~beta ~k
  | Op.Lcn { window; epsilon } -> Ops.lcn ~window ~epsilon (one ())
  | Op.Dropout { ratio } -> Ops.dropout_inference ~ratio (one ())
  | Op.Softmax -> Ops.softmax (one ())
  | Op.Recurrent { steps; bias = has_bias; _ } -> begin
      let input = Ops.flatten (one ()) in
      match params, has_bias with
      | [ w_in; w_rec ], false ->
          Ops.recurrent_forward ~w_in ~w_rec ~bias:None ~steps input
      | [ w_in; w_rec; b ], true ->
          Ops.recurrent_forward ~w_in ~w_rec ~bias:(Some b) ~steps input
      | _ -> fail "RECURRENT: wrong parameter tensors"
    end
  | Op.Associative { cells_per_dim; active_cells } ->
      Ops.associative_encode ~cells_per_dim ~active_cells
        (Ops.flatten (one ()))
  | Op.Concat -> Ops.concat_channels bottoms
  | Op.Classifier { top_k } ->
      Ops.classify_top_k ~top_k (Ops.flatten (one ()))

let forward (g : Graph.t) params ~inputs =
  (* O(1) blob lookup; [order] keeps the production-order listing that the
     caller sees, rebindings included. *)
  let env : (string, Tensor.t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let blob name =
    match Hashtbl.find_opt env name with
    | Some t -> t
    | None -> fail "blob %S not available" name
  in
  Graph.iter g (fun n ->
      let out =
        match n.Graph.op with
        | Op.Input { shape } -> begin
            match n.Graph.outputs with
            | [ top ] -> begin
                match List.assoc_opt top inputs with
                | Some t ->
                    if not (Shape.equal (Tensor.shape t) shape) then
                      fail "input %S: expected shape %s, got %s" top
                        (Shape.to_string shape)
                        (Shape.to_string (Tensor.shape t));
                    t
                | None -> fail "missing input tensor for blob %S" top
              end
            | [] | _ :: _ :: _ -> fail "input node must have exactly one output"
          end
        | op ->
            let bottoms = List.map blob n.Graph.inputs in
            let params = Db_nn.Params.get params n.Graph.node_name in
            eval_op op ~params ~bottoms
      in
      List.iter
        (fun top ->
          Hashtbl.replace env top out;
          order := (top, out) :: !order)
        n.Graph.outputs);
  List.rev !order

let output (g : Graph.t) params ~inputs =
  let env = forward g params ~inputs in
  match Graph.output_blobs g with
  | [ blob ] -> List.assoc blob env
  | blobs ->
      fail "graph has %d output blobs, expected exactly one" (List.length blobs)
