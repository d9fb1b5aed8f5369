(* Shape, parameter-shape and cost attribute computation — the single
   place these are derived.  Forward ops delegate to the frontend's
   formulas ([Shape_infer], [Params], [Model_stats]), so the IR's
   attributes agree bit-for-bit with the network-level derivations. *)

module Shape = Db_tensor.Shape

let fail fmt = Db_util.Error.failf_at ~component:"ir-annot" fmt

let sum_numel shapes =
  List.fold_left (fun acc s -> acc + Shape.numel s) 0 shapes

(* Training ops never appear in a network, so their attributes are
   derived here rather than by the frontend.  A [Backward] node's
   inputs are [dY; ref] (see [Op]): the dX shape is the ref's shape, the
   dW shape is the flattened parameter vector of the forward op. *)
let backward_shapes = function
  | [ dy; reference ] -> (dy, reference)
  | shapes ->
      fail "backward op expects [dY; ref] inputs, got %d shapes"
        (List.length shapes)

let out_shape op ~in_shapes =
  match op with
  | Op.Backward { fwd; wrt } -> begin
      let _, reference = backward_shapes in_shapes in
      match wrt with
      | Op.Wrt_input -> reference
      | Op.Wrt_params ->
          Shape.vector
            (sum_numel (Db_nn.Params.expected_shapes fwd ~bottom:reference))
    end
  | Op.Sgd_update _ -> begin
      match in_shapes with
      | [ g ] -> g
      | shapes ->
          fail "SGD update expects one gradient input, got %d"
            (List.length shapes)
    end
  | _ -> Db_nn.Shape_infer.layer_output_shape op in_shapes

let param_shapes op ~in_shapes =
  match op, in_shapes with
  (* dX of a weighted op reads the (transposed) weight tensor, never the
     bias; dW reads no stored parameters at all. *)
  | Op.Backward { fwd = (Op.Conv _ | Op.Fc _) as fwd; wrt = Op.Wrt_input }, _
    -> begin
      let _, reference = backward_shapes in_shapes in
      match Db_nn.Params.expected_shapes fwd ~bottom:reference with
      | weights :: _ -> [ weights ]
      | [] -> []
    end
  | Op.Backward _, _ -> []
  (* The update op's "parameter" is the weight memory it rewrites: the
     same flat vector as its gradient input. *)
  | Op.Sgd_update _, [ g ] -> [ g ]
  | Op.Sgd_update _, _ -> []
  | _, [ bottom ] -> Db_nn.Params.expected_shapes op ~bottom
  | _, ([] | _ :: _ :: _) -> []

let cost op ~in_shapes ~out_shape ~param_shapes =
  let macs, other_ops =
    match op with
    | Op.Backward { fwd; wrt } ->
        (* Each forward MAC contributes one MAC to dX and one to dW; the
           non-MAC ops (pooling compares, activation derivatives) mirror
           the forward count.  dW additionally flushes one accumulator
           per gradient word. *)
        let dy, reference = backward_shapes in_shapes in
        let m, o =
          Db_nn.Model_stats.layer_costs fwd ~bottoms:[ reference ] ~output:dy
        in
        (match wrt with
        | Op.Wrt_input -> (m, o)
        | Op.Wrt_params -> (m, o + Shape.numel out_shape))
    | Op.Sgd_update _ ->
        (* Per weight word: one eta*g multiply-accumulate plus the
           momentum blend, then the write-back. *)
        let words = Shape.numel out_shape in
        (2 * words, words)
    | _ ->
        Db_nn.Model_stats.layer_costs op ~bottoms:in_shapes ~output:out_shape
  in
  {
    Graph.macs;
    other_ops;
    param_words = sum_numel param_shapes;
    input_words = sum_numel in_shapes;
    output_words = Shape.numel out_shape;
  }

(* Recompute every derived attribute in topological order and renumber
   ids.  Both lowerings end with this so the graph they hand to the
   verifier is always self-consistent. *)
let reannotate ?fmt (g : Graph.t) =
  let shapes : (string, Shape.t) Hashtbl.t = Hashtbl.create 32 in
  let blob_shape b =
    match Hashtbl.find_opt shapes b with
    | Some s -> s
    | None -> fail "graph %S: blob %S used before being produced" g.Graph.graph_name b
  in
  let nodes =
    List.mapi
      (fun id (n : Graph.node) ->
        let in_shapes = List.map blob_shape n.Graph.inputs in
        let out_shape = out_shape n.Graph.op ~in_shapes in
        let param_shapes = param_shapes n.Graph.op ~in_shapes in
        let cost = cost n.Graph.op ~in_shapes ~out_shape ~param_shapes in
        List.iter (fun top -> Hashtbl.replace shapes top out_shape) n.Graph.outputs;
        let fmt = match fmt with Some _ -> fmt | None -> n.Graph.fmt in
        { n with Graph.id; in_shapes; out_shape; param_shapes; fmt; cost })
      g.Graph.nodes
  in
  { g with Graph.nodes }
