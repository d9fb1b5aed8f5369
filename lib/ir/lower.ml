(* Lowering [Db_nn.Network.t] into the IR.  The network is already
   topologically sorted and validated by [Network.create]; lowering copies
   each node's layer as its op and computes its attributes exactly once.  Pass
   [~fmt] to stamp the datapath quantization format on every node. *)

let lower ?fmt (net : Db_nn.Network.t) : Graph.t =
  let nodes =
    List.map
      (fun (n : Db_nn.Network.node) ->
        {
          Graph.id = 0;
          node_name = n.Db_nn.Network.node_name;
          op = n.Db_nn.Network.layer;
          inputs = n.Db_nn.Network.bottoms;
          outputs = n.Db_nn.Network.tops;
          in_shapes = [];
          (* placeholder; [Annot.reannotate] computes the real shape *)
          out_shape = Db_tensor.Shape.vector 1;
          param_shapes = [];
          fmt = None;
          cost = Graph.zero_cost;
        })
      net.Db_nn.Network.nodes
  in
  Annot.reannotate ?fmt { Graph.graph_name = net.Db_nn.Network.net_name; nodes }

let fail fmt = Db_util.Error.failf_at ~component:"ir-lower" fmt

(* Ops the derived BP subgraph knows how to differentiate: those of
   [Db_train.Backprop.supported], plus RECURRENT (see [as_fc_step]). *)
let differentiable = function
  | Op.Conv _ | Op.Pool _ | Op.Global_pool _ | Op.Fc _ | Op.Act _
  | Op.Dropout _ | Op.Softmax | Op.Associative _ | Op.Lrn _ | Op.Recurrent _ ->
      true
  | Op.Input _ | Op.Lcn _ | Op.Concat | Op.Classifier _ | Op.Backward _
  | Op.Sgd_update _ ->
      false

(* The cached forward tensor a backward kernel reads: sigmoid/tanh/softmax
   derivatives are functions of the forward *output*; everything else
   replays the forward *input* (receptive fields, argmax routing, ReLU
   masks).  Either way the blob shares the dX shape. *)
let backward_reference op ~bottom ~top =
  match op with
  | Op.Act (Op.Sigmoid | Op.Tanh) | Op.Softmax -> top
  | _ -> bottom

let placeholder ~node_name ~op ~inputs ~outputs =
  {
    Graph.id = 0;
    node_name;
    op;
    inputs;
    outputs;
    in_shapes = [];
    out_shape = Db_tensor.Shape.vector 1;
    param_shapes = [];
    fmt = None;
    cost = Graph.zero_cost;
  }

(* A recurrent layer trains as one FC+tanh step with its feedback weights
   held: a tanh-derivative node turns [dy] into the pre-activation gradient
   ["d:" ^ top ^ ":pre"], which the FC kernels then carry to dW (input
   weights and bias) and dX.  Returns the extra BP nodes, the op the
   weight and input gradients differentiate, and the gradient they read. *)
let as_fc_step (n : Graph.node) ~dy =
  match n.Graph.op with
  | Op.Recurrent { num_output; bias; _ } ->
      let top = List.hd n.Graph.outputs in
      let pre = "d:" ^ top ^ ":pre" in
      ( [
          placeholder
            ~node_name:("bp_dx:" ^ n.Graph.node_name ^ ":tanh")
            ~op:(Op.Backward { fwd = Op.Act Op.Tanh; wrt = Op.Wrt_input })
            ~inputs:[ dy; top ] ~outputs:[ pre ];
        ],
        Op.Fc { num_output; bias },
        pre )
  | op -> ([], op, dy)

(* Training-mode lowering: the forward chain, a BP subgraph
   walking it in reverse, and one SGD update node per weighted layer.
   Gradient blobs are ["d:" ^ blob], weight-gradient vectors
   ["g:" ^ node], updated-weight markers ["w:" ^ node]; the loss gradient
   seed is an input node producing ["d:" ^ final_top].  Only sequential
   single-top chains are supported: the graphs the software
   [Db_train.Trainer] accepts, plus recurrent layers ([as_fc_step]). *)
let lower_training ?fmt (net : Db_nn.Network.t) : Graph.t =
  let g = lower ?fmt net in
  let nodes = g.Graph.nodes in
  let input_blobs = Hashtbl.create 4 in
  List.iter
    (fun (n : Graph.node) ->
      if Op.is_input n.Graph.op then
        List.iter (fun top -> Hashtbl.replace input_blobs top ()) n.Graph.outputs)
    nodes;
  let chain =
    List.filter (fun (n : Graph.node) -> not (Op.is_input n.Graph.op)) nodes
  in
  (match chain with [] -> fail "network %S has no trainable layers" g.Graph.graph_name | _ -> ());
  List.iter
    (fun (n : Graph.node) ->
      if not (differentiable n.Graph.op) then
        fail "layer %S (%s) is not differentiable: cannot lower for training"
          n.Graph.node_name (Op.name n.Graph.op);
      match n.Graph.inputs, n.Graph.outputs with
      | [ _ ], [ _ ] -> ()
      | _ ->
          fail "layer %S is not single-bottom/single-top: training lowering \
                supports sequential chains only"
            n.Graph.node_name)
    chain;
  let final_top =
    match List.rev chain with
    | last :: _ -> List.hd last.Graph.outputs
    | [] -> fail "empty chain"
  in
  let seed =
    let last = List.hd (List.rev chain) in
    placeholder ~node_name:"grad:seed"
      ~op:(Op.Input { shape = last.Graph.out_shape })
      ~inputs:[] ~outputs:[ "d:" ^ final_top ]
  in
  (* BP nodes, last layer first.  An op whose backward yields no input
     gradient (Associative) stops propagation: layers upstream of it get
     neither dX nor dW, matching the software trainer. *)
  let bp_nodes, updated =
    let rec go acc updated propagating = function
      | [] -> (acc, updated)
      | (n : Graph.node) :: rest ->
          if not propagating then (acc, updated)
          else begin
            let bottom = List.hd n.Graph.inputs
            and top = List.hd n.Graph.outputs in
            let step, fwd, dy = as_fc_step n ~dy:("d:" ^ top) in
            let acc = List.rev_append step acc in
            let reference = backward_reference fwd ~bottom ~top in
            let acc, updated =
              if Op.is_weighted fwd then
                ( placeholder
                    ~node_name:("bp_dw:" ^ n.Graph.node_name)
                    ~op:(Op.Backward { fwd; wrt = Op.Wrt_params })
                    ~inputs:[ dy; bottom ]
                    ~outputs:[ "g:" ^ n.Graph.node_name ]
                  :: acc,
                  n.Graph.node_name :: updated )
              else (acc, updated)
            in
            let stops = match n.Graph.op with Op.Associative _ -> true | _ -> false in
            if stops then (acc, updated)
            else if Hashtbl.mem input_blobs bottom then
              (* The gradient w.r.t. the network input is never consumed;
                 real FF/BP/UP designs skip computing it. *)
              go acc updated false rest
            else
              go
                (placeholder
                   ~node_name:("bp_dx:" ^ n.Graph.node_name)
                   ~op:(Op.Backward { fwd; wrt = Op.Wrt_input })
                   ~inputs:[ dy; reference ]
                   ~outputs:[ "d:" ^ bottom ]
                 :: acc)
                updated true rest
          end
    in
    go [] [] true (List.rev chain)
  in
  let bp_nodes = List.rev bp_nodes in
  let up_nodes =
    List.filter_map
      (fun (n : Graph.node) ->
        if List.mem n.Graph.node_name updated then
          Some
            (placeholder
               ~node_name:("up:" ^ n.Graph.node_name)
               ~op:(Op.Sgd_update { target = n.Graph.node_name })
               ~inputs:[ "g:" ^ n.Graph.node_name ]
               ~outputs:[ "w:" ^ n.Graph.node_name ])
        else None)
      chain
  in
  Annot.reannotate ?fmt
    {
      Graph.graph_name = g.Graph.graph_name ^ ":train";
      nodes = nodes @ (seed :: bp_nodes) @ up_nodes;
    }
