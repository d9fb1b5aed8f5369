module Tensor = Db_tensor.Tensor
module Params = Db_nn.Params
module Graph = Db_ir.Graph
module Op = Db_ir.Op

type sample = { input : Tensor.t; target : Tensor.t }

type config = {
  epochs : int;
  batch_size : int;
  learning_rate : float;
  momentum : float;
  weight_decay : float;
  loss : Loss.t;
}

let default_config =
  {
    epochs = 20;
    batch_size = 16;
    learning_rate = 0.05;
    momentum = 0.9;
    weight_decay = 0.0;
    loss = Loss.Mean_squared_error;
  }

type history = { losses : float array; final_loss : float }

let fail fmt = Db_util.Error.failf_at ~component:"trainer" fmt

(* The trainable chain: non-input IR nodes in order, validated sequential.
   Lowering copies each frontend layer as one op, so the chain mirrors the
   network node-for-node.  An op [Backprop] cannot differentiate is
   rejected here, classified, rather than discovered mid-epoch. *)
let chain_of_graph (g : Graph.t) =
  let nodes =
    List.filter (fun n -> not (Op.is_input n.Graph.op)) g.Graph.nodes
  in
  let rec check previous_top = function
    | [] -> ()
    | node :: rest -> begin
        match node.Graph.inputs, node.Graph.outputs with
        | [ bottom ], [ top ] ->
            if bottom <> previous_top then
              fail "network is not a chain: %S consumes %S, expected %S"
                node.Graph.node_name bottom previous_top;
            check top rest
        | _ -> fail "node %S is not single-bottom/single-top" node.Graph.node_name
      end
  in
  (match g.Graph.nodes with
  | first :: _ -> begin
      match first.Graph.op, first.Graph.outputs with
      | Op.Input _, [ top ] -> check top nodes
      | _ -> fail "first node must be the input"
    end
  | [] -> fail "empty network");
  List.iter
    (fun node ->
      if not (Backprop.supported node.Graph.op) then
        fail "layer %S (%s) is not trainable by backprop"
          node.Graph.node_name (Op.name node.Graph.op))
    nodes;
  nodes

let chain_of_network net =
  let g = Db_ir.Lower.lower net in
  Db_ir.Verify.check_exn g;
  chain_of_graph g

let forward_chain chain params input =
  let rec go input acc = function
    | [] -> (input, List.rev acc)
    | node :: rest ->
        let p = Params.get params node.Graph.node_name in
        let output, cache =
          Backprop.forward_op ~op:node.Graph.op ~params:p ~input
        in
        go output ((node, cache) :: acc) rest
  in
  go input [] chain

let backward_chain caches grad_out grads =
  let rec go grad = function
    | [] -> ()
    | (node, cache) :: rest -> begin
        let grad_input, grad_params = Backprop.backward_layer cache ~grad_output:grad in
        if grad_params <> [] then begin
          let name = node.Graph.node_name in
          let existing = Hashtbl.find_opt grads name in
          let merged =
            match existing with
            | None -> List.map Tensor.copy grad_params
            | Some acc -> List.map2 Tensor.add acc grad_params
          in
          Hashtbl.replace grads name merged
        end;
        match grad_input with
        | Some g -> go g rest
        | None -> ()  (* e.g. Associative: nothing upstream is trainable *)
      end
  in
  go grad_out (List.rev caches)

let apply_updates ~config ~velocities params grads batch_size =
  let scale = config.learning_rate /. float_of_int batch_size in
  Hashtbl.iter
    (fun name grad_tensors ->
      let weights = Params.get params name in
      let vels =
        match Hashtbl.find_opt velocities name with
        | Some v -> v
        | None ->
            let v = List.map (fun t -> Tensor.create (Tensor.shape t)) weights in
            Hashtbl.replace velocities name v;
            v
      in
      List.iteri
        (fun i weight ->
          let grad = List.nth grad_tensors i in
          let vel = List.nth vels i in
          for j = 0 to Tensor.numel weight - 1 do
            let g =
              (Tensor.unsafe_get grad j *. scale)
              +. (config.weight_decay *. Tensor.unsafe_get weight j)
            in
            let v = (config.momentum *. Tensor.unsafe_get vel j) -. g in
            Tensor.unsafe_set vel j v;
            Tensor.unsafe_set weight j (Tensor.unsafe_get weight j +. v)
          done)
        weights)
    grads

let train ?(config = default_config) ~rng net params samples =
  if Array.length samples = 0 then fail "no training samples";
  let chain = chain_of_network net in
  let velocities = Hashtbl.create 8 in
  let order = Array.init (Array.length samples) (fun i -> i) in
  let losses =
    Array.init config.epochs (fun _epoch ->
        Db_util.Rng.shuffle rng order;
        let epoch_loss = ref 0.0 in
        let i = ref 0 in
        while !i < Array.length order do
          let batch_end = Stdlib.min (Array.length order) (!i + config.batch_size) in
          let grads = Hashtbl.create 8 in
          for j = !i to batch_end - 1 do
            let sample = samples.(order.(j)) in
            let prediction, caches = forward_chain chain params sample.input in
            epoch_loss :=
              !epoch_loss
              +. Loss.forward config.loss ~prediction ~target:sample.target;
            let grad_out =
              Loss.backward config.loss ~prediction ~target:sample.target
            in
            backward_chain caches grad_out grads
          done;
          apply_updates ~config ~velocities params grads (batch_end - !i);
          i := batch_end
        done;
        !epoch_loss /. float_of_int (Array.length samples))
  in
  {
    losses;
    final_loss = (if config.epochs = 0 then nan else losses.(config.epochs - 1));
  }

let mean_loss ~loss net params samples =
  let chain = chain_of_network net in
  let total = ref 0.0 in
  Array.iter
    (fun sample ->
      let prediction, _ = forward_chain chain params sample.input in
      total := !total +. Loss.forward loss ~prediction ~target:sample.target)
    samples;
  !total /. float_of_int (Array.length samples)

let classification_accuracy net params samples =
  if Array.length samples = 0 then fail "no evaluation samples";
  let g = Db_ir.Lower.lower net in
  let input_blob =
    match Graph.input_nodes g with
    | [ node ] -> begin
        match node.Graph.outputs with
        | [ top ] -> top
        | _ -> fail "input node must have one top"
      end
    | _ -> fail "expected exactly one input node"
  in
  let correct = ref 0 in
  Array.iter
    (fun (input, label) ->
      let out = Db_ir.Interp.output g params ~inputs:[ (input_blob, input) ] in
      if Tensor.max_index out = label then incr correct)
    samples;
  float_of_int !correct /. float_of_int (Array.length samples)
