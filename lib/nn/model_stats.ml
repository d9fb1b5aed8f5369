module Shape = Db_tensor.Shape

type layer_stat = {
  stat_node : string;
  stat_layer : Layer.t;
  macs : int;
  other_ops : int;
  param_count : int;
}

type t = {
  per_layer : layer_stat list;
  total_macs : int;
  total_params : int;
}

let layer_costs layer ~bottoms ~output =
  let out_n = Shape.numel output in
  match layer with
  | Layer.Input _ -> (0, 0)
  | Layer.Conv { kernel_size; group; _ } -> begin
      match bottoms with
      | [ bottom ] ->
          let cin_g = Shape.channels bottom / group in
          (out_n * cin_g * kernel_size * kernel_size, 0)
      | [] | _ :: _ :: _ -> (0, 0)
    end
  | Layer.Pool { kernel_size; _ } -> (0, out_n * kernel_size * kernel_size)
  | Layer.Global_pool _ -> begin
      match bottoms with [ b ] -> (0, Shape.numel b) | [] | _ :: _ :: _ -> (0, 0)
    end
  | Layer.Fc _ -> begin
      match bottoms with
      | [ b ] -> (out_n * Shape.numel b, 0)
      | [] | _ :: _ :: _ -> (0, 0)
    end
  | Layer.Act _ -> (0, out_n)
  | Layer.Lrn { local_size; _ } -> (out_n * local_size, 2 * out_n)
  | Layer.Lcn { window; _ } -> (2 * out_n * window * window, 2 * out_n)
  | Layer.Dropout _ -> (0, 0)
  | Layer.Softmax -> (0, 3 * out_n)
  | Layer.Recurrent { num_output; steps; _ } -> begin
      match bottoms with
      | [ b ] ->
          ( steps * ((num_output * Shape.numel b) + (num_output * num_output)),
            steps * num_output )
      | [] | _ :: _ :: _ -> (0, 0)
    end
  | Layer.Associative _ -> begin
      match bottoms with [ b ] -> (0, Shape.numel b) | [] | _ :: _ :: _ -> (0, 0)
    end
  | Layer.Concat -> (0, 0)
  | Layer.Classifier { top_k } -> begin
      (* k-sorter comparator count: n log k comparisons, roughly. *)
      match bottoms with
      | [ b ] ->
          let n = Shape.numel b in
          let log_k = int_of_float (Float.ceil (log (float_of_int (top_k + 1)) /. log 2.0)) in
          (0, n * Stdlib.max 1 log_k)
      | [] | _ :: _ :: _ -> (0, 0)
    end
  | Layer.Backward _ | Layer.Sgd_update _ ->
      Db_util.Error.failf_at ~component:"network"
        "training op %s has no layer-level cost formula" (Layer.name layer)

let compute net =
  let shapes = Shape_infer.infer net in
  let per_layer =
    List.filter_map
      (fun node ->
        match node.Network.layer with
        | Layer.Input _ -> None
        | layer ->
            let bottoms =
              List.map (Shape_infer.blob_shape shapes) node.Network.bottoms
            in
            let output =
              Shape_infer.layer_output_shape layer bottoms
            in
            let macs, other_ops = layer_costs layer ~bottoms ~output in
            let param_count =
              match bottoms with
              | [ bottom ] ->
                  List.fold_left
                    (fun acc s -> acc + Shape.numel s)
                    0
                    (Params.expected_shapes layer ~bottom)
              | [] | _ :: _ :: _ -> 0
            in
            Some
              {
                stat_node = node.Network.node_name;
                stat_layer = layer;
                macs;
                other_ops;
                param_count;
              })
      net.Network.nodes
  in
  {
    per_layer;
    total_macs = List.fold_left (fun a s -> a + s.macs) 0 per_layer;
    total_params = List.fold_left (fun a s -> a + s.param_count) 0 per_layer;
  }

type decomposition = {
  has_conv : bool;
  has_fc : bool;
  has_act : bool;
  has_dropout : bool;
  has_lrn : bool;
  has_pooling : bool;
  has_associative : bool;
  has_recurrent : bool;
}

let decompose net =
  let has pred = Network.has_layer net pred in
  {
    has_conv = has (function Layer.Conv _ -> true | _ -> false);
    has_fc = has (function Layer.Fc _ -> true | _ -> false);
    has_act =
      has (function Layer.Act _ | Layer.Softmax -> true | _ -> false);
    has_dropout = has (function Layer.Dropout _ -> true | _ -> false);
    has_lrn = has (function Layer.Lrn _ -> true | _ -> false);
    has_pooling =
      has (function
        | Layer.Pool _ | Layer.Global_pool _ -> true
        | _ -> false);
    has_associative = has (function Layer.Associative _ -> true | _ -> false);
    has_recurrent = has (function Layer.Recurrent _ -> true | _ -> false);
  }

let pp fmt t =
  Format.fprintf fmt "%-16s %-28s %12s %10s@." "layer" "kind" "MACs" "params";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-16s %-28s %12d %10d@." s.stat_node
        (Format.asprintf "%a" Layer.pp s.stat_layer)
        s.macs s.param_count)
    t.per_layer;
  Format.fprintf fmt "total MACs %d, total params %d@." t.total_macs
    t.total_params
