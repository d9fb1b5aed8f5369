module Ast = Db_prototxt.Ast
module Shape = Db_tensor.Shape

let fail fmt = Db_util.Error.failf_at ~component:"caffe" fmt

let pool_method_of_enum name = function
  | "MAX" -> Layer.Max_pool
  | "AVE" | "AVERAGE" -> Layer.Avg_pool
  | other -> fail "layer %S: unknown pooling method %S" name other

let import_layer name type_enum fields =
  match String.uppercase_ascii type_enum with
  | "INPUT" -> begin
      match Ast.opt_message fields "input_param" with
      | Some p -> begin
          match Ast.ints p "dim" with
          | [] -> fail "layer %S: input_param needs at least one dim" name
          | dims -> Layer.Input { shape = Shape.of_list dims }
        end
      | None -> fail "layer %S: INPUT requires input_param { dim: ... }" name
    end
  | "CONVOLUTION" ->
      let p =
        match Ast.opt_message fields "convolution_param" with
        | Some p -> p
        | None -> begin
            (* Fig. 4 of the paper uses a bare [param { ... }] block. *)
            match Ast.opt_message fields "param" with
            | Some p -> p
            | None -> fail "layer %S: missing convolution_param" name
          end
      in
      Layer.Conv
        {
          num_output = Ast.find_int p "num_output";
          kernel_size = Ast.find_int p "kernel_size";
          stride = Option.value ~default:1 (Ast.opt_int p "stride");
          pad = Option.value ~default:0 (Ast.opt_int p "pad");
          group = Option.value ~default:1 (Ast.opt_int p "group");
          bias =
            (match Ast.opt_enum p "bias_term" with
            | Some "false" -> false
            | Some _ | None -> true);
        }
  | "POOLING" ->
      let p =
        match Ast.opt_message fields "pooling_param" with
        | Some p -> p
        | None -> fail "layer %S: missing pooling_param" name
      in
      Layer.Pool
        {
          method_ =
            (match Ast.opt_enum p "pool" with
            | Some m -> pool_method_of_enum name m
            | None -> Layer.Max_pool);
          kernel_size = Ast.find_int p "kernel_size";
          stride = Option.value ~default:1 (Ast.opt_int p "stride");
        }
  | "GLOBAL_POOLING" ->
      let method_ =
        match Ast.opt_message fields "pooling_param" with
        | Some p -> begin
            match Ast.opt_enum p "pool" with
            | Some m -> pool_method_of_enum name m
            | None -> Layer.Avg_pool
          end
        | None -> Layer.Avg_pool
      in
      Layer.Global_pool method_
  | "INNER_PRODUCT" | "FULL_CONNECTION" ->
      let p =
        match Ast.opt_message fields "inner_product_param" with
        | Some p -> p
        | None -> fail "layer %S: missing inner_product_param" name
      in
      Layer.Fc
        {
          num_output = Ast.find_int p "num_output";
          bias =
            (match Ast.opt_enum p "bias_term" with
            | Some "false" -> false
            | Some _ | None -> true);
        }
  | "RELU" -> Layer.Act Layer.Relu
  | "SIGMOID" -> Layer.Act Layer.Sigmoid
  | "TANH" -> Layer.Act Layer.Tanh
  | "SIGN" -> Layer.Act Layer.Sign
  | "LRN" ->
      let p = Option.value ~default:[] (Ast.opt_message fields "lrn_param") in
      Layer.Lrn
        {
          local_size = Option.value ~default:5 (Ast.opt_int p "local_size");
          alpha = Option.value ~default:1e-4 (Ast.opt_float p "alpha");
          beta = Option.value ~default:0.75 (Ast.opt_float p "beta");
          k = Option.value ~default:1.0 (Ast.opt_float p "k");
        }
  | "LCN" ->
      let p = Option.value ~default:[] (Ast.opt_message fields "lcn_param") in
      Layer.Lcn
        {
          window = Option.value ~default:5 (Ast.opt_int p "window");
          epsilon = Option.value ~default:0.01 (Ast.opt_float p "epsilon");
        }
  | "DROPOUT" ->
      let p =
        Option.value ~default:[] (Ast.opt_message fields "dropout_param")
      in
      Layer.Dropout
        { ratio = Option.value ~default:0.5 (Ast.opt_float p "dropout_ratio") }
  | "SOFTMAX" -> Layer.Softmax
  | "RECURRENT" ->
      let p =
        match Ast.opt_message fields "recurrent_param" with
        | Some p -> p
        | None -> fail "layer %S: missing recurrent_param" name
      in
      Layer.Recurrent
        {
          num_output = Ast.find_int p "num_output";
          steps = Option.value ~default:1 (Ast.opt_int p "steps");
          bias =
            (match Ast.opt_enum p "bias_term" with
            | Some "false" -> false
            | Some _ | None -> true);
        }
  | "ASSOCIATIVE" ->
      let p =
        match Ast.opt_message fields "associative_param" with
        | Some p -> p
        | None -> fail "layer %S: missing associative_param" name
      in
      Layer.Associative
        {
          cells_per_dim = Ast.find_int p "cells_per_dim";
          active_cells = Option.value ~default:3 (Ast.opt_int p "active_cells");
        }
  | "CONCAT" -> Layer.Concat
  | "CLASSIFIER" ->
      let p =
        Option.value ~default:[] (Ast.opt_message fields "classifier_param")
      in
      Layer.Classifier { top_k = Option.value ~default:1 (Ast.opt_int p "top_k") }
  | other -> fail "layer %S: unknown layer type %S" name other

let check_connect name fields layer =
  match Ast.opt_message fields "connect" with
  | None -> ()
  | Some connect -> begin
      match Ast.opt_enum connect "direction" with
      | Some "recurrent" -> begin
          match layer with
          | Layer.Recurrent _ -> ()
          | _ ->
              fail
                "layer %S: connect { direction: recurrent } on a \
                 non-recurrent layer"
                name
        end
      | Some "forward" | None -> ()
      | Some other -> fail "layer %S: unknown connect direction %S" name other
    end

let import doc =
  let net_name =
    Option.value ~default:"network" (Ast.opt_string doc "name")
  in
  let layer_msgs = Ast.messages doc "layers" @ Ast.messages doc "layer" in
  if layer_msgs = [] then fail "document contains no layers { ... } blocks";
  let nodes =
    List.map
      (fun fields ->
        let name = Ast.find_string fields "name" in
        let type_enum = Ast.find_enum fields "type" in
        let layer = import_layer name type_enum fields in
        check_connect name fields layer;
        let bottoms = Ast.strings fields "bottom" in
        let tops =
          match Ast.strings fields "top" with
          | [] -> [ name ]  (* Caffe's in-place default: top = layer name *)
          | tops -> tops
        in
        { Network.node_name = name; layer; bottoms; tops })
      layer_msgs
  in
  Network.create ~name:net_name nodes

let import_string src = import (Db_prototxt.Parser.parse src)

let bias_field bias =
  if bias then [] else [ Ast.Scalar ("bias_term", Ast.Enum "false") ]

let pool_enum = function Layer.Max_pool -> "MAX" | Layer.Avg_pool -> "AVE"

let export_layer layer =
  match layer with
  | Layer.Input { shape } ->
      ( "INPUT",
        [
          Ast.Message
            ( "input_param",
              List.map
                (fun d -> Ast.Scalar ("dim", Ast.Int d))
                (Shape.to_list shape) );
        ] )
  | Layer.Conv { num_output; kernel_size; stride; pad; group; bias } ->
      ( "CONVOLUTION",
        [
          Ast.Message
            ( "convolution_param",
              [
                Ast.Scalar ("num_output", Ast.Int num_output);
                Ast.Scalar ("kernel_size", Ast.Int kernel_size);
                Ast.Scalar ("stride", Ast.Int stride);
                Ast.Scalar ("pad", Ast.Int pad);
                Ast.Scalar ("group", Ast.Int group);
              ]
              @ bias_field bias );
        ] )
  | Layer.Pool { method_; kernel_size; stride } ->
      ( "POOLING",
        [
          Ast.Message
            ( "pooling_param",
              [
                Ast.Scalar ("pool", Ast.Enum (pool_enum method_));
                Ast.Scalar ("kernel_size", Ast.Int kernel_size);
                Ast.Scalar ("stride", Ast.Int stride);
              ] );
        ] )
  | Layer.Global_pool method_ ->
      ( "GLOBAL_POOLING",
        [
          Ast.Message
            ( "pooling_param",
              [
                Ast.Scalar ("pool", Ast.Enum (pool_enum method_));
              ] );
        ] )
  | Layer.Fc { num_output; bias } ->
      ( "INNER_PRODUCT",
        [
          Ast.Message
            ( "inner_product_param",
              Ast.Scalar ("num_output", Ast.Int num_output) :: bias_field bias
            );
        ] )
  | Layer.Act act -> (Layer.activation_name act, [])
  | Layer.Lrn { local_size; alpha; beta; k } ->
      ( "LRN",
        [
          Ast.Message
            ( "lrn_param",
              [
                Ast.Scalar ("local_size", Ast.Int local_size);
                Ast.Scalar ("alpha", Ast.Float alpha);
                Ast.Scalar ("beta", Ast.Float beta);
                Ast.Scalar ("k", Ast.Float k);
              ] );
        ] )
  | Layer.Lcn { window; epsilon } ->
      ( "LCN",
        [
          Ast.Message
            ( "lcn_param",
              [
                Ast.Scalar ("window", Ast.Int window);
                Ast.Scalar ("epsilon", Ast.Float epsilon);
              ] );
        ] )
  | Layer.Dropout { ratio } ->
      ( "DROPOUT",
        [
          Ast.Message
            ("dropout_param", [ Ast.Scalar ("dropout_ratio", Ast.Float ratio) ]);
        ] )
  | Layer.Softmax -> ("SOFTMAX", [])
  | Layer.Recurrent { num_output; steps; bias } ->
      ( "RECURRENT",
        [
          Ast.Message
            ( "recurrent_param",
              [
                Ast.Scalar ("num_output", Ast.Int num_output);
                Ast.Scalar ("steps", Ast.Int steps);
              ]
              @ bias_field bias );
          Ast.Message
            ( "connect",
              [ Ast.Scalar ("direction", Ast.Enum "recurrent") ] );
        ] )
  | Layer.Associative { cells_per_dim; active_cells } ->
      ( "ASSOCIATIVE",
        [
          Ast.Message
            ( "associative_param",
              [
                Ast.Scalar ("cells_per_dim", Ast.Int cells_per_dim);
                Ast.Scalar ("active_cells", Ast.Int active_cells);
              ] );
        ] )
  | Layer.Concat -> ("CONCAT", [])
  | Layer.Classifier { top_k } ->
      ( "CLASSIFIER",
        [
          Ast.Message ("classifier_param", [ Ast.Scalar ("top_k", Ast.Int top_k) ]);
        ] )
  | Layer.Backward _ | Layer.Sgd_update _ ->
      fail "training op %s has no prototxt form" (Layer.name layer)

let export net =
  let header = [ Ast.Scalar ("name", Ast.String net.Network.net_name) ] in
  let layers =
    List.map
      (fun node ->
        let type_enum, params = export_layer node.Network.layer in
        let fields =
          [
            Ast.Scalar ("name", Ast.String node.Network.node_name);
            Ast.Scalar ("type", Ast.Enum type_enum);
          ]
          @ List.map (fun b -> Ast.Scalar ("bottom", Ast.String b)) node.Network.bottoms
          @ List.map (fun t -> Ast.Scalar ("top", Ast.String t)) node.Network.tops
          @ params
        in
        Ast.Message ("layers", fields))
      net.Network.nodes
  in
  header @ layers

let export_string net = Db_prototxt.Printer.print (export net)
