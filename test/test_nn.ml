(* Tests for db_nn: network graph, shape inference, Caffe import/export,
   the float interpreter and the quantized interpreter. *)

module Shape = Db_tensor.Shape
module Tensor = Db_tensor.Tensor
module Network = Db_nn.Network
module Layer = Db_nn.Layer
module Params = Db_nn.Params
module Caffe = Db_nn.Caffe

let node name layer bottoms tops =
  { Network.node_name = name; layer; bottoms; tops }

let tiny_mlp () =
  Network.create ~name:"tiny"
    [
      node "in" (Layer.Input { shape = Shape.vector 2 }) [] [ "data" ];
      node "fc" (Layer.Fc { num_output = 3; bias = true }) [ "data" ] [ "h" ];
      node "act" (Layer.Act Layer.Relu) [ "h" ] [ "out" ];
    ]

let test_create_and_order () =
  (* Nodes given out of order are topologically sorted. *)
  let net =
    Network.create ~name:"disorder"
      [
        node "act" (Layer.Act Layer.Relu) [ "h" ] [ "out" ];
        node "fc" (Layer.Fc { num_output = 3; bias = true }) [ "data" ] [ "h" ];
        node "in" (Layer.Input { shape = Shape.vector 2 }) [] [ "data" ];
      ]
  in
  Alcotest.(check (list string))
    "topological order" [ "in"; "fc"; "act" ]
    (List.map (fun n -> n.Network.node_name) net.Network.nodes)

let expect_network_error nodes fragment =
  match Network.create ~name:"bad" nodes with
  | (_ : Network.t) -> Alcotest.failf "expected failure (%s)" fragment
  | exception Db_util.Error.Deepburning_error msg ->
      let contains =
        let nl = String.length fragment and hl = String.length msg in
        let rec go i = i + nl <= hl && (String.sub msg i nl = fragment || go (i + 1)) in
        go 0
      in
      if not contains then Alcotest.failf "error %S lacks %S" msg fragment

let test_validation_errors () =
  expect_network_error
    [
      node "in" (Layer.Input { shape = Shape.vector 2 }) [] [ "data" ];
      node "fc"
        (Layer.Fc { num_output = 3; bias = true })
        [ "nope" ] [ "h" ];
    ]
    "unknown blob";
  expect_network_error
    [
      node "a" (Layer.Input { shape = Shape.vector 2 }) [] [ "data" ];
      node "a" (Layer.Act Layer.Relu) [ "data" ] [ "out" ];
    ]
    "duplicate";
  expect_network_error
    [ node "fc" (Layer.Fc { num_output = 3; bias = true }) [] [ "h" ] ]
    "expects 1 bottom";
  (* Training ops are IR-only; the frontend never makes them, so a network
     holding one is rejected as a validation error. *)
  let input = node "in" (Layer.Input { shape = Shape.vector 2 }) [] [ "data" ] in
  expect_network_error
    [ input; node "up" (Layer.Sgd_update { target = "fc" }) [ "data" ] [ "w" ] ]
    "network: layer \"up\": training op SGD_UPDATE"

let test_output_blobs () =
  let net = tiny_mlp () in
  Alcotest.(check (list string)) "outputs" [ "out" ] (Network.output_blobs net);
  Alcotest.(check int) "layer count" 2 (Network.layer_count net)

let test_shape_inference_mlp () =
  let shapes = Db_nn.Shape_infer.infer (tiny_mlp ()) in
  Alcotest.(check string) "hidden" "3"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "h"));
  Alcotest.(check string) "out" "3"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "out"))

let test_shape_inference_cnn () =
  let net = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.alexnet_prototxt in
  let shapes = Db_nn.Shape_infer.infer net in
  Alcotest.(check string) "conv1" "96x55x55"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "conv1"));
  Alcotest.(check string) "pool1" "96x27x27"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "pool1"));
  Alcotest.(check string) "conv2 grouped" "256x27x27"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "conv2"));
  Alcotest.(check string) "pool5" "256x6x6"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "pool5"));
  Alcotest.(check string) "fc8" "1000"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "fc8"))

let test_params_shapes_and_count () =
  let net = tiny_mlp () in
  let rng = Db_util.Rng.create 1 in
  let params = Params.init_xavier rng net in
  Params.validate net params;
  Alcotest.(check int) "param count" ((3 * 2) + 3) (Params.count_parameters net params)

let test_params_validate_catches () =
  let net = tiny_mlp () in
  let params = Params.create () in
  Params.set params "fc" [ Tensor.create (Shape.of_list [ 4; 2 ]) ];
  match Params.validate net params with
  | () -> Alcotest.fail "expected shape mismatch"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_interpreter_fc () =
  let net = tiny_mlp () in
  let params = Params.create () in
  Params.set params "fc"
    [
      Tensor.of_array (Shape.of_list [ 3; 2 ]) [| 1.; 0.; 0.; 1.; -1.; -1. |];
      Tensor.of_array (Shape.vector 3) [| 0.0; 0.0; 0.5 |];
    ];
  let input = Tensor.of_array (Shape.vector 2) [| 2.0; 3.0 |] in
  let out = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("data", input) ] in
  (* fc: [2; 3; -4.5], relu: [2; 3; 0] *)
  Alcotest.(check bool) "values" true
    (Tensor.equal_approx out (Tensor.of_array (Shape.vector 3) [| 2.0; 3.0; 0.0 |]))

let test_interpreter_recurrent_zero_feedback () =
  (* With w_rec = 0 the recurrent layer equals tanh(fc). *)
  let net =
    Network.create ~name:"rec"
      [
        node "in" (Layer.Input { shape = Shape.vector 2 }) [] [ "x" ];
        node "r" (Layer.Recurrent { num_output = 2; steps = 4; bias = false }) [ "x" ] [ "h" ];
      ]
  in
  let params = Params.create () in
  let w_in = Tensor.of_array (Shape.of_list [ 2; 2 ]) [| 1.; 0.; 0.; 1. |] in
  Params.set params "r" [ w_in; Tensor.create (Shape.of_list [ 2; 2 ]) ];
  let input = Tensor.of_array (Shape.vector 2) [| 0.5; -0.5 |] in
  let out = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("x", input) ] in
  Alcotest.(check bool) "tanh identity" true
    (Tensor.equal_approx ~tol:1e-9 out
       (Tensor.of_array (Shape.vector 2) [| Float.tanh 0.5; Float.tanh (-0.5) |]))

let test_associative_encoding () =
  let input = Tensor.of_array (Shape.vector 1) [| 0.0 |] in
  let out = Db_tensor.Ops.associative_encode ~cells_per_dim:8 ~active_cells:3 input in
  Alcotest.(check int) "size" 8 (Tensor.numel out);
  (* x = 0 hits cell 0; of the 3 centred cells only 0 and 1 are in range. *)
  Alcotest.(check bool) "cell 0 active" true (Tensor.get out 0 > 0.0);
  Alcotest.(check bool) "cell 1 active" true (Tensor.get out 1 > 0.0);
  Alcotest.(check bool) "cell 3 inactive" true (Tensor.get out 3 = 0.0)

let test_associative_sparsity () =
  let input = Tensor.of_array (Shape.vector 2) [| 0.5; 0.9 |] in
  let out =
    Db_tensor.Ops.associative_encode ~cells_per_dim:16 ~active_cells:4 input
  in
  let active = Tensor.fold (fun acc x -> if x > 0.0 then acc + 1 else acc) 0 out in
  Alcotest.(check bool) "at most 2*4 active" true (active <= 8);
  Alcotest.(check bool) "at least 2 active" true (active >= 2)

let test_classifier_topk () =
  let net =
    Network.create ~name:"cls"
      [
        node "in" (Layer.Input { shape = Shape.vector 5 }) [] [ "scores" ];
        node "k" (Layer.Classifier { top_k = 3 }) [ "scores" ] [ "top" ];
      ]
  in
  let input = Tensor.of_array (Shape.vector 5) [| 0.1; 0.9; 0.3; 0.9; 0.0 |] in
  let out = Db_ir.Interp.output (Db_ir.Lower.lower net) (Params.create ()) ~inputs:[ ("scores", input) ] in
  (* Ties broken by lower index: 1 before 3. *)
  Alcotest.(check bool) "top3" true
    (Tensor.equal_approx out (Tensor.of_array (Shape.vector 3) [| 1.0; 3.0; 2.0 |]))

let test_caffe_import_roundtrip () =
  let net = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mnist_prototxt in
  let exported = Caffe.export_string net in
  let reimported = Caffe.import_string exported in
  Alcotest.(check int) "same node count"
    (List.length net.Network.nodes)
    (List.length reimported.Network.nodes);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "node name" a.Network.node_name b.Network.node_name;
      Alcotest.(check bool) "layer equal" true (Layer.equal a.Network.layer b.Network.layer))
    net.Network.nodes reimported.Network.nodes

let test_caffe_all_zoo_roundtrip () =
  List.iter
    (fun (name, net) ->
      let re = Caffe.import_string (Caffe.export_string net) in
      Alcotest.(check int) (name ^ " nodes")
        (List.length net.Network.nodes)
        (List.length re.Network.nodes))
    Db_workloads.Model_zoo.table1_models

let test_caffe_default_top () =
  (* Caffe's in-place convention: top defaults to the layer name. *)
  let net =
    Caffe.import_string
      {|
layers { name: "data" type: INPUT input_param { dim: 4 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "data"
  inner_product_param { num_output: 2 } }
|}
  in
  let fc = Network.find_node net "fc" in
  Alcotest.(check (list string)) "top defaults" [ "fc" ] fc.Network.tops

let test_caffe_rejects_unknown_type () =
  match Caffe.import_string
          {|layers { name: "x" type: FROBNICATE top: "x" }|}
  with
  | (_ : Network.t) -> Alcotest.fail "expected unknown-type failure"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_model_stats_macs () =
  let net = tiny_mlp () in
  let stats = Db_nn.Model_stats.compute net in
  Alcotest.(check int) "fc macs" 6 stats.Db_nn.Model_stats.total_macs;
  Alcotest.(check int) "params" 9 stats.Db_nn.Model_stats.total_params

let test_model_stats_alexnet () =
  let net = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.alexnet_prototxt in
  let stats = Db_nn.Model_stats.compute net in
  (* Published AlexNet numbers: ~0.7 GMAC forward, ~61 M parameters. *)
  let gmacs = float_of_int stats.Db_nn.Model_stats.total_macs /. 1e9 in
  if gmacs < 0.6 || gmacs > 0.8 then Alcotest.failf "AlexNet GMACs = %.3f" gmacs;
  let mparams = float_of_int stats.Db_nn.Model_stats.total_params /. 1e6 in
  if mparams < 55.0 || mparams > 65.0 then Alcotest.failf "AlexNet Mparams = %.1f" mparams

let test_decomposition_table1 () =
  let d net = Db_nn.Model_stats.decompose net in
  let mlp = d (Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mlp_prototxt) in
  Alcotest.(check bool) "MLP no conv" false mlp.Db_nn.Model_stats.has_conv;
  Alcotest.(check bool) "MLP has fc" true mlp.Db_nn.Model_stats.has_fc;
  let alex = d (Db_workloads.Model_zoo.build Db_workloads.Model_zoo.alexnet_prototxt) in
  Alcotest.(check bool) "AlexNet conv" true alex.Db_nn.Model_stats.has_conv;
  Alcotest.(check bool) "AlexNet dropout" true alex.Db_nn.Model_stats.has_dropout;
  Alcotest.(check bool) "AlexNet lrn" true alex.Db_nn.Model_stats.has_lrn;
  let cmac = d (Db_workloads.Model_zoo.build Db_workloads.Model_zoo.cmac_prototxt) in
  Alcotest.(check bool) "CMAC associative" true cmac.Db_nn.Model_stats.has_associative;
  Alcotest.(check bool) "CMAC recurrent" true cmac.Db_nn.Model_stats.has_recurrent

let test_quantized_matches_float_mlp () =
  let net = tiny_mlp () in
  let rng = Db_util.Rng.create 5 in
  let params = Params.init_xavier rng net in
  let input = Tensor.random_uniform rng (Shape.vector 2) ~min:(-1.0) ~max:1.0 in
  let float_out = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("data", input) ] in
  let fixed_out =
    Db_nn.Quantized.output ~fmt:Db_fixed.Fixed.q16_8 net params
      ~inputs:[ ("data", input) ]
  in
  Alcotest.(check bool) "within quantisation noise" true
    (Tensor.equal_approx ~tol:0.05 float_out fixed_out)

let test_quantized_wider_is_closer () =
  let net = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.cifar_lite_prototxt in
  let rng = Db_util.Rng.create 9 in
  let params = Params.init_xavier rng net in
  let input =
    Tensor.random_uniform rng (Shape.chw ~channels:3 ~height:16 ~width:16)
      ~min:0.0 ~max:1.0
  in
  let float_out = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("data", input) ] in
  let dist fmt =
    let q = Db_nn.Quantized.output ~fmt net params ~inputs:[ ("data", input) ] in
    Tensor.l2_distance float_out q
  in
  let wide = dist Db_fixed.Fixed.q24_12 and narrow = dist Db_fixed.Fixed.q8_4 in
  Alcotest.(check bool) "wider format is at least as close" true (wide <= narrow +. 1e-9)

let test_quantized_avg_pool_shift () =
  (* Power-of-two pooling area uses the exact shifting latch. *)
  let net =
    Network.create ~name:"pool"
      [
        node "in" (Layer.Input { shape = Shape.chw ~channels:1 ~height:2 ~width:2 }) [] [ "x" ];
        node "p"
          (Layer.Pool { method_ = Layer.Avg_pool; kernel_size = 2; stride = 2 })
          [ "x" ] [ "y" ];
      ]
  in
  let input =
    Tensor.of_array (Shape.chw ~channels:1 ~height:2 ~width:2) [| 1.0; 2.0; 3.0; 4.0 |]
  in
  let out =
    Db_nn.Quantized.output ~fmt:Db_fixed.Fixed.q16_8 net (Params.create ())
      ~inputs:[ ("x", input) ]
  in
  Alcotest.(check (float 1e-6)) "exact mean" 2.5 (Tensor.get out 0)

let suite =
  [
    ( "nn.network",
      [
        Alcotest.test_case "topological sort" `Quick test_create_and_order;
        Alcotest.test_case "validation" `Quick test_validation_errors;
        Alcotest.test_case "outputs" `Quick test_output_blobs;
      ] );
    ( "nn.shapes",
      [
        Alcotest.test_case "mlp" `Quick test_shape_inference_mlp;
        Alcotest.test_case "alexnet" `Quick test_shape_inference_cnn;
      ] );
    ( "nn.params",
      [
        Alcotest.test_case "xavier init" `Quick test_params_shapes_and_count;
        Alcotest.test_case "validate" `Quick test_params_validate_catches;
      ] );
    ( "nn.interpreter",
      [
        Alcotest.test_case "fc+relu" `Quick test_interpreter_fc;
        Alcotest.test_case "recurrent" `Quick test_interpreter_recurrent_zero_feedback;
        Alcotest.test_case "associative" `Quick test_associative_encoding;
        Alcotest.test_case "associative sparsity" `Quick test_associative_sparsity;
        Alcotest.test_case "classifier top-k" `Quick test_classifier_topk;
      ] );
    ( "nn.caffe",
      [
        Alcotest.test_case "mnist roundtrip" `Quick test_caffe_import_roundtrip;
        Alcotest.test_case "zoo roundtrip" `Quick test_caffe_all_zoo_roundtrip;
        Alcotest.test_case "default top" `Quick test_caffe_default_top;
        Alcotest.test_case "unknown type" `Quick test_caffe_rejects_unknown_type;
      ] );
    ( "nn.stats",
      [
        Alcotest.test_case "tiny macs" `Quick test_model_stats_macs;
        Alcotest.test_case "alexnet macs/params" `Quick test_model_stats_alexnet;
        Alcotest.test_case "table1 decomposition" `Quick test_decomposition_table1;
      ] );
    ( "nn.quantized",
      [
        Alcotest.test_case "matches float" `Quick test_quantized_matches_float_mlp;
        Alcotest.test_case "wider closer" `Quick test_quantized_wider_is_closer;
        Alcotest.test_case "avg pool shift" `Quick test_quantized_avg_pool_shift;
      ] );
  ]
