(* Tests for db_ir: lowering, the structural verifier's DB-IRxxx codes,
   the float interpreter against the fixed-point datapath, the committed
   golden dumps of every zoo model, and the design cache's key on the
   lowered graph. *)

module Graph = Db_ir.Graph
module Op = Db_ir.Op
module Verify = Db_ir.Verify
module Shape = Db_tensor.Shape
module Tensor = Db_tensor.Tensor

let zoo_models = Db_workloads.Model_zoo.named

let build name = Db_workloads.Model_zoo.build (List.assoc name zoo_models)

let lower name = Db_ir.Lower.lower (build name)

(* --- lowering ----------------------------------------------------------- *)

let test_lower_mirrors_network () =
  let net = build "mnist" in
  let g = Db_ir.Lower.lower net in
  Alcotest.(check int) "node for node"
    (List.length net.Db_nn.Network.nodes)
    (List.length g.Graph.nodes);
  Alcotest.(check (list string)) "names preserved"
    (List.map (fun n -> n.Db_nn.Network.node_name) net.Db_nn.Network.nodes)
    (List.map (fun n -> n.Graph.node_name) g.Graph.nodes);
  Alcotest.(check int) "zero diagnostics" 0 (List.length (Verify.run g));
  (* Total MACs agree with the frontend's model statistics. *)
  let stats = Db_nn.Model_stats.compute net in
  Alcotest.(check int) "macs" stats.Db_nn.Model_stats.total_macs
    (Graph.total_macs g);
  Alcotest.(check int) "params" stats.Db_nn.Model_stats.total_params
    (Graph.total_params g)

let test_lower_stamps_format () =
  let fmt = Db_fixed.Fixed.q16_8 in
  let g = Db_ir.Lower.lower ~fmt (build "mlp") in
  Graph.iter g (fun n ->
      Alcotest.(check bool) (n.Graph.node_name ^ " carries q16.8") true
        (n.Graph.fmt = Some fmt))

(* --- verifier ----------------------------------------------------------- *)

let codes g = List.map (fun d -> d.Verify.code) (Verify.run g)

let has_code c g =
  if not (List.mem c (codes g)) then
    Alcotest.failf "expected %s, got [%s]" c (String.concat "; " (codes g))

(* Rebuild one node of a healthy graph, leaving every other attribute
   self-consistent so only the injected defect is reported. *)
let tamper g ~node ~f =
  {
    g with
    Graph.nodes =
      List.map
        (fun (n : Graph.node) -> if n.Graph.node_name = node then f n else n)
        g.Graph.nodes;
  }

let test_verify_empty () =
  has_code "DB-IR001" { Graph.graph_name = "empty"; nodes = [] }

let test_verify_no_input () =
  let g = lower "mlp" in
  has_code "DB-IR001"
    { g with Graph.nodes = List.tl g.Graph.nodes }

let test_verify_duplicate_name () =
  let g = lower "mlp" in
  has_code "DB-IR002" (tamper g ~node:"out" ~f:(fun n -> { n with Graph.node_name = "hidden" }))

let test_verify_duplicate_blob () =
  let g = lower "mlp" in
  has_code "DB-IR003"
    (tamper g ~node:"out" ~f:(fun n -> { n with Graph.outputs = [ "hidden" ] }))

let test_verify_dangling_edge () =
  let g = lower "mlp" in
  has_code "DB-IR004"
    (tamper g ~node:"out" ~f:(fun n -> { n with Graph.inputs = [ "nosuch" ] }))

let test_verify_cycle () =
  (* "hidden" consumes the blob "out" produced two positions later: a
     use-before-def, which is what any cycle degenerates to in a node list. *)
  let g = lower "mlp" in
  has_code "DB-IR005"
    (tamper g ~node:"hidden" ~f:(fun n -> { n with Graph.inputs = [ "out" ] }))

let test_verify_arity () =
  let g = lower "mlp" in
  has_code "DB-IR006"
    (tamper g ~node:"out" ~f:(fun n ->
         { n with Graph.inputs = [ "data"; "act" ]; in_shapes = [ Shape.vector 16; Shape.vector 32 ] }))

let test_verify_shape_mismatch () =
  let g = lower "mlp" in
  has_code "DB-IR007"
    (tamper g ~node:"out" ~f:(fun n -> { n with Graph.out_shape = Shape.vector 99 }))

let test_verify_invalid_params () =
  (* A convolution on a rank-1 blob: shape inference rejects the node. *)
  let g = lower "mlp" in
  has_code "DB-IR008"
    (tamper g ~node:"out" ~f:(fun n ->
         {
           n with
           Graph.op =
             Op.Conv
               {
                 num_output = 4;
                 kernel_size = 3;
                 stride = 1;
                 pad = 0;
                 group = 1;
                 bias = false;
               };
         }))

let test_verify_cost_mismatch () =
  let g = lower "mlp" in
  has_code "DB-IR009"
    (tamper g ~node:"out" ~f:(fun n ->
         { n with Graph.cost = { n.Graph.cost with Graph.macs = 1 } }))

let test_verify_bad_ids () =
  let g = lower "mlp" in
  has_code "DB-IR010"
    (tamper g ~node:"out" ~f:(fun n -> { n with Graph.id = 7 }))

let test_check_exn_raises () =
  let g = lower "mlp" in
  let bad = tamper g ~node:"out" ~f:(fun n -> { n with Graph.inputs = [ "nosuch" ] }) in
  match Verify.check_exn bad with
  | () -> Alcotest.fail "expected verification failure"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_zoo_verifies () =
  List.iter
    (fun (name, _) ->
      Alcotest.(check int) (name ^ " clean") 0
        (List.length (Verify.run (lower name))))
    zoo_models

(* --- interpreter ---------------------------------------------------------- *)

(* Interp and the quantized datapath model evaluate the same lowered graph
   through two implementations of every op.  With exact non-linear
   functions at Q32.16 (LSB 1.5e-5) they differ only by rounding: at most
   5.4e-5 over these models (lenet5), so 1e-3 is ~65 LSBs and any op the
   two read differently (stride, pad, window, scale) shows far above it. *)
let interp_matches_datapath name () =
  let net = build name in
  let g = Db_ir.Lower.lower net in
  let rng = Db_util.Rng.create 7 in
  let params = Db_nn.Params.init_xavier rng net in
  let input_node = List.hd (Graph.input_nodes g) in
  let blob = List.hd input_node.Graph.outputs in
  let input =
    Tensor.random_uniform rng input_node.Graph.out_shape ~min:(-1.0) ~max:1.0
  in
  let inputs = [ (blob, input) ] in
  let reference = Db_ir.Interp.output g params ~inputs in
  let datapath =
    Db_nn.Quantized.output ~fmt:Db_fixed.Fixed.q32_16 net params ~inputs
  in
  Alcotest.(check bool)
    (name ^ ": Interp within 1e-3 of the Q32.16 datapath")
    true
    (Tensor.equal_approx ~tol:1e-3 reference datapath)

(* The 224x224 ImageNet-scale models are exercised structurally by the
   golden dumps; interpreting them here would dominate the suite. *)
let interp_models =
  [ "mlp"; "cmac"; "mnist"; "cifar"; "cifar-lite"; "hopfield"; "lenet5"; "ann0" ]

(* Two networks that differ by one inference-time dropout. *)
let with_dropout =
  {|name: "k"
layers { name: "data" type: INPUT top: "data" input_param { dim: 4 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "data" top: "fc"
  inner_product_param { num_output: 3 } }
layers { name: "drop" type: DROPOUT bottom: "fc" top: "drop"
  dropout_param { dropout_ratio: 0.5 } }
layers { name: "out" type: INNER_PRODUCT bottom: "drop" top: "out"
  inner_product_param { num_output: 2 } }|}

let without_dropout =
  {|name: "k"
layers { name: "data" type: INPUT top: "data" input_param { dim: 4 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "data" top: "fc"
  inner_product_param { num_output: 3 } }
layers { name: "out" type: INNER_PRODUCT bottom: "fc" top: "out"
  inner_product_param { num_output: 2 } }|}

(* Lowering keeps the dropout node, and Interp reads it as the inference
   copy: both networks give bit-identical outputs under the same weights. *)
let test_dropout_identity () =
  let net_d = Db_workloads.Model_zoo.build with_dropout in
  let net = Db_workloads.Model_zoo.build without_dropout in
  let g_d = Db_ir.Lower.lower net_d and g = Db_ir.Lower.lower net in
  Alcotest.(check bool) "dropout node lowered" true
    (Graph.has_op g_d (function Op.Dropout _ -> true | _ -> false));
  let rng = Db_util.Rng.create 3 in
  let params = Db_nn.Params.init_xavier rng net_d in
  let inputs =
    [ ("data", Tensor.random_uniform rng (Shape.vector 4) ~min:(-1.0) ~max:1.0) ]
  in
  Alcotest.(check bool) "bit-identical outputs" true
    (Tensor.equal_bits
       (Db_ir.Interp.output g_d params ~inputs)
       (Db_ir.Interp.output g params ~inputs))

(* --- golden dumps -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let golden name () =
  let expected = read_file (Filename.concat "golden_ir" (name ^ ".ir")) in
  let actual = Db_ir.Print.to_string (lower name) in
  Alcotest.(check string) (name ^ " golden IR dump") expected actual

(* --- design-cache keying -------------------------------------------------- *)

let test_cache_key_is_generated_graph () =
  (* Dropout is a node of the lowered graph, so generation builds a
     different design with it than without it; the cache must keep the
     two apart and answer each with what the generator builds. *)
  Db_core.Design_cache.clear ();
  let cons = Db_core.Constraints.db_small in
  let net_d = Db_workloads.Model_zoo.build with_dropout in
  let net = Db_workloads.Model_zoo.build without_dropout in
  let d1 = Db_core.Design_cache.generate cons net_d in
  let d2 = Db_core.Design_cache.generate cons net in
  let hits, misses = Db_core.Design_cache.stats () in
  Alcotest.(check int) "two misses" 2 misses;
  Alcotest.(check int) "no hit" 0 hits;
  let v1 = Db_core.Design.verilog d1 and v2 = Db_core.Design.verilog d2 in
  Alcotest.(check bool) "two designs" false (String.equal v1 v2);
  let generated n = Db_core.Design.verilog (Db_core.Generator.generate cons n) in
  Alcotest.(check string) "dropout variant is its own design"
    (generated net_d) v1;
  Alcotest.(check string) "plain variant is its own design" (generated net) v2;
  Db_core.Design_cache.clear ()

(* Every zoo model's key opens with its committed golden dump: the graph
   the cache addresses is the one [ir.golden] pins. *)
let test_cache_keys_are_golden_dumps () =
  let cons = Db_core.Constraints.db_medium in
  List.iter
    (fun (name, _) ->
      let dump = read_file (Filename.concat "golden_ir" (name ^ ".ir")) in
      let key = Db_core.Design_cache.cache_key cons (build name) in
      Alcotest.(check bool) (name ^ ": key opens with the golden dump") true
        (String.starts_with ~prefix:dump key))
    zoo_models

(* The generation options follow the graph in the key: each one moves the
   key, none moves its graph part. *)
let test_cache_key_options () =
  let net = build "mnist" in
  let cons = Db_core.Constraints.db_medium in
  let dump = Db_ir.Print.to_string (Db_ir.Lower.lower net) in
  let keys =
    [
      Db_core.Design_cache.cache_key cons net;
      Db_core.Design_cache.cache_key ~tiling_enabled:false cons net;
      Db_core.Design_cache.cache_key ~lanes:2 cons net;
      Db_core.Design_cache.cache_key ~lanes:4 cons net;
      Db_core.Design_cache.cache_key Db_core.Constraints.db_small net;
    ]
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) "graph part unchanged" true
        (String.starts_with ~prefix:dump key))
    keys;
  Alcotest.(check int) "every option its own key" (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let suite =
  [
    ( "ir.lower",
      [
        Alcotest.test_case "mirrors network" `Quick test_lower_mirrors_network;
        Alcotest.test_case "stamps format" `Quick test_lower_stamps_format;
      ] );
    ( "ir.verify",
      [
        Alcotest.test_case "empty graph" `Quick test_verify_empty;
        Alcotest.test_case "no input" `Quick test_verify_no_input;
        Alcotest.test_case "duplicate name" `Quick test_verify_duplicate_name;
        Alcotest.test_case "duplicate blob" `Quick test_verify_duplicate_blob;
        Alcotest.test_case "dangling edge" `Quick test_verify_dangling_edge;
        Alcotest.test_case "cycle" `Quick test_verify_cycle;
        Alcotest.test_case "arity" `Quick test_verify_arity;
        Alcotest.test_case "shape mismatch" `Quick test_verify_shape_mismatch;
        Alcotest.test_case "invalid params" `Quick test_verify_invalid_params;
        Alcotest.test_case "cost mismatch" `Quick test_verify_cost_mismatch;
        Alcotest.test_case "bad ids" `Quick test_verify_bad_ids;
        Alcotest.test_case "check_exn" `Quick test_check_exn_raises;
        Alcotest.test_case "zoo clean" `Quick test_zoo_verifies;
      ] );
    ( "ir.interp",
      List.map
        (fun name -> Alcotest.test_case name `Quick (interp_matches_datapath name))
        interp_models
      @ [ Alcotest.test_case "dropout is the identity" `Quick test_dropout_identity ]
    );
    ( "ir.golden",
      List.map
        (fun (name, _) -> Alcotest.test_case name `Quick (golden name))
        zoo_models );
    ( "ir.cache",
      [
        Alcotest.test_case "key is the generated graph" `Quick
          test_cache_key_is_generated_graph;
        Alcotest.test_case "zoo keys are the golden dumps" `Quick
          test_cache_keys_are_golden_dumps;
        Alcotest.test_case "options extend the key" `Quick test_cache_key_options;
      ] );
  ]
