(* Tests for db_ir: lowering, the structural verifier's DB-IRxxx codes,
   the pass pipeline's bitwise semantics preservation, and the committed
   golden dumps of every zoo model. *)

module Graph = Db_ir.Graph
module Op = Db_ir.Op
module Verify = Db_ir.Verify
module Pass = Db_ir.Pass
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
                 fused = None;
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
      let g = lower name in
      Alcotest.(check int) (name ^ " raw clean") 0 (List.length (Verify.run g));
      let o = Pass.optimize g in
      Alcotest.(check int) (name ^ " optimized clean") 0
        (List.length (Verify.run o)))
    zoo_models

(* --- passes ------------------------------------------------------------- *)

let test_dropout_elided () =
  let g = Pass.optimize (lower "cifar") in
  Alcotest.(check bool) "no dropout nodes" false
    (Graph.has_op g (function Op.Dropout _ -> true | _ -> false))

let test_activations_folded () =
  let g = Pass.optimize (lower "mnist") in
  (* Every ReLU that followed a conv/FC with a single consumer is gone. *)
  Alcotest.(check bool) "no standalone activations" false
    (Graph.has_op g (function Op.Act _ -> true | _ -> false));
  Alcotest.(check bool) "fused slots populated" true
    (Graph.has_op g (fun op -> Op.fused_activation op <> None))

let test_folding_keeps_macs () =
  let raw = lower "mnist" in
  let opt = Pass.optimize raw in
  Alcotest.(check int) "macs unchanged" (Graph.total_macs raw)
    (Graph.total_macs opt);
  Alcotest.(check int) "params unchanged" (Graph.total_params raw)
    (Graph.total_params opt)

(* --- semantics preservation --------------------------------------------- *)

(* Interpret the raw lowering and its optimized form on the same random
   input; the outputs must be bit-identical (dropout is an inference copy
   and a fused activation applies the same float kernel as the standalone
   node). *)
let interp_equiv name () =
  let raw = lower name in
  let g = Pass.optimize raw in
  let rng = Db_util.Rng.create 7 in
  let params = Db_nn.Params.init_xavier rng (build name) in
  let input_node = List.hd (Graph.input_nodes raw) in
  let blob = List.hd input_node.Graph.outputs in
  let input =
    Tensor.random_uniform rng input_node.Graph.out_shape ~min:(-1.0) ~max:1.0
  in
  let reference = Db_ir.Interp.output raw params ~inputs:[ (blob, input) ] in
  let via_ir = Db_ir.Interp.output g params ~inputs:[ (blob, input) ] in
  Alcotest.(check bool)
    (name ^ ": optimized output bit-identical to raw")
    true
    (Tensor.equal_bits reference via_ir)

(* The 224x224 ImageNet-scale models are exercised structurally by the
   golden dumps; interpreting them here would dominate the suite. *)
let interp_models =
  [ "mlp"; "cmac"; "mnist"; "cifar"; "cifar-lite"; "hopfield"; "lenet5"; "ann0" ]

(* --- golden dumps -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let golden name () =
  let expected = read_file (Filename.concat "golden_ir" (name ^ ".ir")) in
  let actual = Db_ir.Print.to_string (Pass.optimize (lower name)) in
  Alcotest.(check string) (name ^ " golden IR dump") expected actual

(* --- design-cache keying -------------------------------------------------- *)

let test_cache_keys_on_canonical_ir () =
  (* Two models identical up to an inference-time dropout canonicalize to
     the same IR, so the cache must hand back one shared design. *)
  let with_dropout =
    {|name: "k"
layers { name: "data" type: INPUT top: "data" input_param { dim: 4 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "data" top: "fc"
  inner_product_param { num_output: 3 } }
layers { name: "drop" type: DROPOUT bottom: "fc" top: "drop"
  dropout_param { dropout_ratio: 0.5 } }
layers { name: "out" type: INNER_PRODUCT bottom: "drop" top: "out"
  inner_product_param { num_output: 2 } }|}
  in
  let without =
    {|name: "k"
layers { name: "data" type: INPUT top: "data" input_param { dim: 4 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "data" top: "fc"
  inner_product_param { num_output: 3 } }
layers { name: "out" type: INNER_PRODUCT bottom: "fc" top: "out"
  inner_product_param { num_output: 2 } }|}
  in
  Db_core.Design_cache.clear ();
  let cons = Db_core.Constraints.db_small in
  let d1 =
    Db_core.Design_cache.generate cons (Db_workloads.Model_zoo.build with_dropout)
  in
  let d2 =
    Db_core.Design_cache.generate cons (Db_workloads.Model_zoo.build without)
  in
  let hits, misses = Db_core.Design_cache.stats () in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check bool) "same design" true (d1 == d2);
  Db_core.Design_cache.clear ()

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
    ( "ir.pass",
      [
        Alcotest.test_case "dropout elided" `Quick test_dropout_elided;
        Alcotest.test_case "activations folded" `Quick test_activations_folded;
        Alcotest.test_case "macs conserved" `Quick test_folding_keeps_macs;
      ] );
    ( "ir.interp",
      List.map
        (fun name -> Alcotest.test_case name `Quick (interp_equiv name))
        interp_models );
    ( "ir.golden",
      List.map
        (fun (name, _) -> Alcotest.test_case name `Quick (golden name))
        zoo_models );
    ( "ir.cache",
      [
        Alcotest.test_case "canonical key" `Quick test_cache_keys_on_canonical_ir;
      ] );
  ]
