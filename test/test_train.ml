(* Tests for db_train: losses, gradient checking by finite differences, and
   end-to-end learning on small problems. *)

module Shape = Db_tensor.Shape
module Tensor = Db_tensor.Tensor
module Network = Db_nn.Network
module Layer = Db_nn.Layer
module Params = Db_nn.Params
module Trainer = Db_train.Trainer
module Loss = Db_train.Loss

let node name layer bottoms tops =
  { Network.node_name = name; layer; bottoms; tops }

let test_mse_loss () =
  let p = Tensor.of_array (Shape.vector 2) [| 1.0; 2.0 |] in
  let t = Tensor.of_array (Shape.vector 2) [| 0.0; 2.0 |] in
  Alcotest.(check (float 1e-9)) "mse" 0.25
    (Loss.forward Loss.Mean_squared_error ~prediction:p ~target:t)

let test_cross_entropy_perfect () =
  let p = Tensor.of_array (Shape.vector 3) [| 100.0; 0.0; 0.0 |] in
  let t = Loss.one_hot ~classes:3 0 in
  Alcotest.(check bool) "near zero" true
    (Loss.forward Loss.Softmax_cross_entropy ~prediction:p ~target:t < 1e-6)

let test_one_hot () =
  let t = Loss.one_hot ~classes:4 2 in
  Alcotest.(check bool) "one hot" true
    (Tensor.equal_approx t (Tensor.of_array (Shape.vector 4) [| 0.; 0.; 1.; 0. |]))

(* Finite-difference gradient check for a single layer. *)
let grad_check ~op ~params ~input ~epsilon ~tol =
  let output, cache = Db_train.Backprop.forward_op ~op ~params ~input in
  (* Loss = sum of outputs; grad_output = ones. *)
  let grad_out = Tensor.full (Tensor.shape output) 1.0 in
  let grad_in, grad_params = Db_train.Backprop.backward_layer cache ~grad_output:grad_out in
  let loss_with modified_params modified_input =
    let out =
      Db_ir.Interp.eval_op op ~params:modified_params ~bottoms:[ modified_input ]
    in
    Tensor.fold ( +. ) 0.0 out
  in
  (* Check input gradient. *)
  (match grad_in with
  | None -> ()
  | Some gi ->
      for i = 0 to Stdlib.min 8 (Tensor.numel input) - 1 do
        let plus = Tensor.copy input and minus = Tensor.copy input in
        Tensor.set plus i (Tensor.get input i +. epsilon);
        Tensor.set minus i (Tensor.get input i -. epsilon);
        let numeric = (loss_with params plus -. loss_with params minus) /. (2.0 *. epsilon) in
        let analytic = Tensor.get gi i in
        if Float.abs (numeric -. analytic) > tol then
          Alcotest.failf "input grad %d: numeric %g vs analytic %g" i numeric analytic
      done);
  (* Check parameter gradients. *)
  List.iteri
    (fun pi gp ->
      let original = List.nth params pi in
      for i = 0 to Stdlib.min 8 (Tensor.numel original) - 1 do
        let plus = List.mapi (fun j t -> if j = pi then Tensor.copy t else t) params in
        let minus = List.mapi (fun j t -> if j = pi then Tensor.copy t else t) params in
        Tensor.set (List.nth plus pi) i (Tensor.get original i +. epsilon);
        Tensor.set (List.nth minus pi) i (Tensor.get original i -. epsilon);
        let numeric = (loss_with plus input -. loss_with minus input) /. (2.0 *. epsilon) in
        let analytic = Tensor.get gp i in
        if Float.abs (numeric -. analytic) > tol then
          Alcotest.failf "param %d grad %d: numeric %g vs analytic %g" pi i numeric analytic
      done)
    grad_params

let rng_tensor seed shape =
  Tensor.random_uniform (Db_util.Rng.create seed) shape ~min:(-0.5) ~max:0.5

let test_gradcheck_fc () =
  grad_check
    ~op:(Layer.Fc { num_output = 3; bias = true })
    ~params:
      [ rng_tensor 1 (Shape.of_list [ 3; 4 ]); rng_tensor 2 (Shape.vector 3) ]
    ~input:(rng_tensor 3 (Shape.vector 4))
    ~epsilon:1e-4 ~tol:1e-3

let test_gradcheck_conv () =
  grad_check
    ~op:
      (Layer.Conv
         { num_output = 2; kernel_size = 3; stride = 1; pad = 1; group = 1; bias = true })
    ~params:
      [ rng_tensor 4 (Shape.of_list [ 2; 2; 3; 3 ]); rng_tensor 5 (Shape.vector 2) ]
    ~input:(rng_tensor 6 (Shape.chw ~channels:2 ~height:4 ~width:4))
    ~epsilon:1e-4 ~tol:1e-3

let test_gradcheck_conv_stride_group () =
  grad_check
    ~op:
      (Layer.Conv
         { num_output = 4; kernel_size = 2; stride = 2; pad = 0; group = 2; bias = false })
    ~params:[ rng_tensor 7 (Shape.of_list [ 4; 1; 2; 2 ]) ]
    ~input:(rng_tensor 8 (Shape.chw ~channels:2 ~height:4 ~width:4))
    ~epsilon:1e-4 ~tol:1e-3

let test_gradcheck_avg_pool () =
  grad_check
    ~op:(Layer.Pool { method_ = Layer.Avg_pool; kernel_size = 2; stride = 2 })
    ~params:[]
    ~input:(rng_tensor 9 (Shape.chw ~channels:1 ~height:4 ~width:4))
    ~epsilon:1e-4 ~tol:1e-3

let test_gradcheck_max_pool () =
  grad_check
    ~op:(Layer.Pool { method_ = Layer.Max_pool; kernel_size = 2; stride = 2 })
    ~params:[]
    ~input:(rng_tensor 10 (Shape.chw ~channels:1 ~height:4 ~width:4))
    ~epsilon:1e-5 ~tol:1e-2

let test_gradcheck_activations () =
  List.iter
    (fun act ->
      grad_check ~op:(Layer.Act act) ~params:[]
        ~input:(rng_tensor 11 (Shape.vector 6))
        ~epsilon:1e-5 ~tol:1e-3)
    [ Layer.Relu; Layer.Sigmoid; Layer.Tanh ]

let test_gradcheck_softmax () =
  grad_check ~op:Layer.Softmax ~params:[]
    ~input:(rng_tensor 12 (Shape.vector 5))
    ~epsilon:1e-5 ~tol:1e-3

let test_gradcheck_global_pool () =
  grad_check ~op:(Layer.Global_pool Layer.Avg_pool) ~params:[]
    ~input:(rng_tensor 13 (Shape.chw ~channels:2 ~height:3 ~width:3))
    ~epsilon:1e-4 ~tol:1e-3

let xor_network () =
  Network.create ~name:"xor"
    [
      node "in" (Layer.Input { shape = Shape.vector 2 }) [] [ "x" ];
      node "fc1" (Layer.Fc { num_output = 4; bias = true }) [ "x" ] [ "h" ];
      node "t" (Layer.Act Layer.Tanh) [ "h" ] [ "ht" ];
      node "fc2" (Layer.Fc { num_output = 1; bias = true }) [ "ht" ] [ "y" ];
    ]

let test_training_learns_xor () =
  let net = xor_network () in
  let rng = Db_util.Rng.create 123 in
  let params = Params.init_xavier rng net in
  let sample a b =
    {
      Trainer.input = Tensor.of_array (Shape.vector 2) [| a; b |];
      target =
        Tensor.of_array (Shape.vector 1)
          [| (if (a > 0.5) <> (b > 0.5) then 1.0 else 0.0) |];
    }
  in
  let base = [| sample 0. 0.; sample 0. 1.; sample 1. 0.; sample 1. 1. |] in
  let data = Array.init 64 (fun i -> base.(i mod 4)) in
  let history =
    Trainer.train
      ~config:
        {
          Trainer.default_config with
          Trainer.epochs = 200;
          learning_rate = 0.1;
          batch_size = 4;
        }
      ~rng net params data
  in
  if history.Trainer.final_loss > 0.02 then
    Alcotest.failf "xor did not converge: final loss %g" history.Trainer.final_loss

let test_training_loss_decreases () =
  let net = xor_network () in
  let rng = Db_util.Rng.create 7 in
  let params = Params.init_xavier rng net in
  let data =
    Array.init 32 (fun i ->
        let x = float_of_int (i mod 8) /. 8.0 in
        {
          Trainer.input = Tensor.of_array (Shape.vector 2) [| x; 1.0 -. x |];
          target = Tensor.of_array (Shape.vector 1) [| sin x |];
        })
  in
  let history =
    Trainer.train
      ~config:{ Trainer.default_config with Trainer.epochs = 30; learning_rate = 0.05 }
      ~rng net params data
  in
  let first = history.Trainer.losses.(0) and last = history.Trainer.final_loss in
  if last >= first then Alcotest.failf "loss did not decrease: %g -> %g" first last

let test_trainer_rejects_nonchain () =
  let net =
    Network.create ~name:"fork"
      [
        node "in" (Layer.Input { shape = Shape.chw ~channels:1 ~height:2 ~width:2 }) [] [ "x" ];
        node "a" (Layer.Conv { num_output = 1; kernel_size = 1; stride = 1; pad = 0; group = 1; bias = false }) [ "x" ] [ "ya" ];
        node "b" (Layer.Conv { num_output = 1; kernel_size = 1; stride = 1; pad = 0; group = 1; bias = false }) [ "x" ] [ "yb" ];
        node "c" Layer.Concat [ "ya"; "yb" ] [ "y" ];
      ]
  in
  let rng = Db_util.Rng.create 1 in
  let params = Params.init_xavier rng net in
  let data =
    [|
      {
        Trainer.input = Tensor.create (Shape.chw ~channels:1 ~height:2 ~width:2);
        target = Tensor.create (Shape.chw ~channels:2 ~height:2 ~width:2);
      };
    |]
  in
  match Trainer.train ~rng net params data with
  | (_ : Trainer.history) -> Alcotest.fail "expected non-chain rejection"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_classification_accuracy_api () =
  let net = xor_network () in
  (* With an untrained network accuracy is still a valid in-[0,1] number. *)
  let rng = Db_util.Rng.create 3 in
  let params = Params.init_xavier rng net in
  let samples =
    Array.init 10 (fun i ->
        (Tensor.of_array (Shape.vector 2) [| float_of_int i /. 10.0; 0.5 |], 0))
  in
  let acc = Trainer.classification_accuracy net params samples in
  Alcotest.(check bool) "in range" true (acc >= 0.0 && acc <= 1.0)

(* ------------------------------------------------------------------ *)
(* Whole-graph gradient checks: central finite differences through a
   multi-layer chain, against [Backprop] run over the trainer's own
   no-fusion lowering ([Trainer.chain_of_network]).  Each graph gets a
   few random seeds — the single-layer checks above pin the kernels,
   these pin the chain-rule composition across ops. *)

let graph_forward chain store input =
  List.fold_left
    (fun x (node : Db_ir.Graph.node) ->
      fst
        (Db_train.Backprop.forward_op ~op:node.Db_ir.Graph.op
           ~params:(Params.get store node.Db_ir.Graph.node_name)
           ~input:x))
    input chain

let graph_grad_check ~seed net ~epsilon ~tol =
  let rng = Db_util.Rng.create seed in
  let store = Params.init_xavier rng net in
  let chain = Trainer.chain_of_network net in
  let in_shape =
    match (List.hd (Network.input_nodes net)).Network.layer with
    | Layer.Input { shape } -> shape
    | _ -> Alcotest.fail "first node is not the input"
  in
  let input = Tensor.random_uniform rng in_shape ~min:(-0.5) ~max:0.5 in
  let probe = graph_forward chain store input in
  let target =
    Tensor.random_uniform rng (Tensor.shape probe) ~min:(-0.5) ~max:0.5
  in
  let loss_of store input =
    Loss.forward Loss.Mean_squared_error
      ~prediction:(graph_forward chain store input)
      ~target
  in
  (* Analytic gradients through the whole chain. *)
  let _, caches =
    List.fold_left
      (fun (x, acc) (node : Db_ir.Graph.node) ->
        let y, cache =
          Db_train.Backprop.forward_op ~op:node.Db_ir.Graph.op
            ~params:(Params.get store node.Db_ir.Graph.node_name)
            ~input:x
        in
        (y, (node, cache) :: acc))
      (input, []) chain
  in
  let prediction = graph_forward chain store input in
  let grad_out =
    Loss.backward Loss.Mean_squared_error ~prediction ~target
  in
  let grads = Hashtbl.create 8 in
  let grad_input = ref None in
  let rec backprop grad = function
    | [] -> grad_input := Some grad
    | (node, cache) :: rest -> begin
        let gi, gp = Db_train.Backprop.backward_layer cache ~grad_output:grad in
        if gp <> [] then Hashtbl.replace grads node.Db_ir.Graph.node_name gp;
        match gi with Some g -> backprop g rest | None -> ()
      end
  in
  backprop grad_out caches;
  let check what numeric analytic =
    if Float.abs (numeric -. analytic) > tol then
      Alcotest.failf "%s (seed %d): numeric %g vs analytic %g" what seed
        numeric analytic
  in
  (* A handful of input entries. *)
  (match !grad_input with
  | None -> ()
  | Some gi ->
      for i = 0 to Stdlib.min 5 (Tensor.numel input) - 1 do
        let plus = Tensor.copy input and minus = Tensor.copy input in
        Tensor.set plus i (Tensor.get input i +. epsilon);
        Tensor.set minus i (Tensor.get input i -. epsilon);
        check
          (Printf.sprintf "d loss/d input[%d]" i)
          ((loss_of store plus -. loss_of store minus) /. (2.0 *. epsilon))
          (Tensor.get gi i)
      done);
  (* A handful of entries of every parameter tensor of every layer. *)
  Hashtbl.iter
    (fun name gp ->
      List.iteri
        (fun pi g ->
          let original = List.nth (Params.get store name) pi in
          for i = 0 to Stdlib.min 5 (Tensor.numel original) - 1 do
            let perturbed delta =
              let store' = Params.copy store in
              let t = List.nth (Params.get store' name) pi in
              Tensor.set t i (Tensor.get t i +. delta);
              loss_of store' input
            in
            check
              (Printf.sprintf "d loss/d %s[%d][%d]" name pi i)
              ((perturbed epsilon -. perturbed (-.epsilon))
              /. (2.0 *. epsilon))
              (Tensor.get g i)
          done)
        gp)
    grads

let seeds = [ 17; 29; 83 ]

let test_graphcheck_mlp () =
  List.iter
    (fun seed ->
      graph_grad_check ~seed ~epsilon:1e-4 ~tol:1e-3
        (Network.create ~name:"g-mlp"
           [
             node "in" (Layer.Input { shape = Shape.vector 4 }) [] [ "x" ];
             node "fc1" (Layer.Fc { num_output = 5; bias = true }) [ "x" ] [ "h" ];
             node "s" (Layer.Act Layer.Sigmoid) [ "h" ] [ "hs" ];
             node "fc2" (Layer.Fc { num_output = 3; bias = true }) [ "hs" ] [ "y" ];
           ]))
    seeds

let test_graphcheck_conv_pool () =
  List.iter
    (fun seed ->
      graph_grad_check ~seed ~epsilon:1e-4 ~tol:2e-3
        (Network.create ~name:"g-conv"
           [
             node "in"
               (Layer.Input { shape = Shape.chw ~channels:2 ~height:5 ~width:5 })
               [] [ "x" ];
             node "c1"
               (Layer.Conv
                  { num_output = 3; kernel_size = 3; stride = 1; pad = 1; group = 1; bias = true })
               [ "x" ] [ "c" ];
             node "r" (Layer.Act Layer.Relu) [ "c" ] [ "cr" ];
             node "p" (Layer.Pool { method_ = Layer.Avg_pool; kernel_size = 2; stride = 2 })
               [ "cr" ] [ "cp" ];
             node "fc" (Layer.Fc { num_output = 4; bias = false }) [ "cp" ] [ "y" ];
           ]))
    seeds

let test_graphcheck_softmax_tail () =
  List.iter
    (fun seed ->
      graph_grad_check ~seed ~epsilon:1e-5 ~tol:1e-3
        (Network.create ~name:"g-softmax"
           [
             node "in" (Layer.Input { shape = Shape.vector 6 }) [] [ "x" ];
             node "fc" (Layer.Fc { num_output = 4; bias = true }) [ "x" ] [ "h" ];
             node "t" (Layer.Act Layer.Tanh) [ "h" ] [ "ht" ];
             node "sm" Layer.Softmax [ "ht" ] [ "y" ];
           ]))
    seeds

let test_graphcheck_lrn_pool () =
  List.iter
    (fun seed ->
      graph_grad_check ~seed ~epsilon:1e-4 ~tol:2e-3
        (Network.create ~name:"g-lrn"
           [
             node "in"
               (Layer.Input { shape = Shape.chw ~channels:3 ~height:3 ~width:3 })
               [] [ "x" ];
             node "n"
               (Layer.Lrn { local_size = 3; alpha = 1e-2; beta = 0.75; k = 1.0 })
               [ "x" ] [ "xn" ];
             node "g" (Layer.Global_pool Layer.Avg_pool) [ "xn" ] [ "xg" ];
             node "fc" (Layer.Fc { num_output = 2; bias = true }) [ "xg" ] [ "y" ];
           ]))
    seeds

let suite =
  [
    ( "train.loss",
      [
        Alcotest.test_case "mse" `Quick test_mse_loss;
        Alcotest.test_case "cross entropy" `Quick test_cross_entropy_perfect;
        Alcotest.test_case "one hot" `Quick test_one_hot;
      ] );
    ( "train.gradcheck",
      [
        Alcotest.test_case "fc" `Quick test_gradcheck_fc;
        Alcotest.test_case "conv" `Quick test_gradcheck_conv;
        Alcotest.test_case "conv stride+group" `Quick test_gradcheck_conv_stride_group;
        Alcotest.test_case "avg pool" `Quick test_gradcheck_avg_pool;
        Alcotest.test_case "max pool" `Quick test_gradcheck_max_pool;
        Alcotest.test_case "activations" `Quick test_gradcheck_activations;
        Alcotest.test_case "softmax" `Quick test_gradcheck_softmax;
        Alcotest.test_case "global pool" `Quick test_gradcheck_global_pool;
        Alcotest.test_case "graph: mlp" `Quick test_graphcheck_mlp;
        Alcotest.test_case "graph: conv+pool" `Quick test_graphcheck_conv_pool;
        Alcotest.test_case "graph: softmax tail" `Quick test_graphcheck_softmax_tail;
        Alcotest.test_case "graph: lrn+global pool" `Quick test_graphcheck_lrn_pool;
      ] );
    ( "train.sgd",
      [
        Alcotest.test_case "learns xor" `Slow test_training_learns_xor;
        Alcotest.test_case "loss decreases" `Quick test_training_loss_decreases;
        Alcotest.test_case "rejects non-chain" `Quick test_trainer_rejects_nonchain;
        Alcotest.test_case "accuracy api" `Quick test_classification_accuracy_api;
      ] );
  ]
