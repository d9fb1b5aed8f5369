(* Tests for db_tensor: shapes, tensor algebra and the NN kernels, including
   qcheck properties on algebraic identities. *)

module Shape = Db_tensor.Shape
module Tensor = Db_tensor.Tensor
module Ops = Db_tensor.Ops

let check_float = Alcotest.(check (float 1e-9))

let tensor_eq msg a b =
  if not (Tensor.equal_approx ~tol:1e-9 a b) then
    Alcotest.failf "%s: %s <> %s" msg
      (Format.asprintf "%a" Tensor.pp a)
      (Format.asprintf "%a" Tensor.pp b)

let test_shape_basics () =
  let s = Shape.chw ~channels:3 ~height:4 ~width:5 in
  Alcotest.(check int) "numel" 60 (Shape.numel s);
  Alcotest.(check int) "rank" 3 (Shape.rank s);
  Alcotest.(check int) "channels" 3 (Shape.channels s);
  Alcotest.(check int) "height" 4 (Shape.height s);
  Alcotest.(check int) "width" 5 (Shape.width s);
  Alcotest.(check string) "to_string" "3x4x5" (Shape.to_string s);
  Alcotest.(check int) "scalar numel" 1 (Shape.numel Shape.scalar)

let test_shape_invalid () =
  Alcotest.check_raises "zero dim rejected"
    (Db_util.Error.Deepburning_error
       "tensor: Shape.of_list: non-positive dimension") (fun () ->
      ignore (Shape.of_list [ 3; 0 ]))

let test_tensor_get_set () =
  let t = Tensor.create (Shape.vector 4) in
  Tensor.set t 2 5.0;
  check_float "set/get" 5.0 (Tensor.get t 2);
  Alcotest.check_raises "oob get"
    (Db_util.Error.Deepburning_error "tensor: get: index 4 out of range [0, 4)")
    (fun () -> ignore (Tensor.get t 4))

let test_tensor_chw_indexing () =
  let t = Tensor.init (Shape.chw ~channels:2 ~height:3 ~width:4) float_of_int in
  check_float "get3" (float_of_int ((1 * 12) + (2 * 4) + 3)) (Tensor.get3 t ~c:1 ~y:2 ~x:3);
  Tensor.set3 t ~c:0 ~y:1 ~x:1 (-7.0);
  check_float "set3" (-7.0) (Tensor.get t 5)

let test_tensor_algebra () =
  let a = Tensor.of_array (Shape.vector 3) [| 1.0; 2.0; 3.0 |] in
  let b = Tensor.of_array (Shape.vector 3) [| 4.0; 5.0; 6.0 |] in
  tensor_eq "add" (Tensor.of_array (Shape.vector 3) [| 5.0; 7.0; 9.0 |]) (Tensor.add a b);
  tensor_eq "sub" (Tensor.of_array (Shape.vector 3) [| -3.0; -3.0; -3.0 |]) (Tensor.sub a b);
  tensor_eq "mul" (Tensor.of_array (Shape.vector 3) [| 4.0; 10.0; 18.0 |]) (Tensor.mul a b);
  check_float "dot" 32.0 (Tensor.dot a b);
  Alcotest.(check int) "max index" 2 (Tensor.max_index a)

let test_conv_identity_kernel () =
  (* 1x1 kernel of weight 1 is the identity. *)
  let input = Tensor.init (Shape.chw ~channels:1 ~height:4 ~width:4) float_of_int in
  let w = Tensor.of_array (Shape.of_list [ 1; 1; 1; 1 ]) [| 1.0 |] in
  let out =
    Ops.conv2d ~input ~weights:w ~bias:None ~stride:1 ~padding:Ops.no_padding
      ~group:1
  in
  tensor_eq "identity conv" input out

let test_conv_known_values () =
  (* 2x2 all-ones kernel over a 3x3 ramp = sliding window sums. *)
  let input =
    Tensor.of_array (Shape.chw ~channels:1 ~height:3 ~width:3)
      [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |]
  in
  let w = Tensor.full (Shape.of_list [ 1; 1; 2; 2 ]) 1.0 in
  let out =
    Ops.conv2d ~input ~weights:w ~bias:None ~stride:1 ~padding:Ops.no_padding
      ~group:1
  in
  tensor_eq "window sums"
    (Tensor.of_array (Shape.chw ~channels:1 ~height:2 ~width:2) [| 12.; 16.; 24.; 28. |])
    out

let test_conv_bias_and_stride () =
  let input = Tensor.full (Shape.chw ~channels:1 ~height:4 ~width:4) 1.0 in
  let w = Tensor.full (Shape.of_list [ 2; 1; 2; 2 ]) 1.0 in
  let b = Tensor.of_array (Shape.vector 2) [| 10.0; 20.0 |] in
  let out =
    Ops.conv2d ~input ~weights:w ~bias:(Some b) ~stride:2 ~padding:Ops.no_padding
      ~group:1
  in
  Alcotest.(check string) "shape" "2x2x2" (Shape.to_string (Tensor.shape out));
  check_float "channel 0" 14.0 (Tensor.get3 out ~c:0 ~y:0 ~x:0);
  check_float "channel 1" 24.0 (Tensor.get3 out ~c:1 ~y:1 ~x:1)

let test_conv_padding () =
  let input = Tensor.full (Shape.chw ~channels:1 ~height:2 ~width:2) 1.0 in
  let w = Tensor.full (Shape.of_list [ 1; 1; 3; 3 ]) 1.0 in
  let out =
    Ops.conv2d ~input ~weights:w ~bias:None ~stride:1
      ~padding:(Ops.symmetric_padding 1) ~group:1
  in
  Alcotest.(check string) "same shape" "1x2x2" (Shape.to_string (Tensor.shape out));
  (* Corner sees all four input pixels. *)
  check_float "corner" 4.0 (Tensor.get3 out ~c:0 ~y:0 ~x:0)

let test_conv_groups () =
  (* Two groups: each output channel only sees its own input channel. *)
  let input =
    Tensor.of_array (Shape.chw ~channels:2 ~height:1 ~width:1) [| 3.0; 5.0 |]
  in
  let w = Tensor.of_array (Shape.of_list [ 2; 1; 1; 1 ]) [| 1.0; 1.0 |] in
  let out =
    Ops.conv2d ~input ~weights:w ~bias:None ~stride:1 ~padding:Ops.no_padding
      ~group:2
  in
  tensor_eq "grouped" input out

let test_max_pool () =
  let input =
    Tensor.of_array (Shape.chw ~channels:1 ~height:2 ~width:4)
      [| 1.; 5.; 2.; 6.; 3.; 4.; 8.; 7. |]
  in
  let out = Ops.max_pool ~input ~kernel:2 ~stride:2 in
  tensor_eq "max pool"
    (Tensor.of_array (Shape.chw ~channels:1 ~height:1 ~width:2) [| 5.0; 8.0 |])
    out

let test_avg_pool () =
  let input = Tensor.init (Shape.chw ~channels:1 ~height:2 ~width:2) float_of_int in
  let out = Ops.avg_pool ~input ~kernel:2 ~stride:2 in
  check_float "avg" 1.5 (Tensor.get out 0)

let test_global_avg_pool () =
  let input = Tensor.init (Shape.chw ~channels:2 ~height:2 ~width:2) float_of_int in
  let out = Ops.global_avg_pool ~input in
  tensor_eq "gap" (Tensor.of_array (Shape.vector 2) [| 1.5; 5.5 |]) out

let test_fully_connected () =
  let input = Tensor.of_array (Shape.vector 2) [| 1.0; 2.0 |] in
  let w = Tensor.of_array (Shape.of_list [ 2; 2 ]) [| 1.0; 0.0; 3.0; 4.0 |] in
  let b = Tensor.of_array (Shape.vector 2) [| 0.5; -1.0 |] in
  let out = Ops.fully_connected ~input ~weights:w ~bias:(Some b) in
  tensor_eq "fc" (Tensor.of_array (Shape.vector 2) [| 1.5; 10.0 |]) out

let test_softmax_properties () =
  let input = Tensor.of_array (Shape.vector 4) [| 1.0; 2.0; 3.0; 4.0 |] in
  let out = Ops.softmax input in
  check_float "sums to one" 1.0 (Tensor.fold ( +. ) 0.0 out);
  Alcotest.(check int) "argmax preserved" 3 (Tensor.max_index out);
  (* Shift invariance. *)
  let shifted = Ops.softmax (Tensor.map (fun x -> x +. 100.0) input) in
  tensor_eq "shift invariant" out shifted

let test_softmax_large_inputs () =
  (* Must not overflow. *)
  let out = Ops.softmax (Tensor.of_array (Shape.vector 2) [| 1000.0; 1001.0 |]) in
  Alcotest.(check bool) "finite" true (Float.is_finite (Tensor.get out 0))

let test_activations () =
  let input = Tensor.of_array (Shape.vector 3) [| -1.0; 0.0; 2.0 |] in
  tensor_eq "relu"
    (Tensor.of_array (Shape.vector 3) [| 0.0; 0.0; 2.0 |])
    (Ops.relu input);
  check_float "sigmoid(0)" 0.5 (Tensor.get (Ops.sigmoid input) 1);
  check_float "tanh(0)" 0.0 (Tensor.get (Ops.tanh_act input) 1)

let test_lrn_unit_scale () =
  (* With alpha = 0 the LRN with k = 1 is the identity. *)
  let input = Tensor.init (Shape.chw ~channels:3 ~height:2 ~width:2) float_of_int in
  let out = Ops.lrn ~input ~local_size:3 ~alpha:0.0 ~beta:0.75 ~k:1.0 in
  tensor_eq "identity when alpha=0" input out

let test_lrn_suppresses () =
  let input = Tensor.full (Shape.chw ~channels:3 ~height:1 ~width:1) 2.0 in
  let out = Ops.lrn ~input ~local_size:3 ~alpha:1.0 ~beta:0.75 ~k:1.0 in
  Alcotest.(check bool) "values shrink" true (Tensor.get out 0 < 2.0)

let test_concat () =
  let a = Tensor.full (Shape.chw ~channels:1 ~height:2 ~width:2) 1.0 in
  let b = Tensor.full (Shape.chw ~channels:2 ~height:2 ~width:2) 2.0 in
  let out = Ops.concat_channels [ a; b ] in
  Alcotest.(check string) "shape" "3x2x2" (Shape.to_string (Tensor.shape out));
  check_float "first block" 1.0 (Tensor.get out 0);
  check_float "second block" 2.0 (Tensor.get out 4)

let test_conv_output_dim () =
  Alcotest.(check int) "classic" 55
    (Ops.conv_output_dim ~input:227 ~kernel:11 ~stride:4 ~pad_lo:0 ~pad_hi:0);
  Alcotest.(check int) "same padding" 16
    (Ops.conv_output_dim ~input:16 ~kernel:3 ~stride:1 ~pad_lo:1 ~pad_hi:1)

let test_random_uniform_golden () =
  (* [random_uniform] fills in flat order with successive [Rng.uniform]
     draws; these literals pin that stream for seed 42. *)
  let t =
    Tensor.random_uniform (Db_util.Rng.create 42) (Shape.vector 4) ~min:(-0.5)
      ~max:2.0
  in
  Alcotest.(check (list string))
    "seed 42 stream"
    [ "0x1.5a99fd5f77cc8p+0"; "-0x1.9a847fec1fea8p-4"; "0x1.927012cd7d38p-3";
      "0x1.7120d3f68eeccp-2" ]
    (List.init 4 (fun i -> Printf.sprintf "%h" (Tensor.get t i)))

(* qcheck properties *)

let rng_tensor seed shape =
  Tensor.random_uniform (Db_util.Rng.create seed) shape ~min:(-2.0) ~max:2.0

let prop_add_commutative =
  QCheck.Test.make ~name:"tensor add commutative" ~count:50
    QCheck.(pair small_int small_int)
    (fun (seed, n) ->
      let n = 1 + (abs n mod 20) in
      let a = rng_tensor seed (Shape.vector n)
      and b = rng_tensor (seed + 1) (Shape.vector n) in
      Tensor.equal_approx (Tensor.add a b) (Tensor.add b a))

let prop_dot_bilinear =
  QCheck.Test.make ~name:"dot scales linearly" ~count:50 QCheck.small_int
    (fun seed ->
      let a = rng_tensor seed (Shape.vector 8)
      and b = rng_tensor (seed + 1) (Shape.vector 8) in
      Float.abs (Tensor.dot (Tensor.scale 2.0 a) b -. (2.0 *. Tensor.dot a b))
      < 1e-9)

let prop_conv_linear =
  (* conv(x + y) = conv(x) + conv(y) for linear convolution (no bias). *)
  QCheck.Test.make ~name:"conv2d additive" ~count:20 QCheck.small_int
    (fun seed ->
      let shape = Shape.chw ~channels:2 ~height:5 ~width:5 in
      let x = rng_tensor seed shape and y = rng_tensor (seed + 7) shape in
      let w = rng_tensor (seed + 13) (Shape.of_list [ 3; 2; 3; 3 ]) in
      let conv input =
        Ops.conv2d ~input ~weights:w ~bias:None ~stride:1
          ~padding:Ops.no_padding ~group:1
      in
      Tensor.equal_approx ~tol:1e-6
        (conv (Tensor.add x y))
        (Tensor.add (conv x) (conv y)))

let prop_softmax_simplex =
  QCheck.Test.make ~name:"softmax lands on the simplex" ~count:50
    QCheck.small_int (fun seed ->
      let t = rng_tensor seed (Shape.vector 6) in
      let s = Ops.softmax t in
      Float.abs (Tensor.fold ( +. ) 0.0 s -. 1.0) < 1e-9
      && Tensor.fold (fun acc x -> acc && x >= 0.0) true s)

let prop_max_pool_bound =
  QCheck.Test.make ~name:"max pool dominates avg pool" ~count:30
    QCheck.small_int (fun seed ->
      let input = rng_tensor seed (Shape.chw ~channels:1 ~height:6 ~width:6) in
      let mx = Ops.max_pool ~input ~kernel:2 ~stride:2 in
      let av = Ops.avg_pool ~input ~kernel:2 ~stride:2 in
      let ok = ref true in
      Tensor.iteri (fun i v -> if v > Tensor.get mx i +. 1e-9 then ok := false) av;
      !ok)

let suite =
  [
    ( "tensor.shape",
      [
        Alcotest.test_case "basics" `Quick test_shape_basics;
        Alcotest.test_case "invalid" `Quick test_shape_invalid;
      ] );
    ( "tensor.core",
      [
        Alcotest.test_case "get/set" `Quick test_tensor_get_set;
        Alcotest.test_case "chw indexing" `Quick test_tensor_chw_indexing;
        Alcotest.test_case "algebra" `Quick test_tensor_algebra;
        Alcotest.test_case "random_uniform golden" `Quick
          test_random_uniform_golden;
      ] );
    ( "tensor.ops",
      [
        Alcotest.test_case "conv identity" `Quick test_conv_identity_kernel;
        Alcotest.test_case "conv values" `Quick test_conv_known_values;
        Alcotest.test_case "conv bias+stride" `Quick test_conv_bias_and_stride;
        Alcotest.test_case "conv padding" `Quick test_conv_padding;
        Alcotest.test_case "conv groups" `Quick test_conv_groups;
        Alcotest.test_case "max pool" `Quick test_max_pool;
        Alcotest.test_case "avg pool" `Quick test_avg_pool;
        Alcotest.test_case "global avg pool" `Quick test_global_avg_pool;
        Alcotest.test_case "fully connected" `Quick test_fully_connected;
        Alcotest.test_case "softmax" `Quick test_softmax_properties;
        Alcotest.test_case "softmax stability" `Quick test_softmax_large_inputs;
        Alcotest.test_case "activations" `Quick test_activations;
        Alcotest.test_case "lrn identity" `Quick test_lrn_unit_scale;
        Alcotest.test_case "lrn suppresses" `Quick test_lrn_suppresses;
        Alcotest.test_case "concat" `Quick test_concat;
        Alcotest.test_case "conv output dim" `Quick test_conv_output_dim;
      ] );
    ( "tensor.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_add_commutative;
          prop_dot_bilinear;
          prop_conv_linear;
          prop_softmax_simplex;
          prop_max_pool_bound;
        ] );
  ]
