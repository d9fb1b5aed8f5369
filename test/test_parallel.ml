(* Tests for the domain pool and everything built on it: the GEMM
   convolution path against the naive reference, bitwise determinism of the
   parallel kernels, the partial-selection classifier, and the design
   cache.  The dune env pins DEEPBURNING_JOBS=4 so these run with real
   worker domains even on a single-core CI box. *)

module Pool = Db_parallel.Pool
module Shape = Db_tensor.Shape
module Tensor = Db_tensor.Tensor
module Ops = Db_tensor.Ops
module Layer = Db_nn.Layer
module Rng = Db_util.Rng

let rng_tensor seed shape =
  Tensor.random_uniform (Rng.create seed) shape ~min:(-2.0) ~max:2.0

(* Exact comparison: parallel execution must not change a single bit. *)
let bitwise_eq msg a b =
  if not (Shape.equal (Tensor.shape a) (Tensor.shape b)) then
    Alcotest.failf "%s: shapes differ" msg;
  if Tensor.data a <> Tensor.data b then
    Alcotest.failf "%s: results differ bitwise" msg

(* --- pool mechanics ----------------------------------------------------- *)

let test_parallel_for_covers () =
  let n = 1000 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "each index exactly once" (Array.make n 1) hits;
  Pool.parallel_for ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "empty range ran")

let test_parallel_for_chunked () =
  let n = 37 in
  let out = Array.make n 0 in
  Pool.parallel_for ~chunk:4 ~lo:0 ~hi:n (fun i -> out.(i) <- i * i);
  Alcotest.(check (array int)) "chunked fill" (Array.init n (fun i -> i * i)) out;
  Alcotest.check_raises "chunk must be positive"
    (Invalid_argument "Pool.parallel_for: chunk 0") (fun () ->
      Pool.parallel_for ~chunk:0 ~lo:0 ~hi:3 ignore)

let test_nesting () =
  let out = Array.make_matrix 8 8 0 in
  Pool.parallel_for ~lo:0 ~hi:8 (fun i ->
      Pool.parallel_for ~lo:0 ~hi:8 (fun j -> out.(i).(j) <- (i * 8) + j));
  let total =
    Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 out
  in
  Alcotest.(check int) "nested sections complete" (64 * 63 / 2) total

exception Boom

let test_exception_propagates () =
  try
    Pool.parallel_for ~lo:0 ~hi:64 (fun i -> if i = 13 then raise Boom);
    Alcotest.fail "exception was swallowed"
  with Boom -> ()

let test_map_list_order () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "order preserved"
    (List.map (fun x -> x * 3) xs)
    (Pool.map_list (fun x -> x * 3) xs)

(* --- GEMM conv vs naive reference --------------------------------------- *)

let prop_gemm_matches_naive =
  QCheck.Test.make ~name:"gemm conv matches naive reference" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 7) + 1) in
      let group = 1 + Rng.int rng 3 in
      let cin_g = 1 + Rng.int rng 3 in
      let cout_g = 1 + Rng.int rng 3 in
      let k = 1 + Rng.int rng 3 in
      let stride = 1 + Rng.int rng 2 in
      let pad = Rng.int rng k in
      let h = k + Rng.int rng 6 and w = k + Rng.int rng 6 in
      let cin = group * cin_g and cout = group * cout_g in
      let input =
        Tensor.random_uniform rng
          (Shape.chw ~channels:cin ~height:h ~width:w)
          ~min:(-2.0) ~max:2.0
      in
      let weights =
        Tensor.random_uniform rng
          (Shape.of_list [ cout; cin_g; k; k ])
          ~min:(-1.0) ~max:1.0
      in
      let bias =
        if Rng.bool rng then
          Some (Tensor.random_uniform rng (Shape.vector cout) ~min:(-1.0) ~max:1.0)
        else None
      in
      let padding = Ops.symmetric_padding pad in
      Tensor.equal_approx ~tol:1e-9
        (Ops.conv2d ~input ~weights ~bias ~stride ~padding ~group)
        (Ops.conv2d_naive ~input ~weights ~bias ~stride ~padding ~group))

(* --- bitwise determinism of the parallel kernels ------------------------- *)

let det_check name f =
  let seq = Pool.with_sequential f and par = f () in
  bitwise_eq name seq par

let test_kernels_deterministic () =
  let input = rng_tensor 11 (Shape.chw ~channels:6 ~height:13 ~width:13) in
  let weights = rng_tensor 12 (Shape.of_list [ 8; 3; 3; 3 ]) in
  let bias = rng_tensor 13 (Shape.vector 8) in
  det_check "conv2d" (fun () ->
      Ops.conv2d ~input ~weights ~bias:(Some bias) ~stride:2
        ~padding:(Ops.symmetric_padding 1) ~group:2);
  det_check "max_pool" (fun () -> Ops.max_pool ~input ~kernel:3 ~stride:2);
  det_check "avg_pool" (fun () -> Ops.avg_pool ~input ~kernel:3 ~stride:2);
  det_check "global_avg_pool" (fun () -> Ops.global_avg_pool ~input);
  det_check "lrn" (fun () ->
      Ops.lrn ~input ~local_size:5 ~alpha:1e-4 ~beta:0.75 ~k:1.0);
  let fc_w = rng_tensor 14 (Shape.of_list [ 32; 6 * 13 * 13 ]) in
  let fc_b = rng_tensor 15 (Shape.vector 32) in
  det_check "fully_connected" (fun () ->
      Ops.fully_connected ~input:(Ops.flatten input) ~weights:fc_w
        ~bias:(Some fc_b))

let test_backprop_deterministic () =
  let layer =
    Layer.Conv
      { num_output = 8; kernel_size = 3; stride = 1; pad = 1; group = 2; bias = true; fused = None }
  in
  let input = rng_tensor 21 (Shape.chw ~channels:6 ~height:9 ~width:9) in
  let weights = rng_tensor 22 (Shape.of_list [ 8; 3; 3; 3 ]) in
  let bias = rng_tensor 23 (Shape.vector 8) in
  let run () =
    let out, cache =
      Db_train.Backprop.forward_op ~op:layer ~params:[ weights; bias ] ~input
    in
    let gx, gps = Db_train.Backprop.backward_layer cache ~grad_output:out in
    (Option.get gx, gps)
  in
  let gx_s, gps_s = Pool.with_sequential run and gx_p, gps_p = run () in
  bitwise_eq "conv backward gx" gx_s gx_p;
  List.iter2 (bitwise_eq "conv backward gparam") gps_s gps_p;
  let fc = Layer.Fc { num_output = 24; bias = true; fused = None } in
  let fw = rng_tensor 24 (Shape.of_list [ 24; 6 * 9 * 9 ]) in
  let fb = rng_tensor 25 (Shape.vector 24) in
  let run_fc () =
    let out, cache =
      Db_train.Backprop.forward_op ~op:fc ~params:[ fw; fb ] ~input
    in
    let gx, gps = Db_train.Backprop.backward_layer cache ~grad_output:out in
    (Option.get gx, gps)
  in
  let gx_s, gps_s = Pool.with_sequential run_fc and gx_p, gps_p = run_fc () in
  bitwise_eq "fc backward gx" gx_s gx_p;
  List.iter2 (bitwise_eq "fc backward gparam") gps_s gps_p

(* --- classifier partial selection ---------------------------------------- *)

(* The pre-optimisation reference: sort every index, take the first k. *)
let top_k_reference input k =
  let n = Tensor.numel input in
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let va = Tensor.get input a and vb = Tensor.get input b in
      if va > vb then -1 else if va < vb then 1 else compare a b)
    idx;
  Array.init k (fun i -> float_of_int idx.(i))

let top_k input k = Tensor.to_array (Ops.classify_top_k ~top_k:k input)

let test_top_k_ties () =
  let input =
    Tensor.of_array (Shape.vector 8)
      [| 1.0; 3.0; 3.0; -1.0; 7.0; 3.0; 0.0; 7.0 |]
  in
  Alcotest.(check (array (float 0.0)))
    "ties keep the lowest index" (top_k_reference input 5) (top_k input 5)

let prop_top_k_matches_sort =
  QCheck.Test.make ~name:"top-k selection matches full sort" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create ((seed * 13) + 5) in
      let n = 1 + Rng.int rng 20 in
      let k = 1 + Rng.int rng n in
      (* Few distinct values so ties are common. *)
      let input =
        Tensor.init (Shape.vector n) (fun _ -> float_of_int (Rng.int rng 4))
      in
      top_k_reference input k = top_k input k)

(* --- design cache -------------------------------------------------------- *)

let test_design_cache_hits () =
  let b = Db_workloads.Benchmarks.find "ANN-0" in
  let cons = Db_core.Constraints.db_medium in
  let hits0, misses0 = Db_core.Design_cache.stats () in
  let d1 = Db_core.Design_cache.generate cons b.Db_workloads.Benchmarks.network in
  let d2 = Db_core.Design_cache.generate cons b.Db_workloads.Benchmarks.network in
  if not (d1 == d2) then Alcotest.fail "second generate did not hit the cache";
  let hits1, misses1 = Db_core.Design_cache.stats () in
  Alcotest.(check bool) "one hit recorded" true (hits1 >= hits0 + 1);
  Alcotest.(check bool) "at most one miss" true (misses1 <= misses0 + 1);
  (* Different constraints must key a different entry. *)
  let d3 =
    Db_core.Design_cache.generate
      (Db_core.Constraints.with_dsp_cap cons 4)
      b.Db_workloads.Benchmarks.network
  in
  if d1 == d3 then Alcotest.fail "distinct constraints hit the same entry"

let suite =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "parallel_for covers range" `Quick
          test_parallel_for_covers;
        Alcotest.test_case "explicit chunking" `Quick test_parallel_for_chunked;
        Alcotest.test_case "nested sections" `Quick test_nesting;
        Alcotest.test_case "exception propagation" `Quick
          test_exception_propagates;
        Alcotest.test_case "map_list order" `Quick test_map_list_order;
      ] );
    ( "parallel.kernels",
      [
        Alcotest.test_case "kernels bitwise-deterministic" `Quick
          test_kernels_deterministic;
        Alcotest.test_case "backprop bitwise-deterministic" `Quick
          test_backprop_deterministic;
        Alcotest.test_case "top-k ties" `Quick test_top_k_ties;
      ] );
    ( "parallel.properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_gemm_matches_naive; prop_top_k_matches_sort ] );
    ( "parallel.design_cache",
      [ Alcotest.test_case "memoised generate" `Quick test_design_cache_hits ]
    );
  ]
