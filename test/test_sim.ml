(* Tests for db_sim: the per-fold cost model, LUT-backed function
   evaluation and the whole-design simulator (timing + function). *)

module Simulator = Db_sim.Simulator
module Perf_model = Db_sim.Perf_model
module Constraints = Db_core.Constraints
module Generator = Db_core.Generator
module Design = Db_core.Design
module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape

let ann_net () =
  Db_workloads.Model_zoo.build
    (Db_workloads.Model_zoo.ann_prototxt ~name:"simnet" ~inputs:8 ~hidden1:16
       ~hidden2:16 ~outputs:4)

let design_of ?(dsp_cap = 4) net =
  Generator.generate (Constraints.with_dsp_cap Constraints.db_medium dsp_cap) net

let test_timing_basics () =
  let design = design_of (ann_net ()) in
  let report = Simulator.timing design in
  Alcotest.(check bool) "cycles positive" true (report.Simulator.total_cycles > 0);
  Alcotest.(check (float 1e-12)) "seconds = cycles * 10ns"
    (float_of_int report.Simulator.total_cycles *. 1e-8)
    report.Simulator.seconds;
  Alcotest.(check bool) "dram traffic" true (report.Simulator.dram_bytes > 0);
  Alcotest.(check bool) "energy positive" true (report.Simulator.energy_j > 0.0);
  (* One per-layer row per compute layer. *)
  Alcotest.(check int) "per-layer rows" 5 (List.length report.Simulator.per_layer)

let test_per_layer_sums_to_total () =
  let design = design_of (ann_net ()) in
  let report = Simulator.timing design in
  let sum =
    List.fold_left (fun acc l -> acc + l.Simulator.lr_cycles) 0 report.Simulator.per_layer
  in
  Alcotest.(check int) "sum" report.Simulator.total_cycles sum

let test_more_lanes_faster () =
  let net = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mnist_prototxt in
  let t cap = (Simulator.timing (design_of ~dsp_cap:cap net)).Simulator.seconds in
  let t2 = t 2 and t8 = t 8 in
  Alcotest.(check bool) (Printf.sprintf "8 lanes (%.2g) < 2 lanes (%.2g)" t8 t2)
    true (t8 < t2)

let test_fold_cost_overlap () =
  (* A fold's cycles are max(compute, memory) + overhead, not the sum. *)
  let design = design_of (ann_net ()) in
  let dp = design.Design.datapath in
  List.iter
    (fun p ->
      let c = Perf_model.fold_cost dp p in
      Alcotest.(check int) "overlap"
        (Stdlib.max c.Perf_model.compute_cycles c.Perf_model.memory_cycles
        + Perf_model.reconfiguration_overhead_cycles)
        c.Perf_model.fold_cycles)
    design.Design.program.Db_core.Compiler.programs

let test_functional_matches_quantized () =
  (* The simulator's functional path with fresh (large) LUTs matches the
     plain quantized interpreter closely. *)
  let net = ann_net () in
  let rng = Db_util.Rng.create 21 in
  let params = Db_nn.Params.init_xavier rng net in
  let design = design_of net in
  let input = Tensor.random_uniform rng (Shape.vector 8) ~min:(-1.0) ~max:1.0 in
  let sim_out = Simulator.functional_output design params ~inputs:[ ("data", input) ] in
  let q_out =
    Db_nn.Quantized.output ~fmt:design.Design.datapath.Db_sched.Datapath.fmt net
      params ~inputs:[ ("data", input) ]
  in
  Alcotest.(check bool) "close" true (Tensor.equal_approx ~tol:0.02 sim_out q_out)

let test_functional_tracks_float () =
  let net = ann_net () in
  let rng = Db_util.Rng.create 22 in
  let params = Db_nn.Params.init_xavier rng net in
  let design = design_of net in
  let input = Tensor.random_uniform rng (Shape.vector 8) ~min:(-1.0) ~max:1.0 in
  let sim_out = Simulator.functional_output design params ~inputs:[ ("data", input) ] in
  let float_out = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("data", input) ] in
  Alcotest.(check bool) "within fixed-point noise" true
    (Tensor.l2_distance sim_out float_out < 0.1)

let test_lut_eval_uses_tables () =
  (* A deliberately coarse sigmoid LUT shows up as approximation error. *)
  let coarse = [ Db_blocks.Approx_lut.sigmoid ~entries:4 ] in
  let eval = Db_sim.Lut_eval.of_luts coarse in
  let exact = 1.0 /. (1.0 +. exp (-1.3)) in
  let approx = eval.Db_nn.Quantized.eval_activation Db_nn.Layer.Sigmoid 1.3 in
  Alcotest.(check bool) "coarse table differs from exact" true
    (Float.abs (approx -. exact) > 1e-4);
  (* ReLU stays exact regardless. *)
  Alcotest.(check (float 1e-12)) "relu exact" 1.3
    (eval.Db_nn.Quantized.eval_activation Db_nn.Layer.Relu 1.3)

let test_lut_eval_fallback () =
  let eval = Db_sim.Lut_eval.of_luts [] in
  Alcotest.(check (float 1e-12)) "tanh exact fallback" (Float.tanh 0.4)
    (eval.Db_nn.Quantized.eval_activation Db_nn.Layer.Tanh 0.4);
  Alcotest.(check (float 1e-12)) "recip fallback" 0.5
    (eval.Db_nn.Quantized.eval_reciprocal 2.0)

let test_run_returns_both () =
  let net = ann_net () in
  let rng = Db_util.Rng.create 23 in
  let params = Db_nn.Params.init_xavier rng net in
  let design = design_of net in
  let input = Tensor.random_uniform rng (Shape.vector 8) ~min:(-1.0) ~max:1.0 in
  let out, report = Simulator.run design params ~inputs:[ ("data", input) ] in
  Alcotest.(check int) "output size" 4 (Tensor.numel out);
  Alcotest.(check bool) "report present" true (report.Simulator.total_cycles > 0)

let suite =
  [
    ( "sim.timing",
      [
        Alcotest.test_case "basics" `Quick test_timing_basics;
        Alcotest.test_case "per-layer sums" `Quick test_per_layer_sums_to_total;
        Alcotest.test_case "lanes scale" `Quick test_more_lanes_faster;
        Alcotest.test_case "compute/memory overlap" `Quick test_fold_cost_overlap;
      ] );
    ( "sim.function",
      [
        Alcotest.test_case "matches quantized" `Quick test_functional_matches_quantized;
        Alcotest.test_case "tracks float" `Quick test_functional_tracks_float;
        Alcotest.test_case "lut eval tables" `Quick test_lut_eval_uses_tables;
        Alcotest.test_case "lut eval fallback" `Quick test_lut_eval_fallback;
        Alcotest.test_case "run api" `Quick test_run_returns_both;
      ] );
  ]
