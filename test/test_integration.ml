(* Integration tests: end-to-end generate + simulate across the benchmark
   suite and the experiment harness itself (quick configuration). *)

module Experiments = Db_report.Experiments
module Benchmarks = Db_workloads.Benchmarks
module Simulator = Db_sim.Simulator
module Design = Db_core.Design
module Resource = Db_fpga.Resource

let small_benchmarks = [ "ANN-0"; "ANN-1"; "ANN-2"; "CMAC"; "Hopfield"; "MNIST" ]

let test_generate_every_benchmark () =
  (* Every Table 2 model generates under its per-app budget and the design
     fits the constraint. *)
  List.iter
    (fun b ->
      let design = Experiments.design_for b in
      let used = Design.resource_usage design in
      Alcotest.(check bool)
        (b.Benchmarks.bench_name ^ " fits budget")
        true
        (Resource.fits used
           ~within:design.Design.constraints.Db_core.Constraints.budget);
      (* The search saturates the per-app DSP cap, then the dominance
         refinement may slim lanes down as long as every layer keeps its
         fold count — so the DSP usage lands in [fold-preserving floor,
         cap] rather than exactly at the cap. *)
      let cap = b.Benchmarks.dsp_cap in
      let floor_lanes =
        Db_core.Config_search.fold_preserving_lanes design.Design.ir
          ~lanes:(min cap (Db_core.Config_search.useful_lanes design.Design.ir))
      in
      Alcotest.(check bool)
        (b.Benchmarks.bench_name ^ " DSPs within per-app cap")
        true
        (used.Resource.dsps <= cap && used.Resource.dsps >= floor_lanes))
    Benchmarks.all

let test_simulate_every_benchmark () =
  List.iter
    (fun b ->
      let design = Experiments.design_for b in
      let report = Simulator.timing design in
      Alcotest.(check bool)
        (b.Benchmarks.bench_name ^ " produces cycles")
        true
        (report.Simulator.total_cycles > 0))
    Benchmarks.all

let test_verilog_for_every_benchmark () =
  List.iter
    (fun name ->
      let b = Benchmarks.find name in
      let design = Experiments.design_for b in
      let v = Design.verilog design in
      Alcotest.(check bool) (name ^ " emits verilog") true (String.length v > 1000))
    small_benchmarks

let test_budget_ordering () =
  (* DB-L is never slower than DB; DB never slower than DB-S (same model,
     more resources). *)
  List.iter
    (fun name ->
      let b = Benchmarks.find name in
      let t budget = (Simulator.timing (Experiments.design_for ~budget b)).Simulator.seconds in
      let db = t `Db and db_l = t `Db_l and db_s = t `Db_s in
      Alcotest.(check bool) (name ^ ": DB-L <= DB") true (db_l <= db +. 1e-12);
      Alcotest.(check bool) (name ^ ": DB <= DB-S") true (db <= db_s +. 1e-12))
    small_benchmarks

let quick = Experiments.quick_config

let test_table1_shape () =
  let rows = Experiments.table1 () in
  Alcotest.(check int) "six models" 6 (List.length rows);
  (* Spot-check against the paper's Table 1. *)
  let find name = List.find (fun r -> r.Experiments.t1_model = name) rows in
  let mlp = (find "MLP").Experiments.t1_decomp in
  Alcotest.(check bool) "MLP: no conv" false mlp.Db_nn.Model_stats.has_conv;
  Alcotest.(check bool) "MLP: fc" true mlp.Db_nn.Model_stats.has_fc;
  let alex = (find "Alexnet").Experiments.t1_decomp in
  Alcotest.(check bool) "Alexnet: conv" true alex.Db_nn.Model_stats.has_conv;
  Alcotest.(check bool) "Alexnet: dropout" true alex.Db_nn.Model_stats.has_dropout;
  Alcotest.(check bool) "Alexnet: pooling" true alex.Db_nn.Model_stats.has_pooling;
  let cmac = (find "CMAC").Experiments.t1_decomp in
  Alcotest.(check bool) "CMAC: associative" true cmac.Db_nn.Model_stats.has_associative;
  let goog = (find "GoogleNet").Experiments.t1_decomp in
  Alcotest.(check bool) "GoogleNet: lrn" true goog.Db_nn.Model_stats.has_lrn;
  Alcotest.(check bool) "GoogleNet: dropout" true goog.Db_nn.Model_stats.has_dropout

let test_table2_shape () =
  let rows = Experiments.table2 () in
  Alcotest.(check int) "nine models (paper says eight, lists nine)" 9 (List.length rows);
  let find name = List.find (fun r -> r.Experiments.t2_name = name) rows in
  Alcotest.(check string) "hopfield app" "TSP solver" (find "Hopfield").Experiments.t2_application;
  Alcotest.(check bool) "hopfield recurrent" true (find "Hopfield").Experiments.t2_rec;
  Alcotest.(check bool) "ann-0 no conv" false (find "ANN-0").Experiments.t2_conv

let test_fig8_fig9_relations () =
  let rows =
    Experiments.fig8_fig9 { quick with Experiments.benchmarks = small_benchmarks }
  in
  Alcotest.(check int) "rows" (List.length small_benchmarks) (List.length rows);
  List.iter
    (fun r ->
      (* Custom beats DB (the paper's "Custom mostly beats DB"). *)
      Alcotest.(check bool) (r.Experiments.p_name ^ ": custom faster") true
        (r.Experiments.p_custom_s < r.Experiments.p_db_s);
      (* All times and energies positive. *)
      Alcotest.(check bool) "positive" true
        (r.Experiments.p_cpu_s > 0.0 && r.Experiments.e_db_j > 0.0);
      (* DB energy is far below the CPU's (the >90% saving claim). *)
      Alcotest.(check bool) (r.Experiments.p_name ^ ": energy saving") true
        (r.Experiments.e_db_j *. 10.0 < r.Experiments.e_cpu_j))
    rows

let test_table3_shape () =
  let cfg = { quick with Experiments.benchmarks = small_benchmarks } in
  let rows = Experiments.table3 cfg in
  Alcotest.(check int) "one row per benchmark" (List.length small_benchmarks)
    (List.length rows);
  List.iter
    (fun r ->
      if r.Experiments.r_custom <> Resource.zero then begin
        (* Table 3's relation: DB consumes more LUTs/FFs than Custom, the
           same DSPs. *)
        Alcotest.(check bool) (r.Experiments.r_name ^ " lut relation") true
          (r.Experiments.r_db.Resource.luts >= r.Experiments.r_custom.Resource.luts);
        Alcotest.(check int) (r.Experiments.r_name ^ " same dsps")
          r.Experiments.r_custom.Resource.dsps r.Experiments.r_db.Resource.dsps
      end)
    rows

let test_summary_envelope () =
  let cfg = { quick with Experiments.benchmarks = small_benchmarks } in
  let perf = Experiments.fig8_fig9 cfg in
  let acc = Experiments.fig10 cfg in
  let s = Experiments.summarise perf acc in
  (* The paper's envelope: a few-fold max speed-up, >10x energy saving,
     DB-L severalx over DB, small accuracy delta. *)
  Alcotest.(check bool) "max speedup in [2, 10]" true
    (s.Experiments.max_speedup_vs_cpu > 2.0 && s.Experiments.max_speedup_vs_cpu < 10.0);
  Alcotest.(check bool) "energy saving > 10x" true
    (s.Experiments.avg_energy_saving_vs_cpu > 10.0);
  Alcotest.(check bool) "DB-L gain in [1.5, 10]" true
    (s.Experiments.db_l_speedup_over_db > 1.5 && s.Experiments.db_l_speedup_over_db < 10.0);
  Alcotest.(check bool) "accuracy delta < 3%" true
    (s.Experiments.mean_accuracy_delta < 3.0)

let test_fig10_small_delta () =
  let cfg = { quick with Experiments.benchmarks = [ "ANN-1"; "CMAC" ] } in
  let rows = Experiments.fig10 cfg in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s delta %.2f within 3%%" r.Experiments.a_name
           (r.Experiments.a_db -. r.Experiments.a_cpu))
        true
        (Float.abs (r.Experiments.a_db -. r.Experiments.a_cpu) < 3.0))
    rows

let test_ablation_lut_monotone () =
  let rows = Experiments.ablation_lut ~entries_list:[ 16; 64; 256 ] in
  match rows with
  | [ (_, e16, _); (_, e64, _); (_, e256, _) ] ->
      Alcotest.(check bool) "sigmoid error shrinks" true (e16 > e64 && e64 > e256)
  | _ -> Alcotest.fail "expected three rows"

let test_ablation_lanes () =
  let rows = Experiments.ablation_lanes ~benchmark:"MNIST" ~lanes_list:[ 2; 8 ] in
  match rows with
  | [ (2, t2, l2); (8, t8, l8) ] ->
      Alcotest.(check bool) "more lanes faster" true (t8 < t2);
      Alcotest.(check bool) "more lanes more LUTs" true (l8 > l2)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_fixed_point () =
  let cfg = { quick with Experiments.benchmarks = [ "ANN-1" ] } in
  let rows = Experiments.ablation_fixed_point cfg ~widths:[ (8, 4); (16, 8); (24, 12) ] in
  match rows with
  | [ (_, per_width) ] -> begin
      match per_width with
      | [ (8, a8); (16, a16); (24, a24) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "wider helps: %.1f <= %.1f <= %.1f" a8 a16 a24)
            true
            (a8 <= a16 +. 1.0 && a16 <= a24 +. 1.0)
      | _ -> Alcotest.fail "expected three widths"
    end
  | _ -> Alcotest.fail "expected one benchmark"

let test_renderers_do_not_crash () =
  let cfg = { quick with Experiments.benchmarks = [ "ANN-0" ] } in
  let t1 = Experiments.render_table1 (Experiments.table1 ()) in
  let t2 = Experiments.render_table2 (Experiments.table2 ()) in
  let perf = Experiments.fig8_fig9 cfg in
  let f8 = Experiments.render_fig8 perf in
  let f9 = Experiments.render_fig9 perf in
  let t3 = Experiments.render_table3 (Experiments.table3 cfg) in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty render" true (String.length s > 40))
    [ t1; t2; f8; f9; t3 ]

let suite =
  [
    ( "integration.generate",
      [
        Alcotest.test_case "all benchmarks generate" `Quick test_generate_every_benchmark;
        Alcotest.test_case "all benchmarks simulate" `Quick test_simulate_every_benchmark;
        Alcotest.test_case "verilog everywhere" `Quick test_verilog_for_every_benchmark;
        Alcotest.test_case "budget ordering" `Quick test_budget_ordering;
      ] );
    ( "integration.experiments",
      [
        Alcotest.test_case "table 1" `Quick test_table1_shape;
        Alcotest.test_case "table 2" `Quick test_table2_shape;
        Alcotest.test_case "fig 8/9 relations" `Quick test_fig8_fig9_relations;
        Alcotest.test_case "table 3" `Quick test_table3_shape;
        Alcotest.test_case "summary envelope" `Slow test_summary_envelope;
        Alcotest.test_case "fig 10 delta" `Slow test_fig10_small_delta;
        Alcotest.test_case "renderers" `Quick test_renderers_do_not_crash;
      ] );
    ( "integration.ablations",
      [
        Alcotest.test_case "lut sweep" `Quick test_ablation_lut_monotone;
        Alcotest.test_case "lane sweep" `Quick test_ablation_lanes;
        Alcotest.test_case "fixed-point sweep" `Slow test_ablation_fixed_point;
      ] );
  ]

(* --- Appended: inception generation + lint everywhere ---------------------- *)

let test_inception_generates_and_runs () =
  (* The Concat path (inception) through the whole flow. *)
  let net =
    Db_workloads.Model_zoo.build Db_workloads.Model_zoo.googlenet_like_prototxt
  in
  let cons = Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium 8 in
  let design = Db_core.Generator.generate cons net in
  let report = Simulator.timing design in
  Alcotest.(check bool) "simulates" true (report.Simulator.total_cycles > 0);
  let r = Db_sim.Control_playback.playback design in
  Alcotest.(check (list string)) "memory-safe" [] r.Db_sim.Control_playback.violations;
  (* Functional run with random weights stays close to float. *)
  let rng = Db_util.Rng.create 17 in
  let params = Db_nn.Params.init_xavier rng net in
  let input =
    Db_tensor.Tensor.random_uniform rng
      (Db_tensor.Shape.chw ~channels:3 ~height:32 ~width:32)
      ~min:0.0 ~max:1.0
  in
  let accel =
    Simulator.functional_output design params ~inputs:[ ("data", input) ]
  in
  let reference =
    Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("data", input) ]
  in
  Alcotest.(check bool) "tracks float" true
    (Db_tensor.Tensor.l2_distance accel reference < 0.5)

let test_lint_all_benchmark_rtl () =
  List.iter
    (fun name ->
      let design = Experiments.design_for (Benchmarks.find name) in
      Db_hdl.Lint.assert_clean (Design.verilog design))
    small_benchmarks

let test_lint_testbench () =
  let b = Benchmarks.find "ANN-0" in
  let design = Experiments.design_for b in
  let rng = Db_util.Rng.create 3 in
  let params = Db_nn.Params.init_xavier rng design.Design.network in
  let input =
    Db_tensor.Tensor.random_uniform rng (Db_tensor.Shape.vector 1) ~min:0.0
      ~max:1.0
  in
  let tb = Simulator.testbench design params ~inputs:[ ("data", input) ] in
  (* The testbench instantiates the accelerator: lint the two together. *)
  Db_hdl.Lint.assert_clean (Design.verilog design ^ tb)

let suite =
  suite
  @ [
      ( "integration.extra",
        [
          Alcotest.test_case "inception end-to-end" `Quick test_inception_generates_and_runs;
          Alcotest.test_case "lint all RTL" `Quick test_lint_all_benchmark_rtl;
          Alcotest.test_case "lint testbench" `Quick test_lint_testbench;
        ] );
    ]
