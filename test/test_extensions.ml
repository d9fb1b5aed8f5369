(* Tests for the extensions beyond the paper's minimum: the cycle-accurate
   AGU simulator, pipelined batch throughput, the training-acceleration
   rows (priced by Train_sim) and the LCN layer. *)

module Access_pattern = Db_mem.Access_pattern
module Agu_sim = Db_mem.Agu_sim
module Fixed = Db_fixed.Fixed
module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape

(* --- AGU cycle simulation ------------------------------------------- *)

let test_agu_sim_contiguous () =
  let p = Access_pattern.contiguous ~name:"c" ~start:5 ~length:4 in
  let addrs, cycles = Agu_sim.run_to_completion (Agu_sim.create p) in
  Alcotest.(check (list int)) "stream" [ 5; 6; 7; 8 ] addrs;
  Alcotest.(check int) "one address per cycle" 4 cycles

let test_agu_sim_rows_with_bubbles () =
  let p = Access_pattern.rows ~name:"r" ~start:0 ~x_length:3 ~y_length:2 ~stride:8 in
  let addrs, cycles = Agu_sim.run_to_completion (Agu_sim.create p) in
  Alcotest.(check (list int)) "stream" [ 0; 1; 2; 8; 9; 10 ] addrs;
  (* 6 addresses + 1 row-turnaround bubble. *)
  Alcotest.(check int) "cycles" 7 cycles;
  Alcotest.(check int) "matches estimate" (Agu_sim.cycles_estimate p) cycles

let test_agu_sim_idle_until_trigger () =
  let p = Access_pattern.contiguous ~name:"i" ~start:0 ~length:2 in
  let agu = Agu_sim.create p in
  let out = Agu_sim.step agu in
  Alcotest.(check bool) "idle: no address" true (out.Agu_sim.addr = None);
  Alcotest.(check bool) "idle: not busy" false out.Agu_sim.busy

let test_agu_sim_retrigger () =
  let p = Access_pattern.contiguous ~name:"t" ~start:0 ~length:3 in
  let agu = Agu_sim.create p in
  let first, _ = Agu_sim.run_to_completion agu in
  let second, _ = Agu_sim.run_to_completion agu in
  Alcotest.(check (list int)) "replays identically" first second

(* Property: the cycle-by-cycle machine always reproduces the closed-form
   address stream, bubbles included. *)
let prop_agu_sim_equals_closed_form =
  QCheck.Test.make ~name:"AGU sim = closed-form stream" ~count:100
    QCheck.(
      quad (int_range 1 6) (int_range 1 5) (int_range 0 9) (int_range 1 3))
    (fun (x_length, y_length, extra, repeat) ->
      let stride = x_length + extra in
      let block = ((y_length - 1) * stride) + x_length in
      let p =
        {
          Access_pattern.pattern_name = "prop";
          start = 2;
          footprint = (repeat * block) + block + 4;
          x_length;
          y_length;
          stride;
          offset = block;
          repeat;
        }
      in
      let addrs, cycles = Agu_sim.run_to_completion (Agu_sim.create p) in
      addrs = Access_pattern.addresses_list p
      && cycles = Agu_sim.cycles_estimate p)

let fmt = Fixed.q16_8

(* --- Batch throughput --------------------------------------------------- *)

let mnist_design () =
  Db_core.Generator.generate
    (Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium 12)
    (Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mnist_prototxt)

let test_batch_timing () =
  let design = mnist_design () in
  let single = Db_sim.Simulator.timing design in
  let b1 = Db_sim.Simulator.batch_timing ~batch:1 design in
  Alcotest.(check int) "batch 1 = serial" single.Db_sim.Simulator.total_cycles
    b1.Db_sim.Simulator.batch_cycles;
  let b16 = Db_sim.Simulator.batch_timing ~batch:16 design in
  Alcotest.(check bool) "pipelining helps" true
    (b16.Db_sim.Simulator.speedup_over_serial >= 1.0);
  Alcotest.(check bool) "throughput positive" true
    (b16.Db_sim.Simulator.images_per_second > 0.0);
  Alcotest.(check bool) "batch cycles grow" true
    (b16.Db_sim.Simulator.batch_cycles > b1.Db_sim.Simulator.batch_cycles)

(* --- Training model ------------------------------------------------------ *)

(* One SGD step on the MNIST training accelerator at the Db budget, priced
   phase by phase; the figures are those of pricing every fold on its own. *)
let test_training_iteration () =
  let b = Db_workloads.Benchmarks.find "MNIST" in
  let tb =
    Db_core.Train_builder.build
      (Db_report.Experiments.constraints_for ~budget:`Db b)
      b.Db_workloads.Benchmarks.network
  in
  let r = Db_sim.Train_sim.compile_trace tb in
  let cycles (p : Db_sim.Train_sim.phase_cycles) =
    p.Db_sim.Train_sim.pc_cycles
  in
  Alcotest.(check int) "ff cycles" 14_200 (cycles r.Db_sim.Train_sim.ff);
  Alcotest.(check int) "bp cycles" 51_410 (cycles r.Db_sim.Train_sim.bp);
  Alcotest.(check int) "up cycles" 21_712 (cycles r.Db_sim.Train_sim.up);
  Alcotest.(check int) "spill cycles" 0 r.Db_sim.Train_sim.spill_cycles;
  Alcotest.(check bool) "backward costs more than forward" true
    (cycles r.Db_sim.Train_sim.bp > cycles r.Db_sim.Train_sim.ff);
  Alcotest.(check int) "step = ff + bp + up + spill"
    (cycles r.Db_sim.Train_sim.ff + cycles r.Db_sim.Train_sim.bp
    + cycles r.Db_sim.Train_sim.up + r.Db_sim.Train_sim.spill_cycles)
    r.Db_sim.Train_sim.step_cycles;
  Alcotest.(check bool) "steps/s positive" true
    (Db_sim.Train_sim.steps_per_second tb r > 0.0)

(* The UP phase rewrites every weight at the design's own word size:
   narrower words move fewer DRAM bytes, wider words more, over the same
   update folds. *)
let test_training_update_word_size () =
  let net = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mlp_prototxt in
  let up fmt =
    let cons = { Db_core.Constraints.db_medium with Db_core.Constraints.fmt } in
    (Db_sim.Train_sim.compile_trace (Db_core.Train_builder.build cons net))
      .Db_sim.Train_sim.up
  in
  let phases =
    List.map
      (fun (fmt, expected) ->
        let p = up fmt in
        Alcotest.(check int)
          (Printf.sprintf "update cycles, %d-bit words" fmt.Fixed.total_bits)
          expected p.Db_sim.Train_sim.pc_cycles;
        p)
      [ (Fixed.q8_4, 1535); (Fixed.q16_8, 1616); (Fixed.q32_16, 1781) ]
  in
  match phases with
  | [ p8; p16; p32 ] ->
      Alcotest.(check bool) "UP grows with the word size" true
        (p8.Db_sim.Train_sim.pc_cycles < p16.Db_sim.Train_sim.pc_cycles
        && p16.Db_sim.Train_sim.pc_cycles < p32.Db_sim.Train_sim.pc_cycles);
      Alcotest.(check int) "DRAM bytes double with the word"
        (2 * p16.Db_sim.Train_sim.pc_dram_bytes)
        p32.Db_sim.Train_sim.pc_dram_bytes;
      Alcotest.(check int) "same update folds" p8.Db_sim.Train_sim.pc_folds
        p32.Db_sim.Train_sim.pc_folds
  | _ -> Alcotest.fail "expected three formats"

let test_training_cpu_baseline () =
  let cpu = Db_baseline.Cpu_model.xeon_2_4ghz in
  let net = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mnist_prototxt in
  let fwd = Db_baseline.Cpu_model.forward_seconds cpu net in
  let it = Db_baseline.Cpu_model.training_iteration_seconds cpu net in
  Alcotest.(check bool) "iteration > 2x forward" true (it > 2.0 *. fwd)

let test_training_experiment_rows () =
  let rows =
    Db_report.Experiments.training
      {
        Db_report.Experiments.seed = 42;
        benchmarks = [ "ANN-0"; "MNIST" ];
        accuracy_samples = Some 4;
      }
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Db_report.Experiments.tr_name ^ " DB-L >= DB")
        true
        (r.Db_report.Experiments.tr_db_l_sps >= r.Db_report.Experiments.tr_db_sps))
    rows

(* --- LCN layer ------------------------------------------------------------ *)

let lcn_net ~window ~epsilon =
  Db_nn.Network.create ~name:"lcn"
    [
      {
        Db_nn.Network.node_name = "in";
        layer = Db_nn.Layer.Input { shape = Shape.chw ~channels:1 ~height:5 ~width:5 };
        bottoms = [];
        tops = [ "x" ];
      };
      {
        Db_nn.Network.node_name = "norm";
        layer = Db_nn.Layer.Lcn { window; epsilon };
        bottoms = [ "x" ];
        tops = [ "y" ];
      };
    ]

let test_lcn_constant_input_zeroes () =
  (* A constant image has zero contrast: output is zero everywhere. *)
  let net = lcn_net ~window:3 ~epsilon:0.01 in
  let input = Tensor.full (Shape.chw ~channels:1 ~height:5 ~width:5) 0.7 in
  let out = Db_ir.Interp.output (Db_ir.Lower.lower net) (Db_nn.Params.create ()) ~inputs:[ ("x", input) ] in
  Tensor.iteri
    (fun i v -> Alcotest.(check (float 1e-9)) (Printf.sprintf "pixel %d" i) 0.0 v)
    out

let test_lcn_normalises_scale () =
  (* Scaling the input does not change the output (contrast invariance),
     as long as the std stays above epsilon. *)
  let net = lcn_net ~window:3 ~epsilon:1e-6 in
  let rng = Db_util.Rng.create 91 in
  let input =
    Tensor.random_uniform rng (Shape.chw ~channels:1 ~height:5 ~width:5)
      ~min:0.0 ~max:1.0
  in
  let params = Db_nn.Params.create () in
  let g = Db_ir.Lower.lower net in
  let out1 = Db_ir.Interp.output g params ~inputs:[ ("x", input) ] in
  let out2 = Db_ir.Interp.output g params ~inputs:[ ("x", Tensor.scale 3.0 input) ] in
  Alcotest.(check bool) "scale invariant" true
    (Tensor.equal_approx ~tol:1e-6 out1 out2)

let test_lcn_quantized_close () =
  let net = lcn_net ~window:3 ~epsilon:0.05 in
  let rng = Db_util.Rng.create 92 in
  let input =
    Tensor.random_uniform rng (Shape.chw ~channels:1 ~height:5 ~width:5)
      ~min:0.0 ~max:1.0
  in
  let params = Db_nn.Params.create () in
  let float_out = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("x", input) ] in
  let q_out = Db_nn.Quantized.output ~fmt net params ~inputs:[ ("x", input) ] in
  Alcotest.(check bool) "fixed point tracks float" true
    (Tensor.l2_distance float_out q_out < 0.5)

let test_lcn_caffe_roundtrip () =
  let src =
    {|
name: "lcn-net"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 1 dim: 5 dim: 5 } }
layers { name: "norm" type: LCN bottom: "data" top: "norm"
  lcn_param { window: 3 epsilon: 0.02 } }
|}
  in
  let net = Db_nn.Caffe.import_string src in
  let re = Db_nn.Caffe.import_string (Db_nn.Caffe.export_string net) in
  match (Db_nn.Network.find_node re "norm").Db_nn.Network.layer with
  | Db_nn.Layer.Lcn { window; epsilon } ->
      Alcotest.(check int) "window" 3 window;
      Alcotest.(check (float 1e-9)) "epsilon" 0.02 epsilon
  | _ -> Alcotest.fail "not an LCN layer after roundtrip"

let test_lcn_generates () =
  (* The generator maps LCN onto the LRN unit and a reciprocal LUT. *)
  let src =
    {|
name: "lcn-accel"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 1 dim: 8 dim: 8 } }
layers { name: "norm" type: LCN bottom: "data" top: "norm"
  lcn_param { window: 3 epsilon: 0.02 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "norm" top: "fc"
  inner_product_param { num_output: 4 } }
|}
  in
  let net = Db_nn.Caffe.import_string src in
  let design =
    Db_core.Generator.generate
      (Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium 2)
      net
  in
  let has label = Db_core.Block_set.find design.Db_core.Design.block_set ~kind_label:label <> [] in
  Alcotest.(check bool) "lrn unit present" true (has "lrn_unit");
  Alcotest.(check bool) "reciprocal lut compiled" true
    (List.mem "reciprocal"
       (Db_core.Lut_set.names design.Db_core.Design.program.Db_core.Compiler.luts));
  let report = Db_sim.Simulator.timing design in
  Alcotest.(check bool) "simulates" true (report.Db_sim.Simulator.total_cycles > 0)

let suite =
  [
    ( "ext.agu_sim",
      [
        Alcotest.test_case "contiguous" `Quick test_agu_sim_contiguous;
        Alcotest.test_case "rows + bubbles" `Quick test_agu_sim_rows_with_bubbles;
        Alcotest.test_case "idle until trigger" `Quick test_agu_sim_idle_until_trigger;
        Alcotest.test_case "retrigger" `Quick test_agu_sim_retrigger;
        QCheck_alcotest.to_alcotest prop_agu_sim_equals_closed_form;
      ] );
    ( "ext.batch",
      [ Alcotest.test_case "pipelined throughput" `Quick test_batch_timing ] );
    ( "ext.training",
      [
        Alcotest.test_case "iteration" `Quick test_training_iteration;
        Alcotest.test_case "update word size" `Quick test_training_update_word_size;
        Alcotest.test_case "cpu baseline" `Quick test_training_cpu_baseline;
        Alcotest.test_case "experiment rows" `Quick test_training_experiment_rows;
      ] );
    ( "ext.lcn",
      [
        Alcotest.test_case "constant input" `Quick test_lcn_constant_input_zeroes;
        Alcotest.test_case "scale invariance" `Quick test_lcn_normalises_scale;
        Alcotest.test_case "quantized close" `Quick test_lcn_quantized_close;
        Alcotest.test_case "caffe roundtrip" `Quick test_lcn_caffe_roundtrip;
        Alcotest.test_case "generates" `Quick test_lcn_generates;
      ] );
  ]

(* --- Control-path playback (appended suite) ------------------------------- *)

let test_playback_small_benchmarks () =
  List.iter
    (fun name ->
      let b = Db_workloads.Benchmarks.find name in
      let design = Db_report.Experiments.design_for b in
      let r = Db_sim.Control_playback.playback design in
      Alcotest.(check (list string)) (name ^ " memory-safe") [] r.Db_sim.Control_playback.violations;
      Alcotest.(check bool) (name ^ " issued addresses") true
        (r.Db_sim.Control_playback.addresses_issued > 0);
      Db_sim.Control_playback.verify design)
    [ "ANN-0"; "ANN-1"; "CMAC"; "Hopfield"; "MNIST" ]

let test_playback_catches_corruption () =
  (* Corrupt one weight pattern's start address: playback must flag it. *)
  let b = Db_workloads.Benchmarks.find "ANN-0" in
  let design = Db_report.Experiments.design_for b in
  let corrupt_programs =
    List.map
      (fun (p : Db_core.Compiler.fold_program) ->
        {
          p with
          Db_core.Compiler.transfers =
            List.map
              (fun (tr : Db_core.Compiler.transfer) ->
                match tr.Db_core.Compiler.stream with
                | `Weight_in ->
                    {
                      tr with
                      Db_core.Compiler.pattern =
                        {
                          tr.Db_core.Compiler.pattern with
                          Db_mem.Access_pattern.start =
                            design.Db_core.Design.layout.Db_mem.Layout.total_words
                            + 100;
                          footprint = 10_000;
                        };
                    }
                | `Feature_in | `Output_back -> tr)
              p.Db_core.Compiler.transfers;
        })
      design.Db_core.Design.program.Db_core.Compiler.programs
  in
  let corrupted =
    {
      design with
      Db_core.Design.program =
        { design.Db_core.Design.program with Db_core.Compiler.programs = corrupt_programs };
    }
  in
  let r = Db_sim.Control_playback.playback corrupted in
  Alcotest.(check bool) "violations detected" true
    (r.Db_sim.Control_playback.violations <> [])

(* Every zoo design at the default constraint script, the largest
   included: the coordinator replays one pulse per fold and every AGU
   address stays inside its layout region. *)
let test_playback_zoo () =
  List.iter
    (fun (name, model) ->
      let design =
        Db_core.Generator.generate_from_script ~model
          ~constraint_script:Db_serve.Serve.default_constraint_script ()
      in
      let r = Db_sim.Control_playback.playback design in
      Alcotest.(check (list string)) (name ^ " violations") []
        r.Db_sim.Control_playback.violations;
      Alcotest.(check int) (name ^ " folds executed")
        (Db_sched.Schedule.fold_count design.Db_core.Design.schedule)
        r.Db_sim.Control_playback.folds_executed)
    Db_workloads.Model_zoo.named

let suite =
  suite
  @ [
      ( "ext.playback",
        [
          Alcotest.test_case "benchmarks memory-safe" `Quick test_playback_small_benchmarks;
          Alcotest.test_case "detects corruption" `Quick test_playback_catches_corruption;
          Alcotest.test_case "zoo replays every fold" `Slow test_playback_zoo;
        ] );
    ]

(* --- Testbench generation -------------------------------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_testbench_generation () =
  let net =
    Db_workloads.Model_zoo.build
      (Db_workloads.Model_zoo.ann_prototxt ~name:"tbnet" ~inputs:4 ~hidden1:8
         ~hidden2:8 ~outputs:2)
  in
  let design =
    Db_core.Generator.generate
      (Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium 2)
      net
  in
  let rng = Db_util.Rng.create 5 in
  let params = Db_nn.Params.init_xavier rng net in
  let input = Tensor.random_uniform rng (Shape.vector 4) ~min:0.0 ~max:1.0 in
  let tb = Db_sim.Simulator.testbench design params ~inputs:[ ("data", input) ] in
  Alcotest.(check bool) "testbench module" true (contains tb "module accelerator_tbnet_tb;");
  Alcotest.(check bool) "instantiates dut" true (contains tb "accelerator_tbnet dut (");
  Alcotest.(check bool) "clock" true (contains tb "always #5 clk = ~clk;");
  Alcotest.(check bool) "watchdog" true (contains tb "watchdog");
  Alcotest.(check bool) "has expectations" true (contains tb "expected[0]");
  (* Stimulus covers input + all weights. *)
  let stats = Db_nn.Model_stats.compute net in
  Alcotest.(check bool) "stimulus rom sized to input+weights" true
    (contains tb (Printf.sprintf "stimulus [0:%d];" (4 + stats.Db_nn.Model_stats.total_params - 1)))

let test_testbench_needs_one_output () =
  (* Two FC heads on one input generate fine, but leave no single output
     blob to check: the bench must fail classified, not emit zero
     expectations. *)
  let net =
    Db_workloads.Model_zoo.build
      {|name: "twoheads"
layers { name: "data" type: INPUT top: "data" input_param { dim: 4 } }
layers { name: "fc_a" type: INNER_PRODUCT bottom: "data" top: "fc_a"
  inner_product_param { num_output: 2 } }
layers { name: "fc_b" type: INNER_PRODUCT bottom: "data" top: "fc_b"
  inner_product_param { num_output: 3 } }|}
  in
  let design =
    Db_core.Generator.generate
      (Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium 2)
      net
  in
  let rng = Db_util.Rng.create 5 in
  let params = Db_nn.Params.init_xavier rng net in
  let input = Tensor.random_uniform rng (Shape.vector 4) ~min:0.0 ~max:1.0 in
  match Db_sim.Simulator.testbench design params ~inputs:[ ("data", input) ] with
  | _ -> Alcotest.fail "testbench emitted for a two-output network"
  | exception (Db_util.Error.Deepburning_error msg as e) ->
      Alcotest.(check string) "message"
        "quantized: network has 2 output blobs, expected one" msg;
      Alcotest.(check (option string))
        "classified as validation" (Some "validation")
        (Option.map Db_util.Error.class_name (Db_util.Error.classify_exn e))

let test_testbench_validation () =
  Alcotest.check_raises "bad word bits"
    (Db_util.Error.Deepburning_error "testbench: generate: word_bits out of range")
    (fun () ->
      ignore
        (Db_hdl.Testbench.generate ~top:"x"
           {
             Db_hdl.Testbench.input_words = [ 1 ];
             expected_words = [ 1 ];
             word_bits = 64;
             watchdog_cycles = 10;
           }))

(* --- Calibration ------------------------------------------------------------ *)

let test_choose_format () =
  let f = Db_core.Calibration.choose_format ~total_bits:16 ~max_abs:0.8 () in
  (* Small range: almost all bits go to fraction (one margin bit). *)
  Alcotest.(check int) "frac for small range" 14 f.Db_fixed.Fixed.frac_bits;
  let g = Db_core.Calibration.choose_format ~total_bits:16 ~max_abs:100.0 () in
  Alcotest.(check bool) "represents the range" true
    (Db_fixed.Fixed.max_float g >= 100.0);
  let h = Db_core.Calibration.choose_format ~total_bits:8 ~max_abs:1e6 () in
  Alcotest.(check int) "clamps at zero fraction" 0 h.Db_fixed.Fixed.frac_bits

let test_calibrate_represents_activations () =
  let net =
    Db_workloads.Model_zoo.build
      (Db_workloads.Model_zoo.ann_prototxt ~name:"cal" ~inputs:6 ~hidden1:12
         ~hidden2:12 ~outputs:3)
  in
  let rng = Db_util.Rng.create 11 in
  let params = Db_nn.Params.init_xavier rng net in
  let samples =
    List.init 8 (fun _ ->
        Tensor.random_uniform rng (Shape.vector 6) ~min:(-2.0) ~max:2.0)
  in
  let max_abs =
    Db_core.Calibration.profile_max_abs net params ~input_blob:"data" ~samples
  in
  let fmt = Db_core.Calibration.calibrate net params ~input_blob:"data" ~samples in
  Alcotest.(check bool) "no saturation on the profiled range" true
    (Db_fixed.Fixed.max_float fmt >= max_abs);
  (* The calibrated format should beat a wildly wrong one on accuracy. *)
  let bad = Db_fixed.Fixed.format ~total_bits:16 ~frac_bits:1 in
  let input = List.hd samples in
  let float_out = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("data", input) ] in
  let dist f =
    Tensor.l2_distance float_out
      (Db_nn.Quantized.output ~fmt:f net params ~inputs:[ ("data", input) ])
  in
  Alcotest.(check bool) "calibrated beats frac=1" true (dist fmt < dist bad)

let test_calibrated_constraints () =
  let net =
    Db_workloads.Model_zoo.build
      (Db_workloads.Model_zoo.ann_prototxt ~name:"cal2" ~inputs:4 ~hidden1:8
         ~hidden2:8 ~outputs:2)
  in
  let rng = Db_util.Rng.create 12 in
  let params = Db_nn.Params.init_xavier rng net in
  let samples =
    [ Tensor.random_uniform rng (Shape.vector 4) ~min:0.0 ~max:1.0 ]
  in
  let cons =
    Db_core.Calibration.calibrated_constraints Db_core.Constraints.db_medium net
      params ~input_blob:"data" ~samples
  in
  Alcotest.(check int) "word width preserved" 16
    cons.Db_core.Constraints.fmt.Db_fixed.Fixed.total_bits;
  (* A sigmoid MLP's activations stay small: expect a fraction-heavy format. *)
  Alcotest.(check bool) "fraction-heavy" true
    (cons.Db_core.Constraints.fmt.Db_fixed.Fixed.frac_bits >= 10)

let suite =
  suite
  @ [
      ( "ext.testbench",
        [
          Alcotest.test_case "generation" `Quick test_testbench_generation;
          Alcotest.test_case "validation" `Quick test_testbench_validation;
          Alcotest.test_case "needs one output" `Quick
            test_testbench_needs_one_output;
        ] );
      ( "ext.calibration",
        [
          Alcotest.test_case "choose format" `Quick test_choose_format;
          Alcotest.test_case "represents activations" `Quick test_calibrate_represents_activations;
          Alcotest.test_case "constraints" `Quick test_calibrated_constraints;
        ] );
    ]


(* --- Model assets, report writer, per-layer energy ------------------------- *)

let test_model_assets_parse () =
  let dir = "../models" in
  let files = Array.to_list (Sys.readdir dir) in
  let prototxts = List.filter (fun f -> Filename.check_suffix f ".prototxt") files in
  Alcotest.(check bool) "assets present" true (List.length prototxts >= 10);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let net = Db_nn.Caffe.import (Db_prototxt.Parser.parse_file path) in
      let (_ : Db_nn.Shape_infer.t) = Db_nn.Shape_infer.infer net in
      (* The CLI takes a zoo name and the models/ file as the same model. *)
      let name = Filename.chop_suffix f ".prototxt" in
      Alcotest.(check (option string))
        (f ^ " = Model_zoo.named source")
        (Some (In_channel.with_open_bin path In_channel.input_all))
        (List.assoc_opt name Db_workloads.Model_zoo.named))
    prototxts

let test_zoo_lenet5_vgg16_stats () =
  let lenet = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.lenet5_prototxt in
  let s = Db_nn.Model_stats.compute lenet in
  (* LeNet-5's well-known parameter count is ~61.7k (this all-connected
     variant of C3). *)
  Alcotest.(check bool)
    (Printf.sprintf "lenet params %d near 61.7k" s.Db_nn.Model_stats.total_params)
    true
    (s.Db_nn.Model_stats.total_params > 55_000 && s.Db_nn.Model_stats.total_params < 70_000);
  let vgg = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.vgg16_prototxt in
  let v = Db_nn.Model_stats.compute vgg in
  Alcotest.(check int) "vgg params exactly published" 138_357_544
    v.Db_nn.Model_stats.total_params;
  Alcotest.(check int) "vgg macs exactly published" 15_470_264_320
    v.Db_nn.Model_stats.total_macs

let test_report_writer () =
  let md =
    Db_report.Report_writer.markdown
      {
        Db_report.Experiments.seed = 42;
        benchmarks = [ "ANN-0" ];
        accuracy_samples = Some 4;
      }
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true (contains md needle))
    [
      "# DeepBurning evaluation results";
      "Fig. 8";
      "Fig. 10";
      "Table 3";
      "Training acceleration";
      "Batch throughput";
    ]

let test_per_layer_energy_sums () =
  let design = mnist_design () in
  let report = Db_sim.Simulator.timing design in
  let layer_sum =
    List.fold_left
      (fun acc l -> acc +. l.Db_sim.Simulator.lr_energy_j)
      0.0 report.Db_sim.Simulator.per_layer
  in
  Alcotest.(check bool)
    (Printf.sprintf "per-layer energies (%g) sum to the total (%g)" layer_sum
       report.Db_sim.Simulator.energy_j)
    true
    (Float.abs (layer_sum -. report.Db_sim.Simulator.energy_j)
    < 0.01 *. report.Db_sim.Simulator.energy_j +. 1e-12)

let suite =
  suite
  @ [
      ( "ext.assets",
        [
          Alcotest.test_case "model files parse" `Quick test_model_assets_parse;
          Alcotest.test_case "lenet/vgg stats" `Quick test_zoo_lenet5_vgg16_stats;
        ] );
      ( "ext.report",
        [
          Alcotest.test_case "markdown writer" `Slow test_report_writer;
          Alcotest.test_case "per-layer energy" `Quick test_per_layer_energy_sums;
        ] );
    ]
