(* Tests for db_core: constraints, configuration search, the compiler and
   the full NN-Gen generator. *)

module Constraints = Db_core.Constraints
module Config_search = Db_core.Config_search
module Compiler = Db_core.Compiler
module Generator = Db_core.Generator
module Design = Db_core.Design
module Block_set = Db_core.Block_set
module Resource = Db_fpga.Resource
module Network = Db_nn.Network
module Layer = Db_nn.Layer

let ann_net () =
  Db_workloads.Model_zoo.build
    (Db_workloads.Model_zoo.ann_prototxt ~name:"t" ~inputs:8 ~hidden1:16
       ~hidden2:16 ~outputs:4)

let mnist_net () = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mnist_prototxt

let test_constraints_parse () =
  let cons =
    Constraints.parse
      {|
constraint {
  device: "zynq-7020"
  dsps: 9
  luts: 30000
  clock_mhz: 100
  word_bits: 16
  frac_bits: 8
  lut_entries: 128
}
|}
  in
  Alcotest.(check string) "device" "Zynq-7020"
    cons.Constraints.device.Db_fpga.Device.device_name;
  Alcotest.(check int) "dsp cap" 9 cons.Constraints.budget.Resource.dsps;
  Alcotest.(check int) "lut cap" 30000 cons.Constraints.budget.Resource.luts;
  Alcotest.(check int) "ff default = device" 106400 cons.Constraints.budget.Resource.ffs;
  Alcotest.(check int) "lut entries" 128 cons.Constraints.lut_entries

let test_constraints_rejects_overbudget () =
  match
    Constraints.make ~device:Db_fpga.Device.zynq_7020
      ~budget:(Resource.make ~dsps:100000 ()) ()
  with
  | (_ : Constraints.t) -> Alcotest.fail "expected over-budget failure"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_with_dsp_cap () =
  let cons = Constraints.with_dsp_cap Constraints.db_medium 3 in
  Alcotest.(check int) "cap applied" 3 cons.Constraints.budget.Resource.dsps

let test_presets () =
  Alcotest.(check string) "DB on 7045" "Zynq-7045"
    Constraints.db_medium.Constraints.device.Db_fpga.Device.device_name;
  Alcotest.(check string) "DB-S on 7020" "Zynq-7020"
    Constraints.db_small.Constraints.device.Db_fpga.Device.device_name;
  Alcotest.(check bool) "L bigger than medium" true
    (Constraints.db_large.Constraints.budget.Resource.dsps
    > Constraints.db_medium.Constraints.budget.Resource.dsps)

let test_useful_lanes () =
  Alcotest.(check int) "widest layer" 16 (Config_search.useful_lanes (Db_ir.Lower.lower (ann_net ())));
  Alcotest.(check int) "mnist conv2" 16 (Config_search.useful_lanes (Db_ir.Lower.lower (mnist_net ())))

let test_search_respects_budget () =
  let cons = Constraints.with_dsp_cap Constraints.db_medium 5 in
  let result = Config_search.search cons (Db_ir.Lower.lower (mnist_net ())) in
  Alcotest.(check bool) "fits" true
    (Resource.fits result.Config_search.block_set.Block_set.total
       ~within:cons.Constraints.budget);
  Alcotest.(check bool) "dsp within cap" true
    (result.Config_search.datapath.Db_sched.Datapath.lanes <= 5)

let test_search_uses_available_lanes () =
  (* With a roomy budget the datapath saturates the layer parallelism. *)
  let result = Config_search.search Constraints.db_large (Db_ir.Lower.lower (ann_net ())) in
  Alcotest.(check int) "takes all useful lanes" 16
    result.Config_search.datapath.Db_sched.Datapath.lanes

let generate_ann ?(dsp_cap = 4) () =
  Generator.generate (Constraints.with_dsp_cap Constraints.db_medium dsp_cap) (ann_net ())

let test_generator_end_to_end () =
  let design = generate_ann () in
  (* The block set contains what Section 3.2's mapping prescribes. *)
  let has label = Block_set.find design.Design.block_set ~kind_label:label <> [] in
  Alcotest.(check bool) "synergy neurons" true (has "synergy_neuron");
  Alcotest.(check bool) "accumulators" true (has "accumulator");
  Alcotest.(check bool) "activation unit" true (has "activation_unit");
  Alcotest.(check bool) "connection box" true (has "connection_box");
  Alcotest.(check bool) "main AGU" true (has "main_agu");
  Alcotest.(check bool) "data AGU" true (has "data_agu");
  Alcotest.(check bool) "weight AGU" true (has "weight_agu");
  Alcotest.(check bool) "coordinator" true (has "coordinator");
  Alcotest.(check bool) "buffers" true (has "feature_buffer" && has "weight_buffer");
  (* MLP has no conv/pool/LRN: no pooling or LRN units wasted. *)
  Alcotest.(check bool) "no pooling unit" false (has "pooling_unit");
  Alcotest.(check bool) "no lrn unit" false (has "lrn_unit")

let test_generator_layer_specific_blocks () =
  let cons = Constraints.with_dsp_cap Constraints.db_medium 4 in
  let design = Generator.generate cons (mnist_net ()) in
  let has label = Block_set.find design.Design.block_set ~kind_label:label <> [] in
  Alcotest.(check bool) "pooling units" true (has "pooling_unit");
  Alcotest.(check bool) "lrn unit" true (has "lrn_unit")

let test_generator_rtl_valid () =
  let design = generate_ann () in
  (* validate is called inside build_rtl; validate again defensively and
     check the emitted Verilog is structurally balanced. *)
  Db_hdl.Rtl.validate design.Design.rtl;
  let verilog = Design.verilog design in
  let lines = String.split_on_char '\n' verilog in
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  let opens = List.length (List.filter (starts_with "module ") lines) in
  let closes = List.length (List.filter (starts_with "endmodule") lines) in
  Alcotest.(check int) "balanced module/endmodule" opens closes;
  Alcotest.(check int) "one module per rtl decl"
    (List.length design.Design.rtl.Db_hdl.Rtl.modules)
    opens;
  Alcotest.(check bool) "top module present" true
    (List.exists (starts_with "module accelerator_t (") lines)

let test_generator_lut_contents () =
  let design = generate_ann () in
  (* Sigmoid net: the compiler must fill a sigmoid LUT. *)
  Alcotest.(check bool) "sigmoid lut" true
    (List.exists
       (fun l -> l.Db_blocks.Approx_lut.lut_name = "sigmoid")
       design.Design.program.Compiler.luts)

let test_compiler_fold_programs () =
  let design = generate_ann () in
  let programs = design.Design.program.Compiler.programs in
  Alcotest.(check int) "one program per fold"
    (Db_sched.Schedule.fold_count design.Design.schedule)
    (List.length programs);
  (* First fold of each layer fetches features; weights stream per fold for
     weighted layers; all patterns validate. *)
  List.iter
    (fun p ->
      List.iter
        (fun tr -> Db_mem.Access_pattern.validate tr.Compiler.pattern)
        p.Compiler.transfers)
    programs;
  Alcotest.(check bool) "some traffic" true (Compiler.total_dram_words design.Design.program > 0)

let test_compiler_weight_traffic_complete () =
  (* Sum of weight-stream words equals the total weight words. *)
  let design = generate_ann () in
  let weight_words =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc tr ->
            match tr.Compiler.stream with
            | `Weight_in -> acc + tr.Compiler.words
            | `Feature_in | `Output_back -> acc)
          acc p.Compiler.transfers)
      0 design.Design.program.Compiler.programs
  in
  let net = ann_net () in
  let stats = Db_nn.Model_stats.compute net in
  Alcotest.(check int) "all weights streamed once"
    stats.Db_nn.Model_stats.total_params weight_words

let test_compiler_agu_fsms () =
  let design = generate_ann () in
  let fsms = Compiler.agu_pattern_fsms design.Design.program in
  Alcotest.(check bool) "deduplicated but non-empty" true (List.length fsms > 0);
  List.iter Db_hdl.Fsm.validate fsms

let test_generate_from_script () =
  let model =
    Db_workloads.Model_zoo.ann_prototxt ~name:"scripted" ~inputs:4 ~hidden1:8
      ~hidden2:8 ~outputs:2
  in
  let constraint_script =
    {|constraint { device: "zynq-7045" dsps: 2 luts: 40000 }|}
  in
  let design = Generator.generate_from_script ~model ~constraint_script () in
  Alcotest.(check int) "2 lanes" 2 (Design.lanes design);
  Alcotest.(check string) "name" "scripted"
    design.Design.network.Network.net_name

let test_tiling_toggle_changes_program () =
  (* For a conv whose input exceeds the feature buffer, disabling tiling
     must lower the DRAM sequential fraction.  AlexNet under a 12-DSP cap
     streams some of its folds' windows. *)
  let net = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.alexnet_prototxt in
  let cons = Constraints.with_dsp_cap Constraints.db_medium 12 in
  let seq_fractions tiling_enabled =
    let design = Generator.generate ~tiling_enabled cons net in
    List.concat_map
      (fun p ->
        List.filter_map
          (fun tr ->
            match tr.Compiler.stream with
            | `Feature_in when p.Compiler.windows_streamed ->
                Some tr.Compiler.seq_fraction
            | `Feature_in | `Weight_in | `Output_back -> None)
          p.Compiler.transfers)
      design.Design.program.Compiler.programs
  in
  let with_tiling = seq_fractions true and without = seq_fractions false in
  if with_tiling = [] || without = [] then
    Alcotest.fail "no fold streams its windows";
  let avg xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  Alcotest.(check bool) "tiling improves locality" true
    (avg with_tiling > avg without)

let test_resource_report_sane () =
  let design = generate_ann ~dsp_cap:2 () in
  let used = Design.resource_usage design in
  Alcotest.(check int) "DSPs = lanes" (Design.lanes design) used.Resource.dsps;
  Alcotest.(check bool) "has luts" true (used.Resource.luts > 0);
  Alcotest.(check bool) "has bram" true (used.Resource.bram_bits > 0)

let test_power_positive () =
  let design = generate_ann () in
  let p = Design.power design in
  Alcotest.(check bool) "positive" true (p.Db_fpga.Power.total_w > 0.0);
  Alcotest.(check bool) "static <= total" true
    (p.Db_fpga.Power.static_w <= p.Db_fpga.Power.total_w)

let suite =
  [
    ( "core.constraints",
      [
        Alcotest.test_case "parse" `Quick test_constraints_parse;
        Alcotest.test_case "over budget" `Quick test_constraints_rejects_overbudget;
        Alcotest.test_case "dsp cap" `Quick test_with_dsp_cap;
        Alcotest.test_case "presets" `Quick test_presets;
      ] );
    ( "core.search",
      [
        Alcotest.test_case "useful lanes" `Quick test_useful_lanes;
        Alcotest.test_case "respects budget" `Quick test_search_respects_budget;
        Alcotest.test_case "saturates parallelism" `Quick test_search_uses_available_lanes;
      ] );
    ( "core.generator",
      [
        Alcotest.test_case "end to end" `Quick test_generator_end_to_end;
        Alcotest.test_case "layer-specific blocks" `Quick test_generator_layer_specific_blocks;
        Alcotest.test_case "rtl valid" `Quick test_generator_rtl_valid;
        Alcotest.test_case "lut contents" `Quick test_generator_lut_contents;
        Alcotest.test_case "from script" `Quick test_generate_from_script;
        Alcotest.test_case "resources" `Quick test_resource_report_sane;
        Alcotest.test_case "power" `Quick test_power_positive;
      ] );
    ( "core.compiler",
      [
        Alcotest.test_case "fold programs" `Quick test_compiler_fold_programs;
        Alcotest.test_case "weights streamed once" `Quick test_compiler_weight_traffic_complete;
        Alcotest.test_case "agu fsms" `Quick test_compiler_agu_fsms;
        Alcotest.test_case "tiling toggle" `Slow test_tiling_toggle_changes_program;
      ] );
  ]
