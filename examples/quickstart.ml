(* Quickstart: the paper's "one-click" flow.

   A Caffe-compatible descriptive script plus a constraint script go in;
   a complete accelerator comes out — RTL, folded schedule, data layout,
   AGU programs and Approx-LUT contents — and the simulator reports what
   the board would do.

   Run with: dune exec examples/quickstart.exe *)

let model_script =
  {|
name: "quickstart-mlp"
layers { name: "data" type: INPUT top: "data" input_param { dim: 16 } }
layers { name: "fc1" type: INNER_PRODUCT bottom: "data" top: "fc1"
  inner_product_param { num_output: 32 } }
layers { name: "act1" type: SIGMOID bottom: "fc1" top: "act1" }
layers { name: "fc2" type: INNER_PRODUCT bottom: "act1" top: "fc2"
  inner_product_param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "fc2" top: "prob" }
|}

let constraint_script =
  {|
constraint {
  device: "zynq-7045"
  dsps: 4
  luts: 20000
  ffs: 10000
  bram_kb: 256
  clock_mhz: 100
  word_bits: 16
  frac_bits: 8
  lut_entries: 256
}
|}

let () =
  print_endline "DeepBurning quickstart: model + constraint -> accelerator\n";
  (* 1. One call runs the whole NN-Gen flow. *)
  let design =
    Db_core.Generator.generate_from_script ~model:model_script
      ~constraint_script ()
  in
  Format.printf "%a@." Db_core.Design.pp_summary design;

  (* 2. The hardware half: Verilog ready for synthesis. *)
  let verilog = Db_core.Design.verilog design in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "quickstart_accelerator.v" in
  let oc = open_out path in
  output_string oc verilog;
  close_out oc;
  Printf.printf "wrote %d lines of Verilog to %s\n\n"
    (List.length (String.split_on_char '\n' verilog))
    path;

  (* 3. The software half: the folded schedule and the data layout. *)
  Format.printf "%a@." Db_sched.Schedule.pp design.Db_core.Design.schedule;
  Format.printf "%a@." Db_mem.Layout.pp design.Db_core.Design.layout;

  (* 4. Simulate a forward pass: timing, traffic, power. *)
  let report = Db_sim.Simulator.timing design in
  Format.printf "%a@." Db_sim.Simulator.pp_report report;

  (* 5. And run actual data through the accelerator's arithmetic. *)
  let rng = Db_util.Rng.create 1 in
  let params = Db_nn.Params.init_xavier rng design.Db_core.Design.network in
  let input =
    Db_tensor.Tensor.random_uniform rng (Db_tensor.Shape.vector 16) ~min:0.0
      ~max:1.0
  in
  let accel_out, _ =
    Db_sim.Simulator.run design params ~inputs:[ ("data", input) ]
  in
  let float_out =
    Db_ir.Interp.output design.Db_core.Design.ir params
      ~inputs:[ ("data", input) ]
  in
  (* 6. Emit a self-checking Verilog testbench replaying this exact run
     (what the paper verifies with Vivado). *)
  let tb = Db_sim.Simulator.testbench design params ~inputs:[ ("data", input) ] in
  let tb_path =
    Filename.concat (Filename.get_temp_dir_name ()) "quickstart_accelerator_tb.v"
  in
  let oc = open_out tb_path in
  output_string oc tb;
  close_out oc;
  Printf.printf "wrote self-checking testbench to %s\n\n" tb_path;

  Format.printf "accelerator output: %a@." Db_tensor.Tensor.pp accel_out;
  Format.printf "float reference   : %a@." Db_tensor.Tensor.pp float_out;
  Printf.printf "max deviation     : %.5f (fixed point + Approx LUT)\n"
    (Db_tensor.Tensor.fold Float.max 0.0
       (Db_tensor.Tensor.map Float.abs
          (Db_tensor.Tensor.sub accel_out float_out)))
