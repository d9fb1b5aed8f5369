(* Robot arm control with a CMAC network (the paper's CMAC benchmark).

   A CMAC (tile-coding associative layer + recurrent smoothing + FC head)
   learns the inverse kinematics of a 2-link planar arm; DeepBurning turns
   it into a 1-DSP accelerator (Table 3's CMAC row) and the example drives
   a circular trajectory through both the float controller and the
   accelerator, reporting end-point tracking error.

   Run with: dune exec examples/robot_arm.exe *)

module Benchmarks = Db_workloads.Benchmarks
module Datasets = Db_workloads.Datasets
module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape

let () =
  print_endline "CMAC robot-arm controller through DeepBurning\n";
  let bench = Benchmarks.find "CMAC" in
  print_endline "training the controller (delta rule on tile-coded features)...";
  let prepared = Benchmarks.prepare_cached bench ~seed:42 in
  let net = prepared.Benchmarks.accuracy_network in
  let cons =
    Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium
      bench.Benchmarks.dsp_cap
  in
  let design = Db_core.Generator.generate cons net in
  Format.printf "%a@." Db_core.Design.pp_summary design;

  (* Drive a trajectory of reachable targets (drawn from the same
     task-space distribution the controller was trained on). *)
  let trajectory =
    Array.map fst (Datasets.arm_samples (Db_util.Rng.create 7) ~count:16)
  in
  let track_error controller =
    let total = ref 0.0 in
    Array.iter
      (fun target ->
        (* De-normalise the commanded target back to task space. *)
        let x = (2.0 *. Tensor.get target 0) -. 1.0 in
        let y = (2.0 *. Tensor.get target 1) -. 1.0 in
        let angles = controller target in
        let theta1 = Tensor.get angles 0 *. Float.pi in
        let theta2 = Tensor.get angles 1 *. Float.pi in
        let ax, ay = Datasets.arm_forward ~theta1 ~theta2 in
        total := !total +. sqrt (((ax -. x) ** 2.0) +. ((ay -. y) ** 2.0)))
      trajectory;
    !total /. float_of_int (Array.length trajectory)
  in
  ignore (Shape.scalar : Shape.t);
  let float_controller target =
    Db_ir.Interp.output design.Db_core.Design.ir prepared.Benchmarks.params
      ~inputs:[ (prepared.Benchmarks.input_blob, target) ]
  in
  let accel_controller target =
    Db_sim.Simulator.functional_output design prepared.Benchmarks.params
      ~inputs:[ (prepared.Benchmarks.input_blob, target) ]
  in
  Printf.printf "mean end-point tracking error over a 16-target trajectory:\n";
  Printf.printf "  float controller        : %.4f (arm lengths)\n"
    (track_error float_controller);
  Printf.printf "  generated accelerator   : %.4f\n\n"
    (track_error accel_controller);

  let report = Db_sim.Simulator.timing design in
  Printf.printf
    "control-loop latency on the accelerator: %s per target (%d cycles at \
     100 MHz)\n"
    (Db_report.Table.ms report.Db_sim.Simulator.seconds)
    report.Db_sim.Simulator.total_cycles
