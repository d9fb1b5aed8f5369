(* Approximate computing with NN accelerators (the paper's AxBench-style
   ANN workloads, after Esmaeilzadeh et al. [1]).

   A small MLP is trained to mimic the 4x4 DCT codec kernel inside a JPEG
   round trip; DeepBurning then turns the MLP into an accelerator, and the
   example reports Eq. (1) output quality for the golden program, the float
   NN on "CPU", and the generated fixed-point accelerator.

   Run with: dune exec examples/approximate_computing.exe *)

module Benchmarks = Db_workloads.Benchmarks
module Axbench = Db_workloads.Axbench
module Tensor = Db_tensor.Tensor

let () =
  print_endline "Approximate computing: jpeg (ANN-1) through DeepBurning\n";
  let bench = Benchmarks.find "ANN-1" in
  Printf.printf "training the %s approximator...\n%!" bench.Benchmarks.application;
  let prepared = Benchmarks.prepare_cached bench ~seed:42 in
  let net = prepared.Benchmarks.accuracy_network in

  (* Golden program sanity: encode/decode one smooth block. *)
  let block = Array.init 16 (fun i -> 0.25 +. (0.03 *. float_of_int i)) in
  let decoded = Axbench.jpeg_golden block in
  Printf.printf "golden codec: pixel 0 %.3f -> %.3f (lossy but close)\n\n"
    block.(0) decoded.(0);

  (* Generate the accelerator under the paper's per-app constraint. *)
  let cons =
    Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium
      bench.Benchmarks.dsp_cap
  in
  let design = Db_core.Generator.generate cons net in
  Format.printf "%a@." Db_core.Design.pp_summary design;

  (* Evaluate Eq. (1) accuracy of both implementations. *)
  let cpu_outputs =
    Array.map
      (fun input ->
        Db_ir.Interp.output design.Db_core.Design.ir prepared.Benchmarks.params
          ~inputs:[ (prepared.Benchmarks.input_blob, input) ])
      prepared.Benchmarks.eval_inputs
  in
  let accel_outputs =
    Array.map
      (fun input ->
        Db_sim.Simulator.functional_output design prepared.Benchmarks.params
          ~inputs:[ (prepared.Benchmarks.input_blob, input) ])
      prepared.Benchmarks.eval_inputs
  in
  let cpu_acc = Benchmarks.accuracy_percent prepared cpu_outputs in
  let accel_acc = Benchmarks.accuracy_percent prepared accel_outputs in
  Printf.printf "Eq.(1) accuracy vs the golden codec:\n";
  Printf.printf "  float NN on CPU          : %.2f%%\n" cpu_acc;
  Printf.printf "  DeepBurning accelerator  : %.2f%%\n" accel_acc;
  Printf.printf "  delta                    : %+.2f%%\n\n" (accel_acc -. cpu_acc);

  (* Latency and energy vs running the NN in software. *)
  let report = Db_sim.Simulator.timing design in
  let cpu = Db_baseline.Cpu_model.xeon_2_4ghz in
  let cpu_s = Db_baseline.Cpu_model.forward_seconds cpu net in
  Printf.printf "per-invocation latency: accelerator %s vs CPU %s (%.1fx)\n"
    (Db_report.Table.ms report.Db_sim.Simulator.seconds)
    (Db_report.Table.ms cpu_s)
    (cpu_s /. report.Db_sim.Simulator.seconds);
  Printf.printf "per-invocation energy : accelerator %s vs CPU %s (%.0fx)\n"
    (Db_report.Table.joules report.Db_sim.Simulator.energy_j)
    (Db_report.Table.joules (Db_baseline.Cpu_model.forward_energy_j cpu net))
    (Db_baseline.Cpu_model.forward_energy_j cpu net
    /. report.Db_sim.Simulator.energy_j)
