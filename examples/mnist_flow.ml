(* The image-classification flow: the paper's 5-layer MNIST CNN trained on
   synthetic digit glyphs, generated at two budget points, with accuracy
   and per-layer latency reports.

   Run with: dune exec examples/mnist_flow.exe *)

module Benchmarks = Db_workloads.Benchmarks
module Tensor = Db_tensor.Tensor

let () =
  print_endline "MNIST-class CNN through DeepBurning\n";
  let bench = Benchmarks.find "MNIST" in
  print_endline "training the CNN on synthetic digit glyphs...";
  let prepared = Benchmarks.prepare_cached bench ~seed:42 in
  let net = prepared.Benchmarks.accuracy_network in

  let evaluate name run_one =
    let outputs = Array.map run_one prepared.Benchmarks.eval_inputs in
    Printf.printf "  %-24s: %.1f%% test accuracy\n%!" name
      (Benchmarks.accuracy_percent prepared outputs)
  in
  Printf.printf "\nclassification accuracy (%d held-out glyphs):\n"
    (Array.length prepared.Benchmarks.eval_inputs);
  let graph = Db_ir.Lower.lower net in
  evaluate "float NN (CPU)" (fun input ->
      Db_ir.Interp.output graph prepared.Benchmarks.params
        ~inputs:[ (prepared.Benchmarks.input_blob, input) ]);

  (* Generate at the paper's DB and DB-S budget points. *)
  let generate label cons =
    let design = Db_core.Generator.generate cons net in
    let report = Db_sim.Simulator.timing design in
    Printf.printf "\n--- %s ---\n" label;
    Format.printf "%a@." Db_core.Design.pp_summary design;
    Format.printf "%a@." Db_sim.Simulator.pp_report report;
    design
  in
  let db =
    generate "DB (medium budget, Zynq-7045)"
      (Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium
         bench.Benchmarks.dsp_cap)
  in
  let _db_s =
    generate "DB-S (low budget, Zynq-7020)"
      (Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_small
         (Stdlib.max 1 (bench.Benchmarks.dsp_cap / 2)))
  in
  Printf.printf "\naccelerator accuracy (fixed point + Approx LUT):\n";
  evaluate "DeepBurning (DB)" (fun input ->
      Db_sim.Simulator.functional_output db prepared.Benchmarks.params
        ~inputs:[ (prepared.Benchmarks.input_blob, input) ])
