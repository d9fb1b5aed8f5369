(* Model selection with accelerator-speed training — the scenario the
   paper's "Why FPGA?" section motivates: exploring NN topologies is
   dominated by repeated train-and-evaluate rounds, and the generated
   accelerators make each round cheap.

   Candidate MLP topologies for the jpeg approximator are trained and
   scored; for each, DeepBurning generates an accelerator and the example
   reports Eq. (1) quality, inference latency, training throughput (CPU vs
   accelerator) and resource cost — the Pareto a designer would pick from.

   Run with: dune exec examples/model_search.exe *)

module Benchmarks = Db_workloads.Benchmarks
module Axbench = Db_workloads.Axbench
module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Rng = Db_util.Rng
module Trainer = Db_train.Trainer

let block_n = Axbench.jpeg_block * Axbench.jpeg_block

let draw_block rng =
  let base = Rng.uniform rng ~min:0.2 ~max:0.8 in
  let gx = Rng.uniform rng ~min:(-0.15) ~max:0.15 in
  let gy = Rng.uniform rng ~min:(-0.15) ~max:0.15 in
  Array.init block_n (fun i ->
      let y = i / Axbench.jpeg_block and x = i mod Axbench.jpeg_block in
      Float.min 1.0
        (Float.max 0.0
           (base +. (gx *. float_of_int x) +. (gy *. float_of_int y))))

let () =
  print_endline
    "Model search for the jpeg approximator (candidate hidden sizes)\n";
  let rng = Rng.create 42 in
  let train_set =
    Array.init 300 (fun _ ->
        let input = draw_block rng in
        {
          Trainer.input = Tensor.of_array (Shape.vector block_n) input;
          target =
            Tensor.of_array (Shape.vector block_n) (Axbench.jpeg_golden input);
        })
  in
  let eval_set = Array.init 60 (fun _ -> draw_block rng) in
  let cpu = Db_baseline.Cpu_model.xeon_2_4ghz in
  let rows =
    List.map
      (fun hidden ->
        let net =
          Db_workloads.Model_zoo.build
            (Db_workloads.Model_zoo.ann_prototxt
               ~name:(Printf.sprintf "jpeg-h%d" hidden)
               ~inputs:block_n ~hidden1:hidden ~hidden2:hidden
               ~outputs:block_n)
        in
        let params = Db_nn.Params.init_xavier rng net in
        let (_ : Trainer.history) =
          Trainer.train
            ~config:
              {
                Trainer.default_config with
                Trainer.epochs = 80;
                learning_rate = 0.3;
                batch_size = 8;
              }
            ~rng net params train_set
        in
        let graph = Db_ir.Lower.lower net in
        let accuracy =
          Db_util.Stats.mean
            (Array.map
               (fun input ->
                 let out =
                   Db_ir.Interp.output graph params
                     ~inputs:
                       [ ("data", Tensor.of_array (Shape.vector block_n) input) ]
                 in
                 Db_util.Stats.rel_distance_accuracy
                   ~golden:(Axbench.jpeg_golden input)
                   ~approx:(Tensor.to_array out))
               eval_set)
        in
        let tb =
          Db_core.Train_builder.build
            (Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium 4)
            net
        in
        let design = tb.Db_core.Train_builder.base in
        let report = Db_sim.Simulator.timing design in
        let steps_s =
          Db_sim.Train_sim.steps_per_second tb
            (Db_sim.Train_sim.compile_trace tb)
        in
        [
          string_of_int hidden;
          Printf.sprintf "%.1f%%" accuracy;
          Db_report.Table.ms report.Db_sim.Simulator.seconds;
          Printf.sprintf "%.0f it/s"
            (1.0 /. Db_baseline.Cpu_model.training_iteration_seconds cpu net);
          Printf.sprintf "%.0f it/s" steps_s;
          string_of_int
            (Db_core.Design.resource_usage design).Db_fpga.Resource.luts;
        ])
      [ 8; 16; 24; 32 ]
  in
  print_string
    (Db_report.Table.render
       ~headers:
         [ "hidden"; "Eq.(1) acc"; "inference"; "CPU train"; "accel train"; "LUTs" ]
       ~rows);
  print_endline
    "\neach row is one train-generate-evaluate round; \"accel train\" is the\n\
     on-chip SGD step rate of the candidate's 4-DSP training accelerator."
