(* The training hardware path end to end: training lowering, the
   three-phase schedule, inter-phase activation caching, the
   cycle-accurate trace (compiled replay = generic recompute), the
   functional on-chip SGD engine against the software Trainer, and the
   training fault campaign — all bitwise-reproducible at any pool
   width. *)

module Shape = Db_tensor.Shape
module Tensor = Db_tensor.Tensor
module Params = Db_nn.Params
module Rng = Db_util.Rng
module Graph = Db_ir.Graph
module Op = Db_ir.Op
module Trainer = Db_train.Trainer
module Train_builder = Db_core.Train_builder
module Train_schedule = Db_sched.Train_schedule
module Act_cache = Db_mem.Act_cache
module Train_sim = Db_sim.Train_sim
module Site = Db_fault.Site
module Train_campaign = Db_fault.Train_campaign

(* A small trainable ANN (fc-sigmoid-fc-sigmoid-fc): every op has both a
   hardware backward fold and a functional backward kernel. *)
let net =
  lazy
    (Db_nn.Caffe.import_string
       (Db_workloads.Model_zoo.ann_prototxt ~name:"annt" ~inputs:4 ~hidden1:6
          ~hidden2:5 ~outputs:2))

let cons = Db_core.Constraints.db_medium

let tb = lazy (Train_builder.build ~batch:8 cons (Lazy.force net))

let samples n seed =
  let tb = Lazy.force tb in
  let ir = tb.Train_builder.base.Db_core.Design.ir in
  let in_shape =
    (List.find (fun (n : Graph.node) -> Op.is_input n.Graph.op)
       ir.Graph.nodes)
      .Graph.out_shape
  in
  let out_shape =
    (List.hd (List.rev ir.Graph.nodes)).Graph.out_shape
  in
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let draw shape = Tensor.init shape (fun _ -> Rng.float rng 1.0) in
      let input = draw in_shape in
      { Trainer.input; target = draw out_shape })

let train_config =
  {
    Trainer.default_config with
    Trainer.epochs = 6;
    batch_size = 8;
    learning_rate = 0.1;
  }

let fresh_params seed = Params.init_xavier (Rng.create seed) (Lazy.force net)

(* --- training lowering --------------------------------------------------- *)

let test_lower_training_structure () =
  let fwd = Db_ir.Lower.lower (Lazy.force net) in
  let g = Db_ir.Lower.lower_training (Lazy.force net) in
  Alcotest.(check string) "graph renamed"
    (fwd.Graph.graph_name ^ ":train")
    g.Graph.graph_name;
  let has name = Graph.find_node_opt g name <> None in
  Alcotest.(check bool) "gradient seed injected" true (has "grad:seed");
  (match Graph.find_node_opt g "grad:seed" with
  | Some n -> Alcotest.(check bool) "seed is an input" true (Op.is_input n.Graph.op)
  | None -> ());
  let weighted =
    List.filter_map
      (fun (n : Graph.node) ->
        match n.Graph.op with Op.Fc _ -> Some n.Graph.node_name | _ -> None)
      fwd.Graph.nodes
  in
  Alcotest.(check bool) "fixture has weighted layers" true (weighted <> []);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " has bp_dw") true (has ("bp_dw:" ^ name));
      Alcotest.(check bool) (name ^ " has up") true (has ("up:" ^ name));
      match Graph.find_node_opt g ("up:" ^ name) with
      | Some { Graph.op = Op.Sgd_update { target }; _ } ->
          Alcotest.(check string) "update targets its layer" name target
      | _ -> Alcotest.failf "up:%s is not an Sgd_update" name)
    weighted;
  (* No dX is produced for the layer fed by the network input. *)
  let first = List.hd weighted and last = List.hd (List.rev weighted) in
  Alcotest.(check bool) "no bp_dx into the input blob" false
    (has ("bp_dx:" ^ first));
  Alcotest.(check bool) "interior layers do back-propagate" true
    (has ("bp_dx:" ^ last))

(* --- three-phase schedule ------------------------------------------------ *)

let test_schedule_phases () =
  let tb = Lazy.force tb in
  let ts = tb.Train_builder.tschedule in
  Alcotest.(check bool) "FF folds" true (ts.Train_schedule.ff <> []);
  Alcotest.(check bool) "BP folds" true (ts.Train_schedule.bp <> []);
  Alcotest.(check bool) "UP folds" true (ts.Train_schedule.up <> []);
  let dp = tb.Train_builder.base.Db_core.Design.datapath in
  let schedule = Db_sched.Schedule.build dp tb.Train_builder.tgraph in
  Alcotest.(check bool) "phases partition the schedule's runs" true
    (ts.Train_schedule.ff @ ts.Train_schedule.bp @ ts.Train_schedule.up
    = schedule.Db_sched.Schedule.runs);
  Alcotest.(check int) "phases partition the schedule's folds"
    (List.length (Db_sched.Schedule.events schedule))
    (Db_sched.Folding.total (fun _ -> 1)
       (ts.Train_schedule.ff @ ts.Train_schedule.bp @ ts.Train_schedule.up));
  (* The fold sequence never returns to an earlier phase. *)
  let rank (n : Graph.node) =
    match Train_schedule.node_phase n with
    | Train_schedule.Ff -> 0
    | Train_schedule.Bp -> 1
    | Train_schedule.Up -> 2
  in
  let _ =
    List.fold_left
      (fun prev (run : Db_sched.Folding.run) ->
        let r =
          rank
            (Graph.find_node tb.Train_builder.tgraph
               run.Db_sched.Folding.fold.Db_sched.Folding.fold_layer)
        in
        if r < prev then Alcotest.fail "phase order regressed";
        r)
      0
      (ts.Train_schedule.ff @ ts.Train_schedule.bp @ ts.Train_schedule.up)
  in
  ()

(* Interleaving FF and BP folds is a scheduling bug, not a layout choice:
   the builder must refuse. *)
let test_schedule_rejects_inference_graph () =
  let tb = Lazy.force tb in
  let dp = tb.Train_builder.base.Db_core.Design.datapath in
  match
    Train_schedule.build dp tb.Train_builder.base.Db_core.Design.ir
  with
  | _ -> Alcotest.fail "accepted a graph with no backward folds"
  | exception Db_util.Error.Deepburning_error msg ->
      Alcotest.(check bool) "classified train-sched" true
        (String.length msg >= 11 && String.sub msg 0 11 = "train-sched")

(* --- activation cache ---------------------------------------------------- *)

let test_act_cache_budgets () =
  let tb = Lazy.force tb in
  let g = tb.Train_builder.tgraph in
  let replay = Act_cache.replayed_blobs g in
  Alcotest.(check bool) "BP replays forward tensors" true (replay <> []);
  let total = List.fold_left (fun a (_, w) -> a + w) 0 replay in
  let roomy = Act_cache.plan g ~budget_words:(total + 1) in
  Alcotest.(check int) "roomy budget spills nothing" 0
    roomy.Act_cache.spilled_words;
  Alcotest.(check int) "roomy keeps everything" total
    roomy.Act_cache.resident_words;
  let tight = Act_cache.plan g ~budget_words:0 in
  Alcotest.(check int) "zero budget keeps nothing" 0
    tight.Act_cache.resident_words;
  Alcotest.(check int) "zero budget spills everything" total
    tight.Act_cache.spilled_words;
  Alcotest.(check int) "spill traffic is write+read" (2 * total)
    (Act_cache.dram_words_per_step tight);
  Alcotest.(check int) "plans conserve words" (Act_cache.total_words roomy)
    (Act_cache.total_words tight)

(* --- gradient accumulator sizing ----------------------------------------- *)

let test_grad_acc_bits () =
  let tb = Lazy.force tb in
  let fmt =
    tb.Train_builder.base.Db_core.Design.datapath.Db_sched.Datapath.fmt
  in
  let ir = tb.Train_builder.base.Db_core.Design.ir in
  let b8 = Train_builder.grad_acc_bits_for ~fmt ~batch:8 ir in
  let b64 = Train_builder.grad_acc_bits_for ~fmt ~batch:64 ir in
  Alcotest.(check int) "builder used the batch-8 width" b8
    tb.Train_builder.grad_acc_bits;
  Alcotest.(check bool) "wider batch never narrows the bank" true (b64 >= b8);
  Alcotest.(check bool) "floored at word+8" true
    (b8 >= fmt.Db_fixed.Fixed.total_bits + 8);
  Alcotest.(check bool) "capped at 62" true (b64 <= 62)

(* --- cycle model: the phases partition the step ------------------------- *)

let test_trace_phases_partition_step () =
  let tb = Lazy.force tb in
  let r = Train_sim.compile_trace tb in
  Alcotest.(check int) "phases and spills partition the step"
    r.Train_sim.step_cycles
    (r.Train_sim.ff.Train_sim.pc_cycles + r.Train_sim.bp.Train_sim.pc_cycles
    + r.Train_sim.up.Train_sim.pc_cycles + r.Train_sim.spill_cycles);
  Alcotest.(check bool) "every phase costs cycles" true
    (r.Train_sim.ff.Train_sim.pc_cycles > 0
    && r.Train_sim.bp.Train_sim.pc_cycles > 0
    && r.Train_sim.up.Train_sim.pc_cycles > 0);
  Alcotest.(check bool) "throughput is positive" true
    (Train_sim.steps_per_second tb r > 0.0)

(* --- cycle model: pricing by runs ----------------------------------------- *)

let bench_tb name ~budget =
  let b = Db_workloads.Benchmarks.find name in
  Train_builder.build
    (Db_report.Experiments.constraints_for ~budget b)
    b.Db_workloads.Benchmarks.network

let phase_figures (p : Train_sim.phase_cycles) =
  [
    p.Train_sim.pc_cycles;
    p.Train_sim.pc_compute_cycles;
    p.Train_sim.pc_memory_cycles;
    p.Train_sim.pc_dram_bytes;
    p.Train_sim.pc_folds;
  ]

(* Each run is priced once times its count; that must equal compiling and
   pricing every fold on its own, in every phase figure. *)
let test_run_pricing_exact () =
  let check label tb =
    let dp = tb.Train_builder.base.Db_core.Design.datapath in
    let tgraph = tb.Train_builder.tgraph in
    let layout =
      Db_mem.Layout.build
        ~bytes_per_word:(Db_fixed.Fixed.word_bytes dp.Db_sched.Datapath.fmt)
        ~port_width:dp.Db_sched.Datapath.port_words tgraph
    in
    let program =
      Db_core.Compiler.compile tgraph ~datapath:dp
        ~schedule:(Db_sched.Schedule.build dp tgraph) ~layout
    in
    let per_fold phase =
      List.fold_left
        (fun acc (p : Db_core.Compiler.fold_program) ->
          let node =
            Graph.find_node tgraph
              p.Db_core.Compiler.fold.Db_sched.Folding.fold_layer
          in
          if Train_schedule.node_phase node <> phase then acc
          else
            let c = Db_sim.Perf_model.fold_cost dp p in
            List.map2 ( + ) acc
              [
                c.Db_sim.Perf_model.fold_cycles;
                c.Db_sim.Perf_model.compute_cycles;
                c.Db_sim.Perf_model.memory_cycles;
                c.Db_sim.Perf_model.dram_bytes;
                1;
              ])
        [ 0; 0; 0; 0; 0 ] program.Db_core.Compiler.programs
    in
    let r = Train_sim.compile_trace tb in
    List.iter
      (fun (phase, p) ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s %s" label (Train_schedule.phase_name phase))
          (per_fold phase) (phase_figures p))
      [
        (Train_schedule.Ff, r.Train_sim.ff);
        (Train_schedule.Bp, r.Train_sim.bp);
        (Train_schedule.Up, r.Train_sim.up);
      ]
  in
  check "annt" (Lazy.force tb);
  List.iter
    (fun (name, budget, label) -> check label (bench_tb name ~budget))
    [
      ("MNIST", `Db, "MNIST-Db");
      ("Cifar", `Db_l, "Cifar-L");
      ("ANN-1", `Db, "ANN-1-Db");
      ("CMAC", `Db, "CMAC-Db");
      ("Hopfield", `Db_l, "Hopfield-L");
    ]

(* The per-phase cycles of two large rows, pinned at the figures of
   pricing every fold on its own. *)
let test_trace_pins () =
  List.iter
    (fun (name, budget, label, (ff, bp, up, spill)) ->
      let r = Train_sim.compile_trace (bench_tb name ~budget) in
      Alcotest.(check (list int)) label [ ff; bp; up; spill ]
        [
          r.Train_sim.ff.Train_sim.pc_cycles;
          r.Train_sim.bp.Train_sim.pc_cycles;
          r.Train_sim.up.Train_sim.pc_cycles;
          r.Train_sim.spill_cycles;
        ])
    [
      ("Cifar", `Db, "Cifar-Db", (1_135_800, 11_196_089, 721_197, 5_144));
      ( "Alexnet",
        `Db_l,
        "Alexnet-L",
        (9_442_056, 458_570_971, 32_404_052, 319_559) );
    ]

(* RECURRENT trains as one FC+tanh step with its feedback weights held:
   CMAC and Hopfield lower, build and price at both budgets. *)
let test_recurrent_trains () =
  List.iter
    (fun (name, layer, grad_words, steps) ->
      let b = Db_workloads.Benchmarks.find name in
      let g = Db_ir.Lower.lower_training b.Db_workloads.Benchmarks.network in
      let node n = Graph.find_node_opt g n in
      Alcotest.(check bool) (name ^ " tanh derivative") true
        (node ("bp_dx:" ^ layer ^ ":tanh") <> None);
      (match node ("up:" ^ layer) with
      | Some up ->
          Alcotest.(check int) (name ^ " update skips the feedback weights")
            grad_words (Shape.numel up.Graph.out_shape)
      | None -> Alcotest.failf "%s: no update for %s" name layer);
      List.iter2
        (fun budget expected ->
          let tb = bench_tb name ~budget in
          let r = Train_sim.compile_trace tb in
          Alcotest.(check bool) (name ^ " every phase costs cycles") true
            (List.for_all
               (fun (p : Train_sim.phase_cycles) -> p.Train_sim.pc_cycles > 0)
               [ r.Train_sim.ff; r.Train_sim.bp; r.Train_sim.up ]);
          Alcotest.(check int) (name ^ " step cycles") expected
            r.Train_sim.step_cycles)
        [ `Db; `Db_l ] steps)
    [
      ("CMAC", "smooth", (16 * 64) + 16, [ 117_779; 7_012 ]);
      ("Hopfield", "relax", 25 * 25, [ 73_054; 7_675 ]);
    ]

(* --- functional engine: hardware SGD vs software Trainer ----------------- *)

let test_hw_loss_matches_sw () =
  let tb = Lazy.force tb in
  let data = samples 32 11 in
  let sw_params = fresh_params 11 and hw_params = fresh_params 11 in
  let sw =
    Trainer.train ~config:train_config ~rng:(Rng.create 12) (Lazy.force net)
      sw_params data
  in
  let hw =
    Train_sim.train ~config:train_config ~rng:(Rng.create 12) tb hw_params data
  in
  Alcotest.(check int) "one loss per epoch" train_config.Trainer.epochs
    (Array.length hw.Trainer.losses);
  Alcotest.(check bool) "hardware training learns" true
    (hw.Trainer.final_loss < hw.Trainer.losses.(0));
  Array.iteri
    (fun i hw_l ->
      let sw_l = sw.Trainer.losses.(i) in
      if Float.abs (hw_l -. sw_l) > 0.05 then
        Alcotest.failf "epoch %d: hw %g vs sw %g exceeds quantization tolerance"
          i hw_l sw_l)
    hw.Trainer.losses

let test_hw_training_reproducible () =
  let tb = Lazy.force tb in
  let data = samples 32 11 in
  let run () =
    let p = fresh_params 11 in
    (Train_sim.train ~config:train_config ~rng:(Rng.create 12) tb p data)
      .Trainer.losses
  in
  (* The suite env pins DEEPBURNING_JOBS=4; [with_sequential] forces a
     1-wide pool for the second run. *)
  let wide = run () in
  let narrow = Db_parallel.Pool.with_sequential run in
  Alcotest.(check bool) "losses bitwise identical at any pool width" true
    (wide = narrow)

(* --- fault injection into the training storage --------------------------- *)

let test_update_freeze_stops_learning () =
  let tb = Lazy.force tb in
  let data = samples 32 11 in
  let targets =
    List.filter_map
      (fun (n : Graph.node) ->
        match n.Graph.op with
        | Op.Sgd_update { target } -> Some target
        | _ -> None)
      tb.Train_builder.tgraph.Graph.nodes
  in
  let inject =
    List.map (fun node -> Train_sim.Update_freeze { node }) targets
  in
  let frozen =
    Train_sim.train ~config:train_config ~inject ~rng:(Rng.create 12) tb
      (fresh_params 11) data
  in
  (* Frozen updates: the weights never move, so every epoch sees the same
     mean loss. *)
  Array.iter
    (fun l ->
      Alcotest.(check (float 1e-12)) "loss constant under full freeze"
        frozen.Trainer.losses.(0) l)
    frozen.Trainer.losses;
  let healthy =
    Train_sim.train ~config:train_config ~rng:(Rng.create 12) tb
      (fresh_params 11) data
  in
  Alcotest.(check bool) "healthy run beats the frozen one" true
    (healthy.Trainer.final_loss < frozen.Trainer.final_loss)

let test_grad_flip_perturbs () =
  let tb = Lazy.force tb in
  let data = samples 32 11 in
  let node =
    match
      List.find_map
        (fun (n : Graph.node) ->
          match n.Graph.op with
          | Op.Sgd_update { target } -> Some target
          | _ -> None)
        tb.Train_builder.tgraph.Graph.nodes
    with
    | Some t -> t
    | None -> Alcotest.fail "no update node"
  in
  let inject =
    [
      Train_sim.Grad_bit_flip
        { node; word = 0; bit = tb.Train_builder.grad_acc_bits - 2 };
    ]
  in
  let upset =
    Train_sim.train ~config:train_config ~inject ~rng:(Rng.create 12) tb
      (fresh_params 11) data
  in
  let healthy =
    Train_sim.train ~config:train_config ~rng:(Rng.create 12) tb
      (fresh_params 11) data
  in
  Alcotest.(check bool) "a high accumulator bit is not masked" true
    (upset.Trainer.losses <> healthy.Trainer.losses)

(* --- fault-site enumeration ---------------------------------------------- *)

let test_training_sites () =
  let tb = Lazy.force tb in
  let params = fresh_params 11 in
  let enumerate ?train targets =
    Site.enumerate ?train ~design:tb.Train_builder.base ~params ~input_blob:""
      ~input_words:0
      ~stored_bits:(fun _ ~word_bits -> word_bits)
      ~targets ()
  in
  let inference = enumerate Site.all_classes in
  let inference_with_tb = enumerate ~train:tb Site.all_classes in
  Alcotest.(check int) "inference space unchanged by the training build"
    inference.Site.total_bits inference_with_tb.Site.total_bits;
  let training = enumerate ~train:tb Site.training_classes in
  Alcotest.(check bool) "training storage widens the space" true
    (training.Site.total_bits > inference.Site.total_bits);
  let labels =
    Array.to_list (Array.map (fun g -> g.Site.g_label) training.Site.groups)
  in
  Alcotest.(check bool) "gradient banks enumerated" true
    (List.exists
       (fun l -> Filename.check_suffix l "/grad-buffer")
       labels);
  Alcotest.(check bool) "phase FSM enumerated" true
    (List.mem "phase/fsm" labels)

(* --- training campaign --------------------------------------------------- *)

let campaign_config =
  {
    Train_campaign.default_config with
    Train_campaign.trials = 3;
    train_config =
      { train_config with Trainer.epochs = 2 };
  }

let test_campaign_deterministic () =
  let tb = Lazy.force tb in
  let data = samples 16 11 in
  let run () =
    Train_campaign.run ~config:campaign_config tb (fresh_params 11) data
  in
  let a = run () in
  let b = Db_parallel.Pool.with_sequential run in
  Alcotest.(check string) "bitwise identical at any pool width"
    (Train_campaign.render_json a)
    (Train_campaign.render_json b);
  Alcotest.(check int) "every trial classified" campaign_config.Train_campaign.trials
    (a.Train_campaign.tc_benign + a.Train_campaign.tc_degraded
   + a.Train_campaign.tc_diverged)

(* A prototxt string holds any byte but the quote, so the names that reach
   the JSON outputs (the network in [train-hw --json], the layer in each
   campaign label) must be escaped: both forms must parse and give the
   names back. *)
let test_json_escapes_names () =
  let net =
    Db_nn.Caffe.import_string
      {|
name: "ann\0"
layers { name: "data" type: INPUT top: "data" input_param { dim: 4 } }
layers { name: "fc\1" type: INNER_PRODUCT bottom: "data" top: "fc\1"
  inner_product_param { num_output: 6 } }
layers { name: "act1" type: SIGMOID bottom: "fc\1" top: "act1" }
layers { name: "fc\2" type: INNER_PRODUCT bottom: "act1" top: "fc\2"
  inner_product_param { num_output: 2 } }
|}
  in
  let tb = Train_builder.build ~batch:8 cons net in
  let module J = Db_util.Minijson in
  let string_field name json =
    Option.map J.to_string (J.member name json)
  in
  let history = { Trainer.losses = [| 0.5; 0.25 |]; final_loss = 0.25 } in
  let step =
    J.parse
      (Train_sim.render_json tb (Train_sim.compile_trace tb) ~sw:history
         ~hw:history)
  in
  Alcotest.(check (option string)) "train-hw network" (Some {|ann\0|})
    (string_field "network" step);
  let rng = Rng.create 5 in
  let data =
    Array.init 8 (fun _ ->
        let draw n = Tensor.init (Shape.vector n) (fun _ -> Rng.float rng 1.0) in
        { Trainer.input = draw 4; target = draw 2 })
  in
  let result =
    Train_campaign.run ~config:campaign_config tb
      (Params.init_xavier (Rng.create 5) net)
      data
  in
  let rows =
    Option.fold ~none:[] ~some:J.to_list
      (J.member "rows" (J.parse (Train_campaign.render_json result)))
  in
  Alcotest.(check (list (option string))) "campaign labels"
    (List.map
       (fun t -> Some t.Train_campaign.t_label)
       (Array.to_list result.Train_campaign.tc_rows))
    (List.map (string_field "label") rows);
  Alcotest.(check bool) "a label holds a backslash" true
    (Array.exists
       (fun t -> String.contains t.Train_campaign.t_label '\\')
       result.Train_campaign.tc_rows)

(* --- training chain ---------------------------------------------------------- *)

(* The trainer takes the verified lowering as it stands: a branch is a
   classified trainer error, never a silently dropped path. *)
let test_branching_graph_rejected () =
  let g =
    Db_ir.Lower.lower
      (Db_workloads.Model_zoo.build
         (List.assoc "googlenet-like" Db_workloads.Model_zoo.named))
  in
  match Trainer.chain_of_graph g with
  | _ -> Alcotest.fail "branching graph accepted for training"
  | exception (Db_util.Error.Deepburning_error msg as e) ->
      Alcotest.(check bool) "trainer component" true
        (String.starts_with ~prefix:"trainer" msg);
      Alcotest.(check bool) "classified" true
        (Db_util.Error.classify_exn e <> None)

(* Dropout stays a node of the training chain, as it does of the graph
   generation consumes, and its forward pass is the inference copy. *)
let test_dropout_in_chain () =
  let net =
    Db_workloads.Model_zoo.build
      {|name: "d"
layers { name: "data" type: INPUT top: "data" input_param { dim: 4 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "data" top: "fc"
  inner_product_param { num_output: 3 } }
layers { name: "drop" type: DROPOUT bottom: "fc" top: "drop"
  dropout_param { dropout_ratio: 0.5 } }
layers { name: "out" type: INNER_PRODUCT bottom: "drop" top: "out"
  inner_product_param { num_output: 2 } }|}
  in
  let chain = Trainer.chain_of_network net in
  Alcotest.(check (list string)) "chain mirrors the network"
    [ "fc"; "drop"; "out" ]
    (List.map (fun n -> n.Graph.node_name) chain);
  let drop = List.nth chain 1 in
  let input = Tensor.random_uniform (Rng.create 5) (Shape.vector 3) ~min:(-1.0) ~max:1.0 in
  let output, _ =
    Db_train.Backprop.forward_op ~op:drop.Graph.op ~params:[] ~input
  in
  Alcotest.(check bool) "dropout forward is the copy" true
    (Tensor.equal_bits input output)

let suite =
  [
    ( "trainhw",
      [
        Alcotest.test_case "training lowering structure" `Quick
          test_lower_training_structure;
        Alcotest.test_case "three-phase schedule" `Quick test_schedule_phases;
        Alcotest.test_case "schedule rejects inference graphs" `Quick
          test_schedule_rejects_inference_graph;
        Alcotest.test_case "activation cache budgets" `Quick
          test_act_cache_budgets;
        Alcotest.test_case "gradient accumulator sizing" `Quick
          test_grad_acc_bits;
        Alcotest.test_case "trace phases partition the step" `Quick
          test_trace_phases_partition_step;
        Alcotest.test_case "hardware SGD tracks the software trainer" `Quick
          test_hw_loss_matches_sw;
        Alcotest.test_case "hardware SGD reproducible at any pool width"
          `Quick test_hw_training_reproducible;
        Alcotest.test_case "update freeze stops learning" `Quick
          test_update_freeze_stops_learning;
        Alcotest.test_case "gradient bank upset perturbs training" `Quick
          test_grad_flip_perturbs;
        Alcotest.test_case "training fault sites" `Quick test_training_sites;
        Alcotest.test_case "training campaign deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "branching graph rejected for training" `Quick
          test_branching_graph_rejected;
        Alcotest.test_case "dropout stays in the training chain" `Quick
          test_dropout_in_chain;
        Alcotest.test_case "run pricing equals per-fold pricing" `Quick
          test_run_pricing_exact;
        Alcotest.test_case "trace pins" `Quick test_trace_pins;
        Alcotest.test_case "recurrent layers train" `Quick
          test_recurrent_trains;
        Alcotest.test_case "names are escaped in JSON" `Quick
          test_json_escapes_names;
      ] );
  ]
