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
  Alcotest.(check int) "phases partition the schedule"
    (List.length ts.Train_schedule.schedule.Db_sched.Schedule.folds)
    (List.length ts.Train_schedule.ff
    + List.length ts.Train_schedule.bp
    + List.length ts.Train_schedule.up);
  (* The fold sequence never returns to an earlier phase. *)
  let rank (n : Graph.node) =
    match Train_schedule.node_phase n with
    | Train_schedule.Ff -> 0
    | Train_schedule.Bp -> 1
    | Train_schedule.Up -> 2
  in
  let _ =
    List.fold_left
      (fun prev (f : Db_sched.Folding.fold) ->
        let r =
          rank (Graph.find_node tb.Train_builder.tgraph f.Db_sched.Folding.fold_layer)
        in
        if r < prev then Alcotest.fail "phase order regressed";
        r)
      0 ts.Train_schedule.schedule.Db_sched.Schedule.folds
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

(* --- fusion guard (satellite: training lowering must not fuse) ----------- *)

let test_fused_graph_rejected () =
  let fused = Db_ir.Pass.optimize (Db_ir.Lower.lower (Lazy.force net)) in
  match Trainer.chain_of_graph fused with
  | _ -> Alcotest.fail "fused graph accepted for training"
  | exception Db_util.Error.Deepburning_error msg ->
      Alcotest.(check bool) "classified trainer" true
        (String.length msg >= 7 && String.sub msg 0 7 = "trainer")

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
        Alcotest.test_case "fused graph rejected for training" `Quick
          test_fused_graph_rejected;
      ] );
  ]
