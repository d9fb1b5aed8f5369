(* Property tests for the specialized simulation engine (DESIGN.md §14):
   for every zoo model, the compiled-trace replay must be bitwise-identical
   to the generic engine — output tensors, sim.*/agu.* observability
   counters, and control-replay cycles — at any pool width, and the batched
   entry point must reproduce the per-sample results exactly.  These are
   the properties the fault campaign's [Specialized] engine relies on. *)

module Simulator = Db_sim.Simulator
module Specialize = Db_sim.Specialize
module Constraints = Db_core.Constraints
module Design_cache = Db_core.Design_cache
module Zoo = Db_workloads.Model_zoo
module Network = Db_nn.Network
module Layer = Db_nn.Layer
module Params = Db_nn.Params
module Tensor = Db_tensor.Tensor
module Pool = Db_parallel.Pool
module Obs = Db_obs.Obs

(* Every model the zoo serves by name (the `ir`/`lint` gates enumerate the
   same twelve) plus the trainable CMAC stand-in. *)
let zoo_models = Zoo.named @ [ ("cmac-surrogate", Zoo.cmac_surrogate_prototxt) ]

let design_of prototxt =
  let net = Zoo.build prototxt in
  Design_cache.generate (Constraints.with_dsp_cap Constraints.db_medium 8) net

let inputs_for ~seed design =
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create seed in
  let params = Params.init_xavier rng net in
  let inputs =
    List.concat_map
      (fun node ->
        match node.Network.layer with
        | Layer.Input { shape } ->
            List.map
              (fun top ->
                (top, Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0))
              node.Network.tops
        | _ -> [])
      (Network.input_nodes net)
  in
  (params, inputs)

(* Run [f] with the obs layer on and return its sim.*/agu.* counters. *)
let engine_counters f =
  Obs.set_enabled true;
  Obs.reset ();
  let result = f () in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  Obs.reset ();
  let prefixed (name, _) =
    String.length name >= 4
    && (String.sub name 0 4 = "sim." || String.sub name 0 4 = "agu.")
  in
  (result, List.filter prefixed snap.Obs.counters)

let check_model (name, prototxt) () =
  let design = design_of prototxt in
  let params, inputs = inputs_for ~seed:11 design in
  let spec_out, spec_counters =
    engine_counters (fun () ->
        Simulator.functional_output design params ~inputs)
  in
  let gen_out, gen_counters =
    engine_counters (fun () ->
        Simulator.functional_output_generic design params ~inputs)
  in
  Alcotest.(check bool)
    (name ^ ": specialized output bitwise-equals generic")
    true
    (Tensor.equal_bits spec_out gen_out);
  Alcotest.(check (list (pair string int)))
    (name ^ ": sim.*/agu.* counters identical")
    gen_counters spec_counters;
  (* Control replay: closed-form trace cycles vs the cycle-accurate AGU
     machine, under a watchdog budget sized from the trace itself —
     alexnet/vgg16-class designs replay hundreds of millions of control
     cycles. *)
  let cycles = Specialize.control_cycles (Specialize.of_design design) in
  let budget = (2 * cycles) + 1_000 in
  Alcotest.(check int)
    (name ^ ": control cycles")
    cycles
    (Simulator.replay_control ~cycle_budget:budget design);
  (* The generic machine clocks every FSM step, so cross-check against it
     only where that stays tractable; the AGU enclosure gate covers the
     machine itself on every access pattern. *)
  if cycles <= 60_000_000 then
    Alcotest.(check int)
      (name ^ ": control cycles (cycle-accurate)")
      cycles
      (Simulator.replay_control_generic ~cycle_budget:budget design)

let test_jobs_invariance () =
  (* The engines must produce the same bits whether the pool fans out
     (DEEPBURNING_JOBS=4, the test environment) or runs sequentially. *)
  let design = design_of Zoo.mnist_prototxt in
  let params, inputs = inputs_for ~seed:23 design in
  let wide = Simulator.functional_output design params ~inputs in
  let narrow =
    Pool.with_sequential (fun () ->
        Simulator.functional_output design params ~inputs)
  in
  Alcotest.(check bool) "jobs=4 equals jobs=1" true
    (Tensor.equal_bits wide narrow);
  let wide_gen = Simulator.functional_output_generic design params ~inputs in
  Alcotest.(check bool) "specialized equals generic at jobs=4" true
    (Tensor.equal_bits wide wide_gen)

let test_batch_matches_singles () =
  let design = design_of Zoo.lenet5_prototxt in
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create 37 in
  let params = Params.init_xavier rng net in
  let input_node = List.hd (Network.input_nodes net) in
  let shape =
    match input_node.Network.layer with
    | Layer.Input { shape } -> shape
    | _ -> assert false
  in
  let blob = List.hd input_node.Network.tops in
  let samples =
    List.init 6 (fun _ ->
        [ (blob, Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0) ])
  in
  let batched = Simulator.functional_output_batch design params ~batch:samples in
  let singles =
    List.map
      (fun inputs -> Simulator.functional_output design params ~inputs)
      samples
  in
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch sample %d bitwise-equals single call" i)
        true (Tensor.equal_bits b s))
    (List.combine batched singles);
  let sequential =
    Pool.with_sequential (fun () ->
        Simulator.functional_output_batch design params ~batch:samples)
  in
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch sample %d invariant under pool width" i)
        true (Tensor.equal_bits b s))
    (List.combine batched sequential)

let test_campaign_engines_agree () =
  (* The fault campaign's whole observable result — rendered JSON, so every
     outcome class, rate and degradation point — must not depend on the
     engine that produced it. *)
  let net =
    Zoo.build (Zoo.ann_prototxt ~name:"specann" ~inputs:4 ~hidden1:8 ~hidden2:8 ~outputs:3)
  in
  let design =
    Design_cache.generate (Constraints.with_dsp_cap Constraints.db_medium 4) net
  in
  let rng = Db_util.Rng.create 5 in
  let params = Params.init_xavier rng net in
  let input_node = List.hd (Network.input_nodes net) in
  let shape =
    match input_node.Network.layer with
    | Layer.Input { shape } -> shape
    | _ -> assert false
  in
  let blob = List.hd input_node.Network.tops in
  let inputs =
    Array.init 3 (fun _ -> Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0)
  in
  let run engine =
    Db_fault.Campaign.render_json
      (Db_fault.Campaign.run ~design ~params ~input_blob:blob ~inputs
         {
           Db_fault.Campaign.default_config with
           Db_fault.Campaign.trials = 60;
           cycle_budget = 20_000;
           rates = [ 1e-4 ];
           engine;
         })
  in
  Alcotest.(check string) "campaign JSON identical across engines"
    (run Db_fault.Campaign.Generic)
    (run Db_fault.Campaign.Specialized)

let suite =
  [
    ( "spec-equivalence",
      List.map
        (fun (name, prototxt) ->
          Alcotest.test_case
            ("spec = generic: " ^ name)
            `Slow
            (check_model (name, prototxt)))
        zoo_models
      @ [
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "batch = singles" `Quick test_batch_matches_singles;
          Alcotest.test_case "campaign engines agree" `Quick
            test_campaign_engines_agree;
        ] );
  ]
