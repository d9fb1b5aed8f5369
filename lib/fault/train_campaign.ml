(* Training-resilience campaigns: persistent upsets in the training-only
   storage (batch-gradient accumulators, update FSMs), judged by the loss
   trajectory of a full hardware-simulated SGD run rather than by one
   forward pass.  Trial [t] draws its site from [Rng.create (seed + t)]
   and trains with a fixed data order ([train_seed]), so for a fixed seed
   the classification is bitwise identical at any [DEEPBURNING_JOBS]. *)

module Rng = Db_util.Rng
module Pool = Db_parallel.Pool
module Trainer = Db_train.Trainer
module Train_sim = Db_sim.Train_sim
module Train_builder = Db_core.Train_builder
module Graph = Db_ir.Graph
module Op = Db_ir.Op

let fail fmt = Db_util.Error.failf_at ~component:"train-campaign" fmt

type outcome =
  | Benign  (** final loss within tolerance of the fault-free run *)
  | Degraded  (** converged worse than tolerance allows *)
  | Diverged  (** loss not finite, or an order of magnitude off *)

let outcome_name = function
  | Benign -> "benign"
  | Degraded -> "degraded"
  | Diverged -> "diverged"

type config = {
  seed : int;
  trials : int;
  train_seed : int;  (** RNG seed of every trial's training run *)
  train_config : Trainer.config;
  degraded_tol : float;
      (** relative final-loss increase over the baseline counted as
          degradation (divergence at 10×) *)
  targets : Site.target_class list;
}

let default_config =
  {
    seed = 1;
    trials = 12;
    train_seed = 42;
    train_config = { Trainer.default_config with Trainer.epochs = 4 };
    degraded_tol = 0.05;
    targets = [ Site.Grad_buffers; Site.Update_fsm ];
  }

type trial = {
  t_label : string;
  t_class : Site.target_class;
  t_word : int;
  t_bit : int;
  t_final_loss : float;
  t_outcome : outcome;
}

type result = {
  tc_seed : int;
  tc_trials : int;
  tc_space_bits : int;
  tc_baseline_loss : float;
  tc_benign : int;
  tc_degraded : int;
  tc_diverged : int;
  tc_rows : trial array;  (** trial order *)
}

let update_targets (tb : Train_builder.t) =
  List.filter_map
    (fun (n : Graph.node) ->
      match n.Graph.op with
      | Op.Sgd_update { target } -> Some target
      | _ -> None)
    tb.Train_builder.tgraph.Graph.nodes

let injection_of (tb : Train_builder.t) (g : Site.group) ~word ~bit =
  match g.Site.g_payload with
  | Site.P_grad { node } -> [ Train_sim.Grad_bit_flip { node; word; bit } ]
  | Site.P_upd_fsm { node = "phase" } ->
      (* a stuck phase FSM never hands the weight ports to the UP set:
         no layer's update commits *)
      List.map
        (fun node -> Train_sim.Update_freeze { node })
        (update_targets tb)
  | Site.P_upd_fsm { node } -> [ Train_sim.Update_freeze { node } ]
  | _ ->
      fail "site %S is not training-only storage (class %s)" g.Site.g_label
        (Site.class_name g.Site.g_class)

let classify ~baseline ~tol final =
  if not (Float.is_finite final) then Diverged
  else if final > 10.0 *. Float.max baseline 1e-6 then Diverged
  else if final > baseline *. (1.0 +. tol) then Degraded
  else Benign

let run ?(config = default_config) (tb : Train_builder.t) params samples =
  if config.trials <= 0 then fail "trial count must be positive";
  if Array.length samples = 0 then fail "no training samples";
  Db_obs.Obs.with_span "train_campaign"
    ~attrs:[ ("trials", string_of_int config.trials) ]
    (fun () ->
      let space =
        Site.enumerate ~train:tb ~design:tb.Train_builder.base ~params
          ~input_blob:"" ~input_words:0
          ~stored_bits:(fun _ ~word_bits -> word_bits)
          ~targets:config.targets ()
      in
      let train inject =
        let p = Db_nn.Params.copy params in
        let h =
          Train_sim.train ~config:config.train_config ~inject
            ~rng:(Rng.create config.train_seed) tb p samples
        in
        h.Trainer.final_loss
      in
      let baseline = train [] in
      let rows = Array.make config.trials None in
      Pool.parallel_for ~chunk:1
        ~work:(config.trials * 2_000_000)
        ~lo:0 ~hi:config.trials
        (fun t ->
          let rng = Rng.create (config.seed + t) in
          let g, word, bit = Site.pick space rng in
          let final = train (injection_of tb g ~word ~bit) in
          rows.(t) <-
            Some
              {
                t_label = g.Site.g_label;
                t_class = g.Site.g_class;
                t_word = word;
                t_bit = bit;
                t_final_loss = final;
                t_outcome =
                  classify ~baseline ~tol:config.degraded_tol final;
              });
      let rows =
        Array.map
          (function
            | Some r -> r
            | None -> fail "trial slot left empty" (* unreachable *))
          rows
      in
      let count o =
        Array.fold_left
          (fun acc r -> if r.t_outcome = o then acc + 1 else acc)
          0 rows
      in
      Db_obs.Obs.incr ~by:config.trials "train_campaign.injections";
      {
        tc_seed = config.seed;
        tc_trials = config.trials;
        tc_space_bits = space.Site.total_bits;
        tc_baseline_loss = baseline;
        tc_benign = count Benign;
        tc_degraded = count Degraded;
        tc_diverged = count Diverged;
        tc_rows = rows;
      })

let render_text r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "training fault campaign: %d trial(s) over %d stored bit(s)\n" r.tc_trials
    r.tc_space_bits;
  Printf.bprintf buf "  fault-free final loss %.6g\n" r.tc_baseline_loss;
  Printf.bprintf buf "  benign %d  degraded %d  diverged %d\n" r.tc_benign
    r.tc_degraded r.tc_diverged;
  Array.iter
    (fun t ->
      Printf.bprintf buf "  %-28s word %-4d bit %-2d  loss %.6g  %s\n"
        t.t_label t.t_word t.t_bit t.t_final_loss (outcome_name t.t_outcome))
    r.tc_rows;
  Buffer.contents buf

let render_json r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"seed\": %d,\n  \"trials\": %d,\n" r.tc_seed
    r.tc_trials;
  Printf.bprintf buf "  \"space_bits\": %d,\n" r.tc_space_bits;
  Printf.bprintf buf "  \"baseline_loss\": %.6g,\n" r.tc_baseline_loss;
  Printf.bprintf buf
    "  \"benign\": %d,\n  \"degraded\": %d,\n  \"diverged\": %d,\n" r.tc_benign
    r.tc_degraded r.tc_diverged;
  Printf.bprintf buf "  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun t ->
            Printf.sprintf
              "    {\"label\": \"%s\", \"class\": \"%s\", \"word\": %d, \
               \"bit\": %d, \"final_loss\": %.6g, \"outcome\": \"%s\"}"
              (Db_util.Minijson.escape t.t_label)
              (Site.class_name t.t_class)
              t.t_word t.t_bit t.t_final_loss
              (outcome_name t.t_outcome))
          (Array.to_list r.tc_rows)));
  Buffer.contents buf
