module Rng = Db_util.Rng
module Obs = Db_obs.Obs
module Pool = Db_parallel.Pool
module Tensor = Db_tensor.Tensor
module Resource = Db_fpga.Resource
module Graph = Db_ir.Graph
module Objective = Db_core.Objective
module Constraints = Db_core.Constraints
module Design = Db_core.Design
module Design_cache = Db_core.Design_cache
module Simulator = Db_sim.Simulator
module Protect = Db_fault.Protect
module Campaign = Db_fault.Campaign

type config = {
  seed : int;
  budget : int;
  axes : Objective.axis list;
  epsilon : float;
  population : int;
  accuracy_samples : int;
  fault_trials : int;
}

let default_config =
  {
    seed = 1;
    budget = 40;
    axes =
      Objective.
        [ Cycles; Latency_s; Luts; Ffs; Dsps; Bram_bits; Accuracy_loss ];
    epsilon = 0.05;
    population = 12;
    accuracy_samples = 2;
    fault_trials = 24;
  }

type entry = {
  e_candidate : Space.candidate;
  e_objective : Objective.t;
  e_round : int;
  e_index : int;
}

type result = {
  r_model : string;
  r_config : config;
  r_front : entry list;
  r_proposed : int;
  r_evaluated : int;
  r_deduped : int;
  r_infeasible : int;
  r_rounds : int;
}

let fail fmt = Db_util.Error.failf_at ~component:"dse" fmt

(* The protection scheme's bill: the stored words it guards are the model
   parameters plus both on-chip buffers (the classes {!Db_fault.Site}
   enumerates as memories).  Zero for [Unprotected]. *)
let protection_overhead (space_cand : Space.candidate) (design : Design.t) =
  match space_cand.Space.protect with
  | Protect.Unprotected -> Resource.zero
  | scheme ->
      let word_bits = space_cand.Space.total_bits in
      let dp = design.Design.datapath in
      let buffer_words =
        dp.Db_sched.Datapath.feature_buffer_words
        + dp.Db_sched.Datapath.weight_buffer_words
      in
      Resource.add
        (Protect.resource_overhead scheme ~word_bits
           ~words:(Graph.total_params design.Design.ir))
        (Protect.resource_overhead scheme ~word_bits ~words:buffer_words)

type evaluation = Infeasible | Feasible of Objective.t

let mean_abs_diff a b =
  let xa = Tensor.to_array a and xb = Tensor.to_array b in
  let n = Stdlib.min (Array.length xa) (Array.length xb) in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. Float.abs (xa.(i) -. xb.(i))
    done;
    !acc /. float_of_int n
  end

let evaluate ~space ~base ~net ~config ~params ~samples ~refs ~input_blob
    (cand : Space.candidate) =
  try
    let cons = Space.constraints_for space cand in
    (match Db_check.Range.format_feasibility cons.Constraints.fmt with
    | Ok () -> ()
    | Error why -> fail "infeasible format: %s" why);
    let design =
      Design_cache.generate_with_lanes ~tiling_enabled:cand.Space.tiling cons
        net ~lanes:cand.Space.lanes
    in
    let usage =
      Resource.add
        (Design.resource_usage design)
        (protection_overhead cand design)
    in
    if not (Resource.fits usage ~within:base.Constraints.budget) then
      Infeasible
    else begin
      let report = Simulator.timing design in
      let accuracy_loss =
        match refs with
        | None -> 0.0
        | Some refs ->
            let total =
              List.fold_left2
                (fun acc out reference -> acc +. mean_abs_diff out reference)
                0.0
                (Simulator.functional_output_batch design params
                   ~batch:samples)
                refs
            in
            total /. float_of_int (Stdlib.max 1 (List.length samples))
      in
      let silent_fraction =
        if
          (not (List.mem Objective.Silent_fraction config.axes))
          || config.fault_trials <= 0
        then 0.0
        else
          match input_blob with
          | None -> 0.0
          | Some blob ->
              let inputs =
                Array.of_list
                  (List.map (fun sample -> List.assoc blob sample) samples)
              in
              let scheme = cand.Space.protect in
              let campaign =
                {
                  Campaign.default_config with
                  Campaign.seed = config.seed + Space.key_hash cand;
                  trials = config.fault_trials;
                  protection =
                    {
                      Campaign.weights = scheme;
                      biases = scheme;
                      luts = scheme;
                      buffers = scheme;
                      agu = scheme;
                    };
                  rates = [];
                }
              in
              let res =
                Campaign.run ~design ~params ~input_blob:blob ~inputs
                  campaign
              in
              Campaign.silent_fraction res.Campaign.res_total
      in
      Feasible
        {
          Objective.cycles = float_of_int report.Simulator.total_cycles;
          latency_s = report.Simulator.seconds;
          luts = float_of_int usage.Resource.luts;
          ffs = float_of_int usage.Resource.ffs;
          dsps = float_of_int usage.Resource.dsps;
          bram_bits = float_of_int usage.Resource.bram_bits;
          accuracy_loss;
          silent_fraction;
        }
    end
  with e -> (
    (* Running out of memory says nothing about the design point. *)
    match Db_util.Error.classify_exn e with
    | Some Db_util.Error.Memory | None -> raise e
    | Some _ -> Infeasible)

(* Deterministic per-decision RNGs: every stream is a pure function of
   (seed, round, position), never of evaluation timing. *)
let mix seed ~round ~slot = seed + (1_000_003 * round) + (8191 * slot)

let explore ?(config = default_config) (base : Constraints.t) net =
  if config.axes = [] then fail "at least one objective axis is required";
  if config.budget <= 0 then
    fail "budget must be positive (got %d)" config.budget;
  if config.population <= 0 then
    fail "population must be positive (got %d)" config.population;
  Obs.with_span "dse.explore"
    ~attrs:
      [
        ("network", net.Db_nn.Network.net_name);
        ("budget", string_of_int config.budget);
      ]
    (fun () ->
      let graph =
        Db_ir.Lower.lower ~fmt:base.Constraints.fmt net
      in
      Db_ir.Verify.check_exn graph;
      let resilience = List.mem Objective.Silent_fraction config.axes in
      let space = Space.make ~resilience base graph in
      let params =
        Db_nn.Params.init_xavier (Rng.create (config.seed + 17)) net
      in
      let input_nodes = Graph.input_nodes graph in
      let samples =
        List.init (Stdlib.max 1 config.accuracy_samples) (fun i ->
            let srng = Rng.create (config.seed + (31 * (i + 1))) in
            List.map
              (fun n ->
                ( List.hd n.Graph.outputs,
                  Tensor.random_uniform srng n.Graph.out_shape ~min:(-1.0)
                    ~max:1.0 ))
              input_nodes)
      in
      let input_blob =
        match input_nodes with
        | [ n ] -> Some (List.hd n.Graph.outputs)
        | _ -> None
      in
      let refs =
        if not (List.mem Objective.Accuracy_loss config.axes) then None
        else
          try
            Some
              (List.map
                 (fun inputs -> Db_ir.Interp.output graph params ~inputs)
                 samples)
          with e -> (
            (* e.g. a multi-output network the interpreter refuses: the
               accuracy axis degrades to 0 rather than killing the run *)
            match Db_util.Error.classify_exn e with
            | Some Db_util.Error.Memory | None -> raise e
            | Some _ -> None)
      in
      let archive =
        Archive.create ~axes:config.axes ~epsilon:config.epsilon ()
      in
      let seen = Hashtbl.create 64 in
      let proposed = ref 0
      and evaluated = ref 0
      and deduped = ref 0
      and infeasible = ref 0 in
      let round = ref 0 and dry = ref 0 in
      while !evaluated < config.budget && !dry < 3 do
        let proposals =
          if !round = 0 then
            Space.seeds space ~count:config.population
              (Rng.create (mix config.seed ~round:0 ~slot:0))
          else begin
            let front = Archive.entries archive in
            let mutants =
              List.concat
                (List.mapi
                   (fun i (_, e, _) ->
                     let r =
                       Rng.create (mix config.seed ~round:!round ~slot:i)
                     in
                     [
                       Space.mutate space r e.e_candidate;
                       Space.mutate space r e.e_candidate;
                     ])
                   front)
            in
            let immigrants =
              List.init 2 (fun j ->
                  Space.random space
                    (Rng.create
                       (mix config.seed ~round:!round ~slot:(1009 + j))))
            in
            mutants @ immigrants
          end
        in
        proposed := !proposed + List.length proposals;
        let room = config.budget - !evaluated in
        let batch = ref [] and taken = ref 0 in
        List.iter
          (fun c ->
            if !taken < room then begin
              let k = Space.key c in
              if Hashtbl.mem seen k then begin
                incr deduped;
                Obs.incr "dse.deduped"
              end
              else begin
                Hashtbl.add seen k ();
                batch := c :: !batch;
                incr taken
              end
            end)
          proposals;
        let batch = List.rev !batch in
        if batch = [] then incr dry
        else begin
          dry := 0;
          let results =
            Pool.map_list
              (evaluate ~space ~base ~net ~config ~params ~samples ~refs
                 ~input_blob)
              batch
          in
          List.iter2
            (fun cand res ->
              let idx = !evaluated in
              incr evaluated;
              Obs.incr "dse.evaluated";
              match res with
              | Infeasible ->
                  incr infeasible;
                  Obs.incr "dse.infeasible"
              | Feasible obj ->
                  let e =
                    {
                      e_candidate = cand;
                      e_objective = obj;
                      e_round = !round;
                      e_index = idx;
                    }
                  in
                  ignore
                    (Archive.add archive ~key:(Space.key cand) e obj))
            batch results
        end;
        incr round
      done;
      {
        r_model = net.Db_nn.Network.net_name;
        r_config = config;
        r_front = List.map (fun (_, e, _) -> e) (Archive.entries archive);
        r_proposed = !proposed;
        r_evaluated = !evaluated;
        r_deduped = !deduped;
        r_infeasible = !infeasible;
        r_rounds = !round;
      })

let select ?config base net =
  let config =
    match config with
    | Some c -> c
    | None ->
        {
          default_config with
          axes = Objective.[ Cycles; Luts; Ffs; Dsps; Bram_bits ];
          budget = 16;
          population = 8;
        }
  in
  let res = explore ~config base net in
  match res.r_front with
  | e :: _ -> e
  | [] ->
      fail "no feasible candidate within %d evaluations for %S"
        config.budget res.r_model

let render_json (r : result) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"model\": \"%s\",\n" (Db_util.Minijson.escape r.r_model);
  add "  \"seed\": %d,\n" r.r_config.seed;
  add "  \"budget\": %d,\n" r.r_config.budget;
  add "  \"objectives\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun ax -> Printf.sprintf "\"%s\"" (Objective.axis_name ax))
          r.r_config.axes));
  add "  \"epsilon\": %s,\n" (Objective.number r.r_config.epsilon);
  add "  \"population\": %d,\n" r.r_config.population;
  add "  \"accuracy_samples\": %d,\n" r.r_config.accuracy_samples;
  add "  \"fault_trials\": %d,\n" r.r_config.fault_trials;
  add "  \"proposed\": %d,\n" r.r_proposed;
  add "  \"evaluated\": %d,\n" r.r_evaluated;
  add "  \"deduped\": %d,\n" r.r_deduped;
  add "  \"infeasible\": %d,\n" r.r_infeasible;
  add "  \"rounds\": %d,\n" r.r_rounds;
  add "  \"front_size\": %d,\n" (List.length r.r_front);
  add "  \"front\": [";
  List.iteri
    (fun i e ->
      if i > 0 then add ",";
      add "\n    {\n";
      add "      \"candidate\": %s,\n" (Space.to_json e.e_candidate);
      add "      \"objective\": %s,\n" (Objective.to_json e.e_objective);
      add "      \"provenance\": {\"round\": %d, \"index\": %d}\n" e.e_round
        e.e_index;
      add "    }")
    r.r_front;
  if r.r_front <> [] then add "\n  ";
  add "]\n}\n";
  Buffer.contents b

let render_text (r : result) =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "design-space exploration: %s\n" r.r_model;
  add "  seed %d  budget %d  objectives %s\n" r.r_config.seed
    r.r_config.budget
    (String.concat "," (List.map Objective.axis_name r.r_config.axes));
  add "  proposed %d  evaluated %d  deduped %d  infeasible %d  rounds %d\n"
    r.r_proposed r.r_evaluated r.r_deduped r.r_infeasible r.r_rounds;
  add "  front: %d point(s)\n" (List.length r.r_front);
  List.iter
    (fun e ->
      add "    %s\n" (Space.key e.e_candidate);
      add "      cycles %s  latency %ss  luts %s  ffs %s  dsps %s  bram %s"
        (Objective.number e.e_objective.Objective.cycles)
        (Objective.number e.e_objective.Objective.latency_s)
        (Objective.number e.e_objective.Objective.luts)
        (Objective.number e.e_objective.Objective.ffs)
        (Objective.number e.e_objective.Objective.dsps)
        (Objective.number e.e_objective.Objective.bram_bits);
      if List.mem Objective.Accuracy_loss r.r_config.axes then
        add "  accuracy-loss %s"
          (Objective.number e.e_objective.Objective.accuracy_loss);
      if List.mem Objective.Silent_fraction r.r_config.axes then
        add "  silent %s"
          (Objective.number e.e_objective.Objective.silent_fraction);
      add "\n")
    r.r_front;
  Buffer.contents b
