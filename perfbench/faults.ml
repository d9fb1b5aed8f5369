(* The fault-campaign layers: in-process SEU campaigns on the Specialized
   engine.  Setup generates MNIST and LeNet-5 and seeds their parameters
   and inputs; a sweep runs 100-trial Db_fault.Campaign.runs, in which
   Db_sim.Specialize does the work (with_node_params and qoutput on every
   faulty trial).  One traced sweep ends serve-mix's traced run, which
   shares the Specialize engine: timed as a workload of its own, sweeps
   swung past the metric bounds on a shared 2-core host. *)

module Campaign = Db_fault.Campaign
module Spec = Db_sim.Specialize
module Tensor = Db_tensor.Tensor
module Rng = Common.Rng

(* Models and their campaign seeds per sweep.  A campaign takes ~110 ms on
   MNIST and ~370 ms on LeNet-5, so three MNIST campaigns to one LeNet-5
   campaign give each model about half of a sweep's time. *)
let models = [ ("mnist", 6); ("lenet5", 2) ]
let trials = 100
let inputs_per_model = 4

type model = {
  name : string;
  design : Db_core.Design.t;
  params : Db_nn.Params.t;
  input_blob : string;
  inputs : Tensor.t array;
  bound : Spec.bound;
  weighted_node : string;  (** the node whose parameters a rebind swaps *)
  seeds : int array;  (** campaign seeds *)
}

type t = {
  ms : model array;
  rng : Rng.t;
  first_runs : (string * int, string * Campaign.result) Hashtbl.t;
      (** JSON and result of each (model, seed) pair's first campaign *)
  compile_s : float list;
  mutable ops : int;
}

let config seed engine = { Campaign.default_config with Campaign.seed; trials; engine }

let campaign m seed engine =
  Campaign.run ~design:m.design ~params:m.params ~input_blob:m.input_blob
    ~inputs:m.inputs (config seed engine)

let timed f =
  let t0 = Trace.now_s () in
  let r = f () in
  (r, Trace.now_s () -. t0)

let prepare rng cons (name, campaign_seeds) =
  let network = Db_nn.Caffe.import_string (Common.source name) in
  let design = Db_core.Generator.generate cons network in
  let params = Db_nn.Params.init_xavier rng network in
  let input_blob, shape = Common.input_of network in
  let inputs =
    Array.init inputs_per_model (fun _ ->
        Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0)
  in
  (* Campaign.run reuses this trace: Specialize.of_design memoises it. *)
  let spec, compile_s = timed (fun () -> Spec.of_design design) in
  let bound = Spec.bind spec params in
  let weighted_node =
    match
      List.find_opt
        (fun n -> Db_nn.Params.get params n.Db_nn.Network.node_name <> [])
        network.Db_nn.Network.nodes
    with
    | Some n -> n.Db_nn.Network.node_name
    | None -> Common.Error.fail "%s has no weighted layer" name
  in
  let seeds = Array.init campaign_seeds (fun _ -> Rng.int rng 1_000_000_000) in
  ( { name; design; params; input_blob; inputs; bound; weighted_node; seeds },
    compile_s )

(* Setup also proves the two engines agree: for one seed per model the
   Specialized campaign JSON must equal the Generic engine's. *)
let setup ~seed =
  let rng = Rng.create seed in
  let cons = Common.constraints () in
  let prepared = List.map (prepare rng cons) models in
  let first_runs = Hashtbl.create 16 in
  List.iter
    (fun (m, _) ->
      let seed = m.seeds.(0) in
      let spec = campaign m seed Campaign.Specialized in
      let json = Campaign.render_json spec in
      if json <> Campaign.render_json (campaign m seed Campaign.Generic) then
        Common.Error.fail
          "faults: Specialized and Generic campaign JSON differ on %s seed %d"
          m.name seed;
      Hashtbl.replace first_runs (m.name, seed) (json, spec))
    prepared;
  {
    ms = Array.of_list (List.map fst prepared);
    rng;
    first_runs;
    compile_s = List.map snd prepared;
    ops = 0;
  }

(* Standalone calls into the layers Campaign.run drives internally, timed
   one call each after a traced op. *)
let probe ~op m =
  let span name f = ignore (Trace.span ~op name (fun _ -> f ())) in
  span "fault.site_enumerate" (fun () ->
      Db_fault.Site.enumerate ~design:m.design ~params:m.params
        ~input_blob:m.input_blob
        ~input_words:(Tensor.numel m.inputs.(0))
        ~stored_bits:(fun _ ~word_bits -> word_bits)
        ~targets:Db_fault.Site.all_classes ());
  let node = m.weighted_node in
  let qparams = Spec.node_qparams m.bound ~node in
  span "sim.specialize_rebind" (fun () -> Spec.with_node_params m.bound ~node qparams);
  span "sim.specialize_qoutput" (fun () ->
      Spec.qoutput m.bound ~inputs:[ (m.input_blob, m.inputs.(0)) ]);
  span "sim.replay_control" (fun () ->
      Spec.replay_control ~cycle_budget:max_int (Spec.spec m.bound))

(* Every later campaign of a (model, seed) pair must reproduce the JSON of
   its first one. *)
let checked_campaign t ~op (m, seed) =
  let r =
    Trace.span ~op "fault.campaign" (fun _ -> campaign m seed Campaign.Specialized)
  in
  let json = Campaign.render_json r in
  match Hashtbl.find_opt t.first_runs (m.name, seed) with
  | None ->
      Hashtbl.replace t.first_runs (m.name, seed) (json, r);
      Ok ()
  | Some (first, _) when first = json -> Ok ()
  | Some _ ->
      Error
        ( "output-check",
          Printf.sprintf "%s seed %d: campaign JSON differs from its first run"
            m.name seed )

(* A sweep runs every (model, seed) pair once, in seeded order (~1.4 s),
   as one op. *)
let sweep t tally =
  t.ops <- t.ops + 1;
  let id = t.ops in
  let pairs =
    List.concat_map
      (fun m -> List.map (fun s -> (m, s)) (Array.to_list m.seeds))
      (Array.to_list t.ms)
  in
  ignore
    (Common.timed_op tally (fun () ->
         List.fold_left
           (fun acc pair -> Result.bind acc (fun () -> checked_campaign t ~op:id pair))
           (Ok ())
           (Common.shuffled t.rng pairs)));
  if !Trace.enabled then Array.iter (probe ~op:id) t.ms

let layers t =
  let self = Trace.self_by_name () in
  let median name scale =
    match self name with [] -> 0.0 | l -> Stats.median (Array.of_list l) *. scale
  in
  (* Outcome counts over one campaign of every (model, seed) pair. *)
  let sum f =
    float_of_int
      (Hashtbl.fold
         (fun _ (_, (r : Campaign.result)) acc -> acc + f r)
         t.first_runs 0)
  in
  let total f = sum (fun r -> f r.Campaign.res_total) in
  [
    ("sim.specialize_qoutput_us", median "sim.specialize_qoutput" 1e6);
    ("sim.specialize_rebind_us", median "sim.specialize_rebind" 1e6);
    ("fault.site_enumerate_ms", median "fault.site_enumerate" 1e3);
    ("sim.replay_control_ms", median "sim.replay_control" 1e3);
    ("fault.campaign_ms", Stats.mean (self "fault.campaign") *. 1e3);
    ("sim.specialize_compile_ms", Stats.mean t.compile_s *. 1e3);
    ("fault.injections", total (fun c -> c.Campaign.injections));
    ("fault.masked", total (fun c -> c.Campaign.masked));
    ("fault.sdc", total (fun c -> c.Campaign.sdc));
    ("fault.top1_flips", total (fun c -> c.Campaign.top1_flips));
    ("fault.hangs", total (fun c -> c.Campaign.hangs));
    ("fault.space_bits", sum (fun r -> r.Campaign.res_space_bits));
  ]
