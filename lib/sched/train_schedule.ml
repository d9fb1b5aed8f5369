(* The three-phase FF→BP→UP training schedule.  A training-lowered graph
   ([Db_ir.Lower.lower_training]) folds like any other graph; this module
   partitions its fold runs ([Folding.graph_runs]) into the feed-forward,
   back-propagation and update phases and builds the phase-level FSM that
   sequences them.  Runs keep the schedule O(nodes): a gradient or update
   sweep is one fold per [lanes] words, millions of folds on the large
   networks.  Within a phase the per-fold coordinator
   ([Schedule.coordinator_fsm]) still drives execution — the phase FSM
   sits above it and gates which processor set (FF, BP or UP datapath
   blocks) owns the shared weight memories. *)

module Graph = Db_ir.Graph
module Op = Db_ir.Op

let fail fmt = Db_util.Error.failf_at ~component:"train-sched" fmt

type phase = Ff | Bp | Up

let phase_name = function Ff -> "ff" | Bp -> "bp" | Up -> "up"

let node_phase (n : Graph.node) =
  match n.Graph.op with
  | Op.Sgd_update _ -> Up
  | Op.Backward _ -> Bp
  | _ -> Ff

type t = {
  net_name : string;
  ff : Folding.run list;
  bp : Folding.run list;
  up : Folding.run list;
}

let phase_runs t = function Ff -> t.ff | Bp -> t.bp | Up -> t.up

let build dp (g : Graph.t) =
  let phase_of_node : (string, phase) Hashtbl.t = Hashtbl.create 32 in
  Graph.iter g (fun n ->
      Hashtbl.replace phase_of_node n.Graph.node_name (node_phase n));
  let runs = Folding.graph_runs dp g in
  let phase_of_run (r : Folding.run) =
    match Hashtbl.find_opt phase_of_node r.Folding.fold.Folding.fold_layer with
    | Some p -> p
    | None ->
        fail "fold references unknown node %S"
          r.Folding.fold.Folding.fold_layer
  in
  (* The lowering emits FF, then BP, then UP nodes; a schedule that
     interleaves phases would let two processor sets contend for the
     weight memory ports, so reject it outright. *)
  let rank = function Ff -> 0 | Bp -> 1 | Up -> 2 in
  ignore
    (List.fold_left
       (fun prev r ->
         let p = phase_of_run r in
         if rank p < rank prev then
           fail "fold %S runs phase %s after phase %s: phases must not \
                 interleave"
             r.Folding.fold.Folding.event (phase_name p) (phase_name prev);
         p)
       Ff runs);
  let of_phase p = List.filter (fun r -> phase_of_run r = p) runs in
  let t =
    {
      net_name = g.Graph.graph_name;
      ff = of_phase Ff;
      bp = of_phase Bp;
      up = of_phase Up;
    }
  in
  if t.bp = [] then
    fail "graph %S has no backward folds: not a training-lowered graph"
      g.Graph.graph_name;
  t

let fold_count runs =
  List.fold_left (fun acc r -> acc + r.Folding.count) 0 runs

(* The phase sequencer: one state per non-empty phase, chained on
   [phase_done], each state asserting its processor-set enable. *)
let phase_fsm t =
  let phases =
    List.filter (fun p -> phase_runs t p <> []) [ Ff; Bp; Up ]
  in
  let states = "idle" :: List.map (fun p -> "s_" ^ phase_name p) phases in
  let outputs = List.map (fun p -> "en_" ^ phase_name p) phases in
  let transitions =
    match phases with
    | [] -> fail "no phases to sequence"
    | first :: rest ->
        let step ~guard current p =
          {
            Db_hdl.Fsm.from_state = current;
            guard = Some guard;
            to_state = "s_" ^ phase_name p;
            actions = [ "en_" ^ phase_name p ];
          }
        in
        let rec chain current acc = function
          | [] ->
              List.rev
                ({
                   Db_hdl.Fsm.from_state = current;
                   guard = Some "phase_done";
                   to_state = "idle";
                   actions = [];
                 }
                :: acc)
          | p :: rest ->
              chain ("s_" ^ phase_name p)
                (step ~guard:"phase_done" current p :: acc)
                rest
        in
        chain ("s_" ^ phase_name first) [ step ~guard:"start" "idle" first ] rest
  in
  let fsm =
    {
      (* a Verilog identifier: the training graph's name is "<net>:train" *)
      Db_hdl.Fsm.fsm_name =
        "train_phases_"
        ^ String.map
            (fun c -> if Db_hdl.Lint.is_word_char c then c else '_')
            t.net_name;
      states;
      initial = "idle";
      inputs = [ "start"; "phase_done" ];
      outputs;
      transitions;
    }
  in
  Db_hdl.Fsm.validate fsm;
  fsm

let pp fmt t =
  Format.fprintf fmt "training schedule for %S:@." t.net_name;
  List.iter
    (fun p ->
      let runs = phase_runs t p in
      let total f =
        List.fold_left
          (fun acc r -> acc + (r.Folding.count * f r.Folding.fold))
          0 runs
      in
      Format.fprintf fmt "  %-3s folds=%-6d macs=%-12d ops=%d@."
        (phase_name p) (fold_count runs)
        (total (fun f -> f.Folding.macs))
        (total (fun f -> f.Folding.other_ops)))
    [ Ff; Bp; Up ]
