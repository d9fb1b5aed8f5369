(* The three-phase FF→BP→UP training schedule.  A training-lowered graph
   ([Db_ir.Lower.lower_training]) schedules like any other graph; this
   module partitions its [Schedule.build] runs into the feed-forward,
   back-propagation and update phases and builds the phase-level FSM that
   sequences them.  Runs keep the schedule O(nodes): a gradient or update
   sweep is one fold per [lanes] words, millions of folds on the large
   networks.  Within a phase the run-level coordinator
   ([Schedule.coordinator_fsm]) still drives execution — the phase FSM
   sits above it and gates which processor set (FF, BP or UP datapath
   blocks) owns the shared weight memories.  Both FSMs are the same
   [Fsm.chain]. *)

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
  let runs = (Schedule.build dp g).Schedule.runs in
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

(* The phase sequencer: one state per non-empty phase, chained on
   [phase_done], each state asserting its processor-set enable. *)
let phase_fsm t =
  Db_hdl.Fsm.chain
    (* the training graph's name is "<net>:train" *)
    ~name:(Db_hdl.Rtl.identifier ("train_phases_" ^ t.net_name))
    ~advance:"phase_done" ~output_prefix:"en_"
    (List.filter_map
       (fun p -> if phase_runs t p = [] then None else Some (phase_name p, 1))
       [ Ff; Bp; Up ])

let pp fmt t =
  Format.fprintf fmt "training schedule for %S:@." t.net_name;
  List.iter
    (fun p -> Schedule.pp_totals fmt ~width:3 (phase_name p) (phase_runs t p))
    [ Ff; Bp; Up ]
