(* The three-phase FF→BP→UP training schedule.  A training-lowered graph
   ([Db_ir.Lower.lower_training]) folds like any other graph; this module
   partitions the fold sequence into the feed-forward, back-propagation
   and update phases and builds the phase-level FSM that sequences them.
   Within a phase the per-fold coordinator ([Schedule.coordinator_fsm])
   still drives execution — the phase FSM sits above it and gates which
   processor set (FF, BP or UP datapath blocks) owns the shared weight
   memories. *)

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
  schedule : Schedule.t;  (** all folds, FF then BP then UP *)
  ff : Folding.fold list;
  bp : Folding.fold list;
  up : Folding.fold list;
}

let phase_folds t = function Ff -> t.ff | Bp -> t.bp | Up -> t.up

let build dp (g : Graph.t) =
  let phase_of_node : (string, phase) Hashtbl.t = Hashtbl.create 32 in
  Graph.iter g (fun n ->
      Hashtbl.replace phase_of_node n.Graph.node_name (node_phase n));
  let schedule = Schedule.build dp g in
  let phase_of_fold (f : Folding.fold) =
    match Hashtbl.find_opt phase_of_node f.Folding.fold_layer with
    | Some p -> p
    | None -> fail "fold references unknown node %S" f.Folding.fold_layer
  in
  (* The lowering emits FF, then BP, then UP nodes; a schedule that
     interleaves phases would let two processor sets contend for the
     weight memory ports, so reject it outright. *)
  let rank = function Ff -> 0 | Bp -> 1 | Up -> 2 in
  ignore
    (List.fold_left
       (fun prev f ->
         let p = phase_of_fold f in
         if rank p < rank prev then
           fail "fold %S runs phase %s after phase %s: phases must not \
                 interleave"
             f.Folding.event (phase_name p) (phase_name prev);
         p)
       Ff schedule.Schedule.folds);
  let of_phase p =
    List.filter (fun f -> phase_of_fold f = p) schedule.Schedule.folds
  in
  let t =
    { schedule; ff = of_phase Ff; bp = of_phase Bp; up = of_phase Up }
  in
  if t.bp = [] then
    fail "graph %S has no backward folds: not a training-lowered graph"
      g.Graph.graph_name;
  t

(* The phase sequencer: one state per non-empty phase, chained on
   [phase_done], each state asserting its processor-set enable. *)
let phase_fsm t =
  let phases =
    List.filter (fun p -> phase_folds t p <> []) [ Ff; Bp; Up ]
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
            t.schedule.Schedule.net_name;
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
  Format.fprintf fmt "training schedule for %S:@."
    t.schedule.Schedule.net_name;
  List.iter
    (fun p ->
      let folds = phase_folds t p in
      Format.fprintf fmt "  %-3s folds=%-6d macs=%-12d ops=%d@."
        (phase_name p) (List.length folds) (Folding.total_macs folds)
        (List.fold_left (fun acc f -> acc + f.Folding.other_ops) 0 folds))
    [ Ff; Bp; Up ]
