type t = {
  net_name : string;
  datapath : Datapath.t;
  folds : Folding.fold list;
}

let build dp graph =
  {
    net_name = graph.Db_ir.Graph.graph_name;
    datapath = dp;
    folds = Folding.fold_graph dp graph;
  }

let fold_count t = List.length t.folds

let events t = List.map (fun f -> f.Folding.event) t.folds

let reconfigurations t =
  let rec boundaries prev = function
    | [] -> 0
    | f :: rest ->
        let here = if f.Folding.fold_layer <> prev then 1 else 0 in
        here + boundaries f.Folding.fold_layer rest
  in
  match t.folds with
  | [] -> 0
  | first :: rest -> boundaries first.Folding.fold_layer rest

let coordinator_fsm t =
  (* Fold events are unique by construction ("layer%d-fold%d"), but the FSM
     contract (Fsm.validate) rejects duplicate states/outputs, so uniquify
     defensively: a repeated event gets a "#n" suffix instead of aborting. *)
  let seen = Hashtbl.create 64 in
  let events =
    List.map
      (fun f ->
        let e = f.Folding.event in
        match Hashtbl.find_opt seen e with
        | None ->
            Hashtbl.replace seen e 1;
            e
        | Some n ->
            Hashtbl.replace seen e (n + 1);
            Printf.sprintf "%s#%d" e n)
      t.folds
  in
  let fold_states = List.map (fun e -> "s_" ^ e) events in
  let states = "idle" :: fold_states in
  let outputs = List.map (fun e -> "ev_" ^ e) events in
  (* Tail-recursive chain builder: deep schedules (one state per fold) must
     not be limited by the OCaml stack. *)
  let all =
    match events with
    | [] -> []
    | first :: rest ->
        let step ~guard current e =
          {
            Db_hdl.Fsm.from_state = current;
            guard = Some guard;
            to_state = "s_" ^ e;
            actions = [ "ev_" ^ e ];
          }
        in
        (* The first transition fires on [start] instead of [fold_done]. *)
        let rec chain current acc = function
          | [] ->
              List.rev
                ({
                   Db_hdl.Fsm.from_state = current;
                   guard = Some "fold_done";
                   to_state = "idle";
                   actions = [];
                 }
                :: acc)
          | e :: rest ->
              chain ("s_" ^ e) (step ~guard:"fold_done" current e :: acc) rest
        in
        chain ("s_" ^ first) [ step ~guard:"start" "idle" first ] rest
  in
  let fsm =
    {
      Db_hdl.Fsm.fsm_name = "coordinator_" ^ t.net_name;
      states;
      initial = "idle";
      inputs = [ "start"; "fold_done" ];
      outputs;
      transitions = all;
    }
  in
  Db_hdl.Fsm.validate fsm;
  fsm

let pp fmt t =
  Format.fprintf fmt "schedule for %S (%d folds):@." t.net_name (fold_count t);
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let key = f.Folding.fold_layer in
      let macs, ops, n =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_layer key)
      in
      Hashtbl.replace by_layer key
        (macs + f.Folding.macs, ops + f.Folding.other_ops, n + 1))
    t.folds;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let key = f.Folding.fold_layer in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let macs, ops, n = Hashtbl.find by_layer key in
        Format.fprintf fmt "  %-16s folds=%-6d macs=%-12d ops=%d@." key n macs
          ops
      end)
    t.folds
