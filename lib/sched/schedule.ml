type t = {
  net_name : string;
  datapath : Datapath.t;
  runs : Folding.run list;
}

let build dp graph =
  {
    net_name = graph.Db_ir.Graph.graph_name;
    datapath = dp;
    runs = Folding.graph_runs dp graph;
  }

let folds runs = Folding.total (fun _ -> 1) runs

let fold_count t = folds t.runs

let events t =
  List.concat_map
    (fun r -> List.map (fun f -> f.Folding.event) (Folding.run_folds r))
    t.runs

let by_layer runs = Folding.by_layer (fun r -> r.Folding.fold) runs

let reconfigurations t = Stdlib.max 0 (List.length (by_layer t.runs) - 1)

let coordinator_fsm t =
  Db_hdl.Fsm.chain
    ~name:(Db_hdl.Rtl.identifier ("coordinator_" ^ t.net_name))
    ~advance:"fold_done" ~output_prefix:"ev_"
    (List.map
       (fun r ->
         (Db_hdl.Rtl.identifier r.Folding.fold.Folding.event, r.Folding.count))
       t.runs)

let pp_totals fmt ~width label runs =
  Format.fprintf fmt "  %-*s folds=%-6d macs=%-12d ops=%d@." width label
    (folds runs) (Folding.total_macs runs)
    (Folding.total (fun f -> f.Folding.other_ops) runs)

let pp fmt t =
  Format.fprintf fmt "schedule for %S (%d folds):@." t.net_name (fold_count t);
  List.iter (fun (l, runs) -> pp_totals fmt ~width:16 l runs) (by_layer t.runs)
