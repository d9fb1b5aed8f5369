module Design = Db_core.Design
module Compiler = Db_core.Compiler
module Layout = Db_mem.Layout
module Graph = Db_ir.Graph
module Folding = Db_sched.Folding

type result = {
  folds_executed : int;
  addresses_issued : int;
  agu_cycles : int;
  violations : string list;
}

let region_of_transfer design (p : Compiler.fold_program)
    (tr : Compiler.transfer) =
  let layout = design.Design.layout in
  let node = Graph.find_node design.Design.ir p.Compiler.fold.Folding.fold_layer in
  match tr.Compiler.stream with
  | `Feature_in -> begin
      match node.Graph.inputs with
      | bottom :: _ ->
          let e = Layout.feature_entry layout ~blob:bottom in
          Some (e.Layout.base, e.Layout.base + e.Layout.words)
      | [] -> None
    end
  | `Weight_in -> begin
      match Layout.weight_entries layout ~node:node.Graph.node_name with
      | [] -> None
      | entries ->
          let lo =
            List.fold_left (fun a e -> Stdlib.min a e.Layout.base) max_int entries
          in
          let hi =
            List.fold_left
              (fun a e -> Stdlib.max a (e.Layout.base + e.Layout.words))
              0 entries
          in
          Some (lo, hi)
    end
  | `Output_back -> begin
      match node.Graph.outputs with
      | top :: _ ->
          let e = Layout.feature_entry layout ~blob:top in
          Some (e.Layout.base, e.Layout.base + e.Layout.words)
      | [] -> None
    end

let stream_name = function
  | `Feature_in -> "feature"
  | `Weight_in -> "weight"
  | `Output_back -> "writeback"

let playback design =
  (* 1. Walk the coordinator FSM: pulse i (start, then each fold_done)
     must leave it at fold i — a run's state at the fold's position in
     the run — and the last pulse back in idle.  Each run's output pulses
     once, on entry, in run order. *)
  let schedule = design.Design.schedule in
  let violations = ref [] in
  let fsm = Db_sched.Schedule.coordinator_fsm schedule in
  let run_of_state = Hashtbl.create 64 in
  List.iter2 (Hashtbl.replace run_of_state) (List.tl fsm.Db_hdl.Fsm.states)
    schedule.Db_sched.Schedule.runs;
  let fold_at (state, position) =
    Option.map
      (fun r -> (Folding.nth_fold r position).Folding.event)
      (Hashtbl.find_opt run_of_state state)
  in
  let events = Db_sched.Schedule.events schedule in
  let inputs = [ "start" ] :: List.map (fun _ -> [ "fold_done" ]) events in
  let trace = Db_hdl.Fsm.run fsm ~asserted:inputs in
  (match
     List.find_index Fun.id
       (List.map2
          (fun (at, _) expected -> fold_at at <> expected)
          trace
          (List.map Option.some events @ [ None ]))
   with
  | Some i ->
      violations :=
        Printf.sprintf "coordinator diverges from the schedule at pulse %d" i
        :: !violations
  | None -> ());
  if List.concat_map snd trace <> fsm.Db_hdl.Fsm.outputs then
    violations :=
      "coordinator outputs do not pulse once per run in order" :: !violations;
  (* 2. Replay every transfer's AGU pattern and bound-check the stream. *)
  let addresses = ref 0 and cycles = ref 0 and folds = ref 0 in
  List.iter
    (fun (p : Compiler.fold_program) ->
      incr folds;
      List.iter
        (fun (tr : Compiler.transfer) ->
          let agu = Db_mem.Agu_sim.create tr.Compiler.pattern in
          let addrs, c = Db_mem.Agu_sim.run_to_completion agu in
          cycles := !cycles + c;
          addresses := !addresses + List.length addrs;
          match region_of_transfer design p tr with
          | None ->
              violations :=
                Printf.sprintf "%s: %s transfer has no layout region"
                  p.Compiler.event (stream_name tr.Compiler.stream)
                :: !violations
          | Some (lo, hi) ->
              List.iter
                (fun a ->
                  if a < lo || a >= hi then
                    violations :=
                      Printf.sprintf
                        "%s: %s address %d escapes region [%d, %d)"
                        p.Compiler.event
                        (stream_name tr.Compiler.stream)
                        a lo hi
                      :: !violations)
                addrs)
        p.Compiler.transfers)
    design.Design.program.Compiler.programs;
  {
    folds_executed = !folds;
    addresses_issued = !addresses;
    agu_cycles = !cycles;
    violations = List.rev !violations;
  }

let verify design =
  let r = playback design in
  match r.violations with
  | [] -> ()
  | first :: rest ->
      Db_util.Error.failf_at ~component:"control-playback"
        "%d violation(s); first: %s" (1 + List.length rest) first
