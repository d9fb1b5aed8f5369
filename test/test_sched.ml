(* Tests for db_sched: datapath config, temporal/spatial folding and the
   coordinator schedule. *)

module Datapath = Db_sched.Datapath
module Folding = Db_sched.Folding
module Schedule = Db_sched.Schedule
module Shape = Db_tensor.Shape
module Layer = Db_nn.Layer

let dp lanes = Datapath.make ~lanes ()

(* One record per fold of [Folding.fold_op_plan]'s runs. *)
let fold_op dp op ~bottoms ~output ~node_name ~layer_index =
  List.concat_map Folding.run_folds
    (Folding.fold_op_plan dp op ~bottoms ~output ~node_name ~layer_index)

(* MACs of a fold list, one record at a time: the reference the run
   totals ([Folding.total_macs]) are checked against. *)
let fold_macs folds = List.fold_left (fun acc f -> acc + f.Folding.macs) 0 folds


let test_datapath_validation () =
  Alcotest.check_raises "zero lanes"
    (Db_util.Error.Deepburning_error "datapath: make: lanes must be positive")
    (fun () ->
      ignore (Datapath.make ~lanes:0 ()));
  Alcotest.(check int) "macs/cycle" 8
    (Datapath.macs_per_cycle (Datapath.make ~lanes:4 ~simd:2 ()))

let test_fc_folding () =
  let folds =
    fold_op (dp 4)
      (Layer.Fc { num_output = 10; bias = true })
      ~bottoms:[ Shape.vector 6 ] ~output:(Shape.vector 10) ~node_name:"fc"
      ~layer_index:0
  in
  Alcotest.(check int) "ceil(10/4) folds" 3 (List.length folds);
  (match folds with
  | [ f0; f1; f2 ] ->
      Alcotest.(check int) "full fold lanes" 4 f0.Folding.lanes_used;
      Alcotest.(check int) "full fold macs" 24 f0.Folding.macs;
      Alcotest.(check int) "second full" 4 f1.Folding.lanes_used;
      Alcotest.(check int) "tail lanes" 2 f2.Folding.lanes_used;
      Alcotest.(check int) "tail macs" 12 f2.Folding.macs;
      Alcotest.(check string) "event name" "layer0-fold0" f0.Folding.event
  | _ -> Alcotest.fail "expected 3 folds");
  Alcotest.(check int) "total macs preserved" 60 (fold_macs folds);
  (* The plan itself is two runs: the full folds, then the tail. *)
  Alcotest.(check (list (pair int int))) "runs (lanes, count)"
    [ (4, 2); (2, 1) ]
    (List.map
       (fun (r : Folding.run) ->
         (r.Folding.fold.Folding.lanes_used, r.Folding.count))
       (Folding.fold_op_plan (dp 4)
          (Layer.Fc { num_output = 10; bias = true })
          ~bottoms:[ Shape.vector 6 ] ~output:(Shape.vector 10)
          ~node_name:"fc" ~layer_index:0))

let test_conv_folding () =
  (* 8 output channels on 3 lanes: 3 folds over channels. *)
  let folds =
    fold_op (dp 3)
      (Layer.Conv
         { num_output = 8; kernel_size = 3; stride = 1; pad = 1; group = 1; bias = true })
      ~bottoms:[ Shape.chw ~channels:2 ~height:8 ~width:8 ]
      ~output:(Shape.chw ~channels:8 ~height:8 ~width:8)
      ~node_name:"conv" ~layer_index:1
  in
  Alcotest.(check int) "folds" 3 (List.length folds);
  let total = fold_macs folds in
  Alcotest.(check int) "macs = cout*oh*ow*cin*k2" (8 * 8 * 8 * 2 * 9) total

let test_no_fold_when_fits () =
  let folds =
    fold_op (dp 16)
      (Layer.Fc { num_output = 10; bias = false })
      ~bottoms:[ Shape.vector 4 ] ~output:(Shape.vector 10) ~node_name:"fc"
      ~layer_index:0
  in
  Alcotest.(check int) "single fold" 1 (List.length folds);
  (match folds with
  | [ f ] -> Alcotest.(check int) "all lanes busy" 10 f.Folding.lanes_used
  | _ -> Alcotest.fail "expected one fold")

let test_recurrent_folding () =
  let folds =
    fold_op (dp 4)
      (Layer.Recurrent { num_output = 6; steps = 3; bias = false })
      ~bottoms:[ Shape.vector 5 ] ~output:(Shape.vector 6) ~node_name:"rec"
      ~layer_index:0
  in
  (* ceil(6/4) = 2 folds per step, 3 steps. *)
  Alcotest.(check int) "folds" 6 (List.length folds);
  Alcotest.(check int) "macs" (3 * 6 * (5 + 6)) (fold_macs folds);
  (* Events must be unique. *)
  let events = List.map (fun f -> f.Folding.event) folds in
  Alcotest.(check int) "unique events" 6
    (List.length (List.sort_uniq compare events))

let test_pooling_folds_over_channels () =
  let folds =
    fold_op (dp 2)
      (Layer.Pool { method_ = Layer.Max_pool; kernel_size = 2; stride = 2 })
      ~bottoms:[ Shape.chw ~channels:5 ~height:4 ~width:4 ]
      ~output:(Shape.chw ~channels:5 ~height:2 ~width:2)
      ~node_name:"pool" ~layer_index:0
  in
  Alcotest.(check int) "ceil(5/2)" 3 (List.length folds);
  Alcotest.(check int) "no macs" 0 (fold_macs folds)

let mnist_net () = Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mnist_prototxt

let test_network_schedule () =
  let net = mnist_net () in
  let schedule = Schedule.build (dp 4) (Db_ir.Lower.lower net) in
  (* Folds of the whole network: MAC total must match the model stats. *)
  let stats = Db_nn.Model_stats.compute net in
  Alcotest.(check int) "macs preserved across folding"
    stats.Db_nn.Model_stats.total_macs
    (Folding.total_macs schedule.Schedule.runs);
  Alcotest.(check bool) "multiple folds" true (Schedule.fold_count schedule > 5);
  (* Events are unique and in execution order, one per fold. *)
  let events = Schedule.events schedule in
  Alcotest.(check int) "one event per fold" (Schedule.fold_count schedule)
    (List.length events);
  Alcotest.(check int) "unique" (List.length events)
    (List.length (List.sort_uniq compare events));
  (* One reconfiguration per layer boundary. *)
  Alcotest.(check int) "reconfigurations"
    (Db_nn.Network.layer_count net - 1)
    (Schedule.reconfigurations schedule)

let test_more_lanes_fewer_folds () =
  let net = mnist_net () in
  let f lanes = Schedule.fold_count (Schedule.build (dp lanes) (Db_ir.Lower.lower net)) in
  Alcotest.(check bool) "monotone" true (f 1 > f 4 && f 4 >= f 16)

let test_coordinator_fsm () =
  let net =
    Db_workloads.Model_zoo.build
      (Db_workloads.Model_zoo.ann_prototxt ~name:"t" ~inputs:4 ~hidden1:4
         ~hidden2:4 ~outputs:2)
  in
  let schedule = Schedule.build (dp 2) (Db_ir.Lower.lower net) in
  let fsm = Schedule.coordinator_fsm schedule in
  Db_hdl.Fsm.validate fsm;
  (* One state per run plus idle; walking one fold_done per fold through
     the machine visits every run state and returns to idle. *)
  let runs = List.length schedule.Schedule.runs in
  Alcotest.(check int) "1 + runs states" (1 + runs)
    (List.length fsm.Db_hdl.Fsm.states);
  let n = Schedule.fold_count schedule in
  Alcotest.(check bool) "some run holds several folds" true (n > runs);
  let inputs = [ "start" ] :: List.init n (fun _ -> [ "fold_done" ]) in
  let trace = Db_hdl.Fsm.run fsm ~asserted:inputs in
  (match List.rev trace with
  | (last, _) :: _ -> Alcotest.(check (pair string int)) "ends idle" ("idle", 0) last
  | [] -> Alcotest.fail "empty trace");
  (* Every run's output pulses exactly once. *)
  let pulses = List.concat_map snd trace in
  Alcotest.(check int) "one pulse per run" runs (List.length pulses);
  Alcotest.(check int) "all distinct" runs
    (List.length (List.sort_uniq compare pulses))

let test_fold_layer_rejects_bad_bottoms () =
  match
    fold_op (dp 2)
      (Layer.Fc { num_output = 4; bias = true })
      ~bottoms:[] ~output:(Shape.vector 4) ~node_name:"fc" ~layer_index:0
  with
  | (_ : Folding.fold list) -> Alcotest.fail "expected arity failure"
  | exception Db_util.Error.Deepburning_error _ -> ()

(* Property: spatial folding conserves MACs and lane occupancy never
   exceeds the lane count; the plan's run totals equal its folds'. *)
let prop_folding_conserves =
  QCheck.Test.make ~name:"folding conserves MACs, bounds lanes" ~count:100
    QCheck.(triple (int_range 1 16) (int_range 1 64) (int_range 1 32))
    (fun (lanes, num_output, nin) ->
      let runs =
        Folding.fold_op_plan (dp lanes)
          (Layer.Fc { num_output; bias = false })
          ~bottoms:[ Shape.vector nin ] ~output:(Shape.vector num_output)
          ~node_name:"fc" ~layer_index:0
      in
      let folds = List.concat_map Folding.run_folds runs in
      fold_macs folds = num_output * nin
      && Folding.total_macs runs = num_output * nin
      && Folding.total (fun _ -> 1) runs = List.length folds
      && List.for_all (fun f -> f.Folding.lanes_used <= lanes && f.Folding.lanes_used > 0) folds
      && List.length folds = (num_output + lanes - 1) / lanes)

(* The coordinator module of every zoo design and the training Verilog
   (which holds the FF/BP/UP phase FSM) of ann0 and mlp, digested and
   compared against the committed pin: a change to the machines names
   itself here before it moves the whole-design RTL digests. *)
let test_zoo_fsm_pinned () =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let cons = Db_core.Constraints.parse Db_serve.Serve.default_constraint_script in
  let md5 s = Digest.to_hex (Digest.string s) in
  let net src = Db_nn.Caffe.import_string src in
  let coordinators =
    List.map
      (fun (name, src) ->
        let d = Db_core.Design_cache.generate cons (net src) in
        Printf.sprintf "%s %s\n" name
          (md5
             (Db_hdl.Verilog.emit_module
                (Db_hdl.Rtl.of_fsm
                   (Schedule.coordinator_fsm d.Db_core.Design.schedule)))))
      Db_workloads.Model_zoo.named
  in
  let training =
    List.map
      (fun name ->
        let src = List.assoc name Db_workloads.Model_zoo.named in
        Printf.sprintf "train:%s %s\n" name
          (md5 (Db_core.Train_builder.verilog
                  (Db_core.Train_builder.build cons (net src)))))
      [ "ann0"; "mlp" ]
  in
  Alcotest.(check string) "golden_ir/zoo_fsm.md5"
    (read_file (Filename.concat "golden_ir" "zoo_fsm.md5"))
    (String.concat "" (coordinators @ training))

let suite =
  [
    ( "sched.datapath",
      [ Alcotest.test_case "validation" `Quick test_datapath_validation ] );
    ( "sched.folding",
      [
        Alcotest.test_case "fc folds" `Quick test_fc_folding;
        Alcotest.test_case "conv folds" `Quick test_conv_folding;
        Alcotest.test_case "fits in lanes" `Quick test_no_fold_when_fits;
        Alcotest.test_case "recurrent" `Quick test_recurrent_folding;
        Alcotest.test_case "pooling" `Quick test_pooling_folds_over_channels;
        Alcotest.test_case "bad bottoms" `Quick test_fold_layer_rejects_bad_bottoms;
        QCheck_alcotest.to_alcotest prop_folding_conserves;
      ] );
    ( "sched.schedule",
      [
        Alcotest.test_case "whole network" `Quick test_network_schedule;
        Alcotest.test_case "lanes vs folds" `Quick test_more_lanes_fewer_folds;
        Alcotest.test_case "coordinator fsm" `Quick test_coordinator_fsm;
        Alcotest.test_case "zoo fsm pinned" `Slow test_zoo_fsm_pinned;
      ] );
  ]
