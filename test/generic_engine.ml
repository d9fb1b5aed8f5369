(* The generic simulation engine, kept as the oracle the specialized one
   ({!Db_sim.Specialize}) is tested against: re-quantize every parameter
   and interpret the network per call, and clock every AGU transfer cycle
   by cycle.  Shared by the spec-equivalence suite and the random-topology
   fuzz property. *)

module Design = Db_core.Design
module Compiler = Db_core.Compiler

(* Every compiled AGU transfer clocked on the cycle-accurate machine under
   one shared watchdog budget: the semantics [Simulator.replay_control]
   reproduces in closed form, span and counters included. *)
let replay_control ~cycle_budget (design : Design.t) =
  Db_obs.Obs.with_span "simulate.replay" @@ fun () ->
  let spent = ref 0 in
  List.iter
    (fun (p : Compiler.fold_program) ->
      List.iter
        (fun (tr : Compiler.transfer) ->
          if cycle_budget - !spent <= 0 then
            Db_util.Error.timeout ~component:"simulator" ~cycles:!spent
              ~budget:cycle_budget;
          let agu = Db_mem.Agu_sim.create tr.Compiler.pattern in
          match
            Db_mem.Agu_sim.run_to_completion ~max_cycles:(cycle_budget - !spent)
              agu
          with
          | _, c -> spent := !spent + c
          | exception Db_util.Error.Timeout { cycles; _ } ->
              Db_util.Error.timeout ~component:"simulator"
                ~cycles:(!spent + cycles) ~budget:cycle_budget)
        p.Compiler.transfers)
    design.Design.program.Compiler.programs;
  !spent

(* [Simulator.functional_output] on the generic engine: the quantized
   interpreter under the design's format and Approx-LUT evaluator. *)
let functional_output ?cycle_budget (design : Design.t) params ~inputs =
  Db_obs.Obs.with_span "simulate.functional" @@ fun () ->
  (match cycle_budget with
  | Some budget -> ignore (replay_control ~cycle_budget:budget design)
  | None -> ());
  let eval = Db_sim.Lut_eval.of_set design.Design.program.Compiler.luts in
  Db_nn.Quantized.output ~eval
    ~fmt:design.Design.datapath.Db_sched.Datapath.fmt design.Design.network
    params ~inputs
