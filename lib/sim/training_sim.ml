module Design = Db_core.Design
module Datapath = Db_sched.Datapath

type iteration = {
  forward_cycles : int;
  backward_cycles : int;
  update_cycles : int;
  iteration_cycles : int;
  iteration_seconds : float;
  samples_per_second : float;
}

let div_ceil a b = (a + b - 1) / b

let iteration (design : Design.t) =
  let stats = Db_nn.Model_stats.compute design.Design.network in
  let dp = design.Design.datapath in
  let macs_rate = Datapath.macs_per_cycle dp in
  let forward_cycles =
    (Simulator.batch_timing ~batch:2 design).Simulator.batch_cycles / 2
  in
  (* Backward: the dX sweep and the dW sweep each revisit every forward MAC
     once; the activation-derivative pass costs one beat per activation. *)
  let backward_macs = 2 * stats.Db_nn.Model_stats.total_macs in
  let backward_aux =
    List.fold_left
      (fun acc (s : Db_nn.Model_stats.layer_stat) ->
        acc + s.Db_nn.Model_stats.other_ops)
      0 stats.Db_nn.Model_stats.per_layer
  in
  let backward_cycles =
    div_ceil backward_macs macs_rate
    + div_ceil backward_aux dp.Datapath.lanes
  in
  (* Update: read every weight, add the scaled gradient, write it back. *)
  let params = stats.Db_nn.Model_stats.total_params in
  let update_cycles =
    Perf_model.burst_cycles
      ~bytes:(2 * params * Db_fixed.Fixed.word_bytes dp.Datapath.fmt)
    + div_ceil params macs_rate
  in
  let iteration_cycles = forward_cycles + backward_cycles + update_cycles in
  let timing_model =
    Db_fpga.Timing.at_mhz design.Design.constraints.Db_core.Constraints.clock_mhz
  in
  let iteration_seconds =
    Db_fpga.Timing.cycles_to_seconds timing_model iteration_cycles
  in
  {
    forward_cycles;
    backward_cycles;
    update_cycles;
    iteration_cycles;
    iteration_seconds;
    samples_per_second = 1.0 /. iteration_seconds;
  }

