(** Training-throughput model.

    The paper's "Why FPGA?" argument is that the generated accelerators
    are fast and power-efficient enough to accelerate the tedious
    train-and-select loop, whose cost is dominated by repeated forward and
    backward propagation.  This module prices one SGD iteration on a
    generated design:

    - forward: the simulator's pipelined steady-state cost;
    - backward: two MAC sweeps per weighted layer (dX and dW), executed on
      the same lanes with the same folding, plus the activation-derivative
      pass on the auxiliary units;
    - update: one read-modify-write sweep over the weights at the
      design's word size, priced as a sequential DRAM burst
      ({!Perf_model.burst_cycles}) plus one lane beat per parameter.

    Like the rest of the performance model this is timing-only; training
    numerics stay in float on the host (the paper trains off-board too —
    the accelerator's contribution is the propagation throughput). *)

type iteration = {
  forward_cycles : int;
  backward_cycles : int;
  update_cycles : int;
  iteration_cycles : int;
  iteration_seconds : float;
  samples_per_second : float;
}

val iteration : Db_core.Design.t -> iteration
(** One sample's forward + backward + update on the accelerator. *)

