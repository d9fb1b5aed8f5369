(** Cycle-accurate and bit-exact replay of one on-chip SGD step.

    The cycle half prices the training-lowered graph's folds through the
    same compiler and cost model as the inference simulator, grouped by
    FF/BP/UP phase, plus the {!Db_mem.Act_cache} spill traffic as one
    sequential burst ({!Perf_model.burst_cycles}).  The functional half runs
    quantized SGD with the update-unit arithmetic, consuming the RNG
    exactly as {!Db_train.Trainer.train} does so the hardware and
    software loss trajectories are directly comparable. *)

type phase_cycles = {
  pc_phase : Db_sched.Train_schedule.phase;
  pc_cycles : int;
  pc_compute_cycles : int;
  pc_memory_cycles : int;
  pc_dram_bytes : int;
  pc_folds : int;
}

type cycle_report = {
  ff : phase_cycles;
  bp : phase_cycles;
  up : phase_cycles;
  spill_cycles : int;  (** inter-phase activation spill traffic *)
  spill_bytes : int;
  step_cycles : int;  (** one full FF→BP→UP SGD step *)
}

val compile_trace : Db_core.Train_builder.t -> cycle_report
(** Compile the training graph's AGU programs and price every fold with
    {!Perf_model.fold_cost}; [step_cycles] is the phases' sum plus the
    spill burst. *)

val steps_per_second :
  Db_core.Train_builder.t -> cycle_report -> float
(** Hardware SGD steps per second at the design's clock. *)

val pp_cycles : Format.formatter -> cycle_report -> unit

type injection =
  | Grad_bit_flip of { node : string; word : int; bit : int }
      (** flip one bit of the named layer's batch-gradient accumulator
          just before the UP phase reads it *)
  | Update_freeze of { node : string }
      (** the named layer's update FSM stalls: its SGD update never
          commits this run (gradients are still drained each batch) *)

val train :
  ?config:Db_train.Trainer.config ->
  ?eval:Db_nn.Quantized.function_eval ->
  ?inject:injection list ->
  rng:Db_util.Rng.t ->
  Db_core.Train_builder.t ->
  Db_nn.Params.t ->
  Db_train.Trainer.sample array ->
  Db_train.Trainer.history
(** Quantized on-chip SGD: forward through {!Db_nn.Quantized.eval_node},
    integer backward kernels, update-unit arithmetic, wide batch-gradient
    accumulators.  Mirrors [Trainer.train]'s shuffle and batch walk on
    the same RNG; updates [params] in place (dequantized) on return.
    Fails classified ([train-sim]) on backward ops the functional engine
    does not yet model (conv/pool/LRN chains). *)
