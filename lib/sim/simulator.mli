(** Cycle-level simulation of a generated accelerator.

    Timing follows the compiled fold programs through the one cost model,
    {!Perf_model}; function follows the fixed-point interpreter with the design's
    Approx LUTs substituted for the exact non-linear functions — the same
    arithmetic the datapath performs, so the output is what the board
    would produce. *)

type layer_report = {
  lr_layer : string;
  lr_cycles : int;
  lr_compute_cycles : int;
  lr_memory_cycles : int;
  lr_macs : int;
  lr_dram_bytes : int;
  lr_folds : int;
  lr_energy_j : float;
      (** board energy attributed to this layer (its share of the run time
          at the design's power) *)
}

type report = {
  design_name : string;
  total_cycles : int;
  seconds : float;
  per_layer : layer_report list;
  dram_bytes : int;
  power : Db_fpga.Power.t;
  energy_j : float;
  macs : int;
  effective_gmacs : float;  (** achieved GMAC/s *)
}

val timing : Db_core.Design.t -> report
(** One forward propagation's latency and energy, every fold priced by
    {!Perf_model.fold_cost}.  Memoised per design. *)

type batch_report = {
  batch : int;
  batch_cycles : int;
  batch_seconds : float;
  images_per_second : float;
  speedup_over_serial : float;
      (** pipelined batch vs [batch] independent single-image passes *)
}

val batch_timing : batch:int -> Db_core.Design.t -> batch_report
(** Back-to-back processing of [batch] inputs with double-buffered DRAM
    traffic: after the first image fills the pipeline, the steady-state
    per-image cost is bounded by whichever aggregate dominates — total
    compute beats or total memory beats — instead of their per-fold max.
    This is the training/inference *throughput* mode the paper's intro
    motivates (repeated forward passes over an input set).  A layer whose
    weights fit the weight buffer stays resident across images: its folds
    are re-priced without their weight stream, transfer by transfer
    ({!Perf_model.transfer_cycles}). *)

val replay_control : cycle_budget:int -> Db_core.Design.t -> int
(** Replay every compiled AGU transfer under one shared cycle budget;
    returns the control cycles spent.  Raises {!Db_util.Error.Timeout}
    when the budget elapses first — the watchdog that turns a corrupted
    FSM or AGU configuration register (which would hang real fabric) into
    a structured, catchable failure.  Runs on the design's compiled trace
    ({!Specialize}); cycles, counters and timeout payloads are identical
    to clocking every transfer on the cycle-accurate {!Db_mem.Agu_sim}
    machine, the oracle the spec-equivalence tests pin it to. *)

val functional_output :
  ?cycle_budget:int ->
  Db_core.Design.t ->
  Db_nn.Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_tensor.Tensor.t
(** The accelerator's output tensor (fixed point + Approx LUTs,
    dequantised).  When [cycle_budget] is given, the control path is
    replayed first under {!replay_control}'s watchdog, so a design whose
    control state was corrupted raises {!Db_util.Error.Timeout} instead of
    looping forever.  Runs on the specialized engine; bitwise-identical to
    the generic one ({!Db_nn.Quantized.output} with the design's LUTs),
    the oracle it is property-tested against. *)

val functional_output_batch :
  ?cycle_budget:int ->
  Db_core.Design.t ->
  Db_nn.Params.t ->
  batch:(string * Db_tensor.Tensor.t) list list ->
  Db_tensor.Tensor.t list
(** Batched multi-sample playback: the trace is compiled and the
    parameters quantized once, then every sample replays over the bound
    trace (fanned out across the domain pool, order preserved).  Each
    result is bitwise-identical to the corresponding {!functional_output}
    call; the optional watchdog replay runs once for the whole batch (the
    control path is input-independent). *)

val run :
  ?cycle_budget:int ->
  Db_core.Design.t ->
  Db_nn.Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_tensor.Tensor.t * report
(** [functional_output] (with the same optional watchdog) plus [timing]. *)

val pp_report : Format.formatter -> report -> unit

val testbench :
  Db_core.Design.t ->
  Db_nn.Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  string
(** A self-checking Verilog testbench for the design's top module
    ({!Db_hdl.Testbench}): stimulus is the quantised input and weight
    words in DRAM-layout order, expectations are the accelerator's output
    words from this simulator's functional run, and the watchdog is set
    from the timing model.  A user with a real RTL simulator can replay
    our verification, as the paper does with Vivado.  Raises a
    [quantized] validation error unless the network has exactly one
    output blob: a bench with nothing to check is never emitted. *)
