(** Per-fold cycle accounting: the one cost model of the simulators.

    The data-driven architecture overlaps the main AGU's DRAM traffic with
    the datapath's compute (double buffering), so a fold costs
    [max(compute, memory) + reconfiguration overhead].  Compute is bounded
    by three rates: the MAC lanes, the feature-buffer port and the
    weight-buffer port.  Every DRAM price is taken against the board's
    DDR3 model at the datapath format's word size
    ({!Db_fixed.Fixed.word_bytes}). *)

type fold_cycles = {
  fc_event : string;
  compute_cycles : int;
  memory_cycles : int;
  fold_cycles : int;  (** max of the two plus overhead *)
  dram_bytes : int;
}

val reconfiguration_overhead_cycles : int
(** Coordinator beats to rewire producers/consumers between folds. *)

val fold_cost : Db_sched.Datapath.t -> Db_core.Compiler.fold_program -> fold_cycles

val transfer_cycles : Db_sched.Datapath.t -> Db_core.Compiler.transfer -> int
(** DRAM cycles of one compiled transfer at its access locality. *)

val burst_cycles : bytes:int -> int
(** DRAM cycles of one fully sequential burst of [bytes] (activation
    spills, weight update sweeps); 0 for an empty burst. *)

val pipeline_fill_cycles : Db_sched.Datapath.t -> int
(** Lane pipeline depth paid once per fold. *)
