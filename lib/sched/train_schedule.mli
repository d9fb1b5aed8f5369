(** The three-phase FF→BP→UP training schedule over a training-lowered
    graph ([Db_ir.Lower.lower_training]).

    The training graph's schedule ({!Schedule.build}) is partitioned, run
    by run, into the feed-forward (FF), back-propagation (BP) and
    weight-update (UP) phases; a phase-level FSM sequences the three
    processor sets that share the weight memories, while each phase
    internally runs the ordinary run-level coordinator.  The phase FSM and
    the coordinator are the same {!Db_hdl.Fsm.chain}. *)

type phase = Ff | Bp | Up

val phase_name : phase -> string

val node_phase : Db_ir.Graph.node -> phase
(** [Sgd_update] → UP, [Backward] → BP, everything else → FF. *)

type t = {
  net_name : string;  (** the training graph's name *)
  ff : Folding.run list;
  bp : Folding.run list;
  up : Folding.run list;
}

val build : Datapath.t -> Db_ir.Graph.t -> t
(** Fails ([train-sched]) when phases interleave or the graph has no
    backward folds (i.e. is not training-lowered). *)

val phase_runs : t -> phase -> Folding.run list

val phase_fsm : t -> Db_hdl.Fsm.t
(** One state per non-empty phase (plus [idle]); input [phase_done]; each
    state asserts its processor-set enable ([en_ff]/[en_bp]/[en_up]). *)

val pp : Format.formatter -> t -> unit
