(** The run-time control flow: the ordered fold sequence as runs
    ({!Folding.graph_runs}, O(nodes) however many folds it stands for) plus
    the coordinator FSM that reconnects producers to consumers at
    pre-determined beats (the paper's "dynamic control flow").

    The inference schedule and the training phases ({!Train_schedule}) are
    the same run list.  The context buffer's pattern-trigger events are
    exactly the fold events; {!events} is the only per-fold expansion.
    The coordinator holds one counted state per run, which counts that
    run's [fold_done] pulses. *)

type t = {
  net_name : string;
  datapath : Datapath.t;
  runs : Folding.run list;
}

val build : Datapath.t -> Db_ir.Graph.t -> t

val coordinator_fsm : t -> Db_hdl.Fsm.t
(** The coordinator the generated RTL runs ({!Db_hdl.Fsm.chain}): [idle]
    plus one state per run, counted by the run's folds; input
    [fold_done].  Entering a run's state pulses output [ev_] plus the
    run's first fold event as an identifier ([ev_layer3_fold0]); the
    state's position is the fold within the run. *)

val fold_count : t -> int

val events : t -> string list
(** All trigger events in execution order. *)

val reconfigurations : t -> int
(** Number of producer/consumer re-connections the connection box performs
    (= number of layer boundaries crossed during execution). *)

val pp_totals : Format.formatter -> width:int -> string -> Folding.run list -> unit
(** One listing line: the label padded to [width], then the folds, MACs
    and other ops the runs stand for. *)

val pp : Format.formatter -> t -> unit
(** Compact textual schedule (folds collapsed per layer). *)
