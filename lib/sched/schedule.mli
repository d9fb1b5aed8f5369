(** The run-time control flow: the ordered fold sequence as runs
    ({!Folding.graph_runs}, O(nodes) however many folds it stands for) plus
    the coordinator FSM that reconnects producers to consumers at
    pre-determined beats (the paper's "dynamic control flow").

    The inference schedule and the training phases ({!Train_schedule}) are
    the same run list.  The context buffer's pattern-trigger events are
    exactly the fold events; the coordinator advances one state per
    [fold_done] pulse, so it and {!events} are the only per-fold
    expansions. *)

type t = {
  net_name : string;
  datapath : Datapath.t;
  runs : Folding.run list;
}

val build : Datapath.t -> Db_ir.Graph.t -> t

val coordinator_fsm : t -> Db_hdl.Fsm.t
(** One state per fold (plus [idle]); input [fold_done]; each transition
    pulses the fold's trigger event output ({!Db_hdl.Fsm.chain}). *)

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
