(** The run-time control flow: an ordered fold sequence plus the
    coordinator FSM that reconnects producers to consumers at
    pre-determined beats (the paper's "dynamic control flow").

    The context buffer's pattern-trigger events are exactly the fold
    events; the coordinator advances one state per [fold_done] pulse. *)

type t = {
  net_name : string;
  datapath : Datapath.t;
  folds : Folding.fold list;
}

val build : Datapath.t -> Db_ir.Graph.t -> t

val coordinator_fsm : t -> Db_hdl.Fsm.t
(** One state per fold (plus [idle]); input [fold_done]; each transition
    pulses the fold's trigger event output. *)

val fold_count : t -> int

val events : t -> string list
(** All trigger events in execution order. *)

val reconfigurations : t -> int
(** Number of producer/consumer re-connections the connection box performs
    (= number of layer boundaries crossed during execution). *)

val pp : Format.formatter -> t -> unit
(** Compact textual schedule (folds collapsed per layer). *)
