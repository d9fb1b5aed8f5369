(** Temporal and spatial folding (Section 3.3).

    Temporal folding: successive layers reuse the same physical building
    blocks, so the schedule is a sequence of layer executions.  Spatial
    folding: a layer whose output parallelism exceeds the datapath's lane
    count is cut into segments ("folds") that occupy the lanes one after
    another.  Each fold carries the work and traffic quantities the
    simulator and the AGU generator need, plus the paper-style trigger
    event name ([layer0-fold0]).

    Folding consumes the typed IR ([Db_ir]): shapes come from the node
    attributes computed at lowering time, not from a fresh shape-inference
    run. *)

type fold = {
  fold_layer : string;  (** node name *)
  layer_index : int;  (** position among compute layers *)
  fold_index : int;
  total_folds : int;
  lanes_used : int;  (** lanes active in this fold *)
  macs : int;  (** multiply-accumulates executed in this fold *)
  other_ops : int;  (** comparator / LUT / shift operations *)
  feature_words : int;  (** feature words streamed from the feature buffer *)
  weight_words : int;  (** weight words streamed from the weight buffer *)
  output_words : int;
  event : string;
}

type run = { fold : fold; count : int }
(** [count] consecutive folds of one node that differ from [fold], the
    first of them, only in [fold_index] and [event].  A layer folds into at
    most two runs (its full folds, then the narrower tail; a recurrent
    layer repeats the pair per step), so a run list is O(nodes) however
    many folds it stands for. *)

val fold_op_plan :
  Datapath.t ->
  Db_ir.Op.t ->
  bottoms:Db_tensor.Shape.t list ->
  output:Db_tensor.Shape.t ->
  node_name:string ->
  layer_index:int ->
  run list
(** Folds of one IR op, as runs.  Input/weight traffic is counted per
    fold: a fold re-reads the features it needs, weights are visited
    exactly once across the folds of a layer. *)

val nth_fold : run -> int -> fold
(** Fold [k] (from 0) of a run. *)

val run_folds : run -> fold list
(** Every fold of a run, in order. *)

val graph_runs : Datapath.t -> Db_ir.Graph.t -> run list
(** Runs of every compute node, in topological execution order. *)

val by_layer : ('a -> fold) -> 'a list -> (string * 'a list) list
(** Split a list in execution order (runs, or anything carrying a fold)
    at every change of [fold_layer].  A node's folds are consecutive, so
    each group is one layer's, in order. *)

val total : (fold -> int) -> run list -> int
(** [total f runs] sums [f] over every fold the runs stand for: each run's
    first fold, times its count.  [f] must read only what a run's folds
    share (not [fold_index] or [event]). *)

val total_macs : run list -> int
