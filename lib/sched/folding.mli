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

val fold_op_plan :
  Datapath.t ->
  Db_ir.Op.t ->
  bottoms:Db_tensor.Shape.t list ->
  output:Db_tensor.Shape.t ->
  node_name:string ->
  layer_index:int ->
  fold list
(** Folds of one IR op.  Input/weight traffic is counted per fold: a fold
    re-reads the features it needs, weights are visited exactly once
    across the folds of a layer. *)

val fold_graph : Datapath.t -> Db_ir.Graph.t -> fold list
(** Folds of every compute node, in topological execution order. *)

val total_macs : fold list -> int

val max_weight_working_set : fold list -> int
(** Largest per-fold weight word count (what the weight buffer must hold). *)

val max_feature_working_set : fold list -> int
