(** Static model statistics: operation counts, parameter counts and the
    layer-class decomposition used by Table 1 of the paper. *)

type layer_stat = {
  stat_node : string;
  stat_layer : Layer.t;
  macs : int;  (** multiply-accumulate operations of one forward pass *)
  other_ops : int;  (** comparisons, divisions, exponentials, ... *)
  param_count : int;
}

type t = {
  per_layer : layer_stat list;
  total_macs : int;
  total_params : int;
}

val layer_costs :
  Layer.t ->
  bottoms:Db_tensor.Shape.t list ->
  output:Db_tensor.Shape.t ->
  int * int
(** [(macs, other_ops)] of one forward pass of a single layer, given its
    bottom and output shapes.  The single source of the per-layer cost
    formulas; [Db_ir] node annotation reuses it. *)

val compute : Network.t -> t

type decomposition = {
  has_conv : bool;
  has_fc : bool;
  has_act : bool;
  has_dropout : bool;
  has_lrn : bool;
  has_pooling : bool;
  has_associative : bool;
  has_recurrent : bool;
}
(** One row of Table 1. *)

val decompose : Network.t -> decomposition

val pp : Format.formatter -> t -> unit
