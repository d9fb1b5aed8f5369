(** Trainable-parameter store: maps layer-node names to their tensors.

    Conventions for the tensor list of a weighted layer:
    - [Conv]      : [weights (Cout, Cin/group, K, K)] then optional [bias (Cout)]
    - [Fc]        : [weights (Nout, Nin)] then optional [bias (Nout)]
    - [Recurrent] : [w_in (Nout, Nin)], [w_rec (Nout, Nout)], optional [bias (Nout)] *)

type t

val create : unit -> t

val set : t -> string -> Db_tensor.Tensor.t list -> unit

val get : t -> string -> Db_tensor.Tensor.t list
(** Returns [[]] for a layer without parameters. *)

val mem : t -> string -> bool

val expected_shapes :
  Layer.t -> bottom:Db_tensor.Shape.t -> Db_tensor.Shape.t list
(** Shapes the layer's parameter tensors must have given its bottom shape;
    [[]] for unweighted layers. *)

val init_xavier : Db_util.Rng.t -> Network.t -> t
(** Glorot-uniform initialisation of every weighted layer (biases zero). *)

val validate : Network.t -> t -> unit
(** Checks that every weighted node has tensors of the expected shapes.
    Raises {!Db_util.Error.Deepburning_error} otherwise. *)

val count_parameters : Network.t -> t -> int
(** Total scalar parameter count. *)

val iter : t -> (string -> Db_tensor.Tensor.t list -> unit) -> unit

val copy : t -> t
(** Deep copy (fresh tensor buffers). *)
