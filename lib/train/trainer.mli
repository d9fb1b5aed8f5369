(** Mini-batch SGD training of sequential networks.

    The network must be a single chain (every non-input node has exactly
    one bottom, which is the previous node's top); this covers the paper's
    gradient-trained models.  Weights are updated in place inside the
    {!Db_nn.Params.t} store. *)

type sample = { input : Db_tensor.Tensor.t; target : Db_tensor.Tensor.t }

type config = {
  epochs : int;
  batch_size : int;
  learning_rate : float;
  momentum : float;
  weight_decay : float;
  loss : Loss.t;
}

val default_config : config
(** 20 epochs, batch 16, lr 0.05, momentum 0.9, no decay, MSE. *)

type history = {
  losses : float array;  (** mean training loss per epoch *)
  final_loss : float;
}

val chain_of_graph : Db_ir.Graph.t -> Db_ir.Graph.node list
(** The trainable chain of an already-lowered graph: non-input nodes in
    order, validated sequential, every op backprop-supported.  Fails
    classified ([trainer]) otherwise. *)

val chain_of_network : Db_nn.Network.t -> Db_ir.Graph.node list
(** [chain_of_graph] of the network's verified {!Db_ir.Lower.lower}ing. *)

val train :
  ?config:config ->
  rng:Db_util.Rng.t ->
  Db_nn.Network.t ->
  Db_nn.Params.t ->
  sample array ->
  history
(** Raises {!Db_util.Error.Deepburning_error} if the network is not a
    supported sequential chain. *)

val mean_loss :
  loss:Loss.t -> Db_nn.Network.t -> Db_nn.Params.t -> sample array -> float

val classification_accuracy :
  Db_nn.Network.t -> Db_nn.Params.t -> (Db_tensor.Tensor.t * int) array -> float
(** Fraction of samples whose arg-max output equals the label. *)
