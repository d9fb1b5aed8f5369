(** Reverse-mode gradients for the sequential (single-chain) subset of the
    IR op vocabulary: convolution, pooling, global pooling, fully-connected,
    activations, dropout (identity at inference) and softmax.

    This covers every model the paper trains by gradient descent (the three
    AxBench ANNs, MNIST, Cifar-scale CNNs); Hopfield and CMAC weights are
    set by Hebbian / delta rules in [db_workloads]. *)

type cache
(** Values memoised by the forward pass for use in backward. *)

val forward_op :
  op:Db_ir.Op.t ->
  params:Db_tensor.Tensor.t list ->
  input:Db_tensor.Tensor.t ->
  Db_tensor.Tensor.t * cache

val backward_layer :
  cache ->
  grad_output:Db_tensor.Tensor.t ->
  Db_tensor.Tensor.t option * Db_tensor.Tensor.t list
(** [backward_layer cache ~grad_output] is [(grad_input, grad_params)].
    [grad_input] is [None] for ops that cannot propagate (e.g.
    [Associative], whose inputs are data, never weights upstream).
    [grad_params] aligns with the op's parameter list. *)

val supported : Db_ir.Op.t -> bool
(** Whether this module can differentiate through the op. *)
