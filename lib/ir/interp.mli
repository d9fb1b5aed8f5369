(** Floating-point execution of an IR graph: the golden reference the
    paper's accuracy experiment compares the accelerators against ("the
    original software neural networks executed on CPU").

    Every op is evaluated on [Op.t] directly, over the same lowered graph
    that generation consumes. *)

val eval_op :
  Op.t ->
  params:Db_tensor.Tensor.t list ->
  bottoms:Db_tensor.Tensor.t list ->
  Db_tensor.Tensor.t
(** One op's semantics.  Raises
    {!Db_util.Error.Deepburning_error} on an [Input] op, a training op
    ([Backward]/[Sgd_update]) or a parameter list the op does not
    expect. *)

val forward :
  Graph.t ->
  Db_nn.Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  (string * Db_tensor.Tensor.t) list
(** [forward g params ~inputs] runs the whole graph and returns every
    produced blob in production order.  [inputs] maps each input node's
    output blob to its tensor.  Raises {!Db_util.Error.Deepburning_error}
    on a missing input or shape mismatch. *)

val output :
  Graph.t ->
  Db_nn.Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_tensor.Tensor.t
(** The tensor of the graph's single output blob.  Fails if the graph has
    several outputs. *)
