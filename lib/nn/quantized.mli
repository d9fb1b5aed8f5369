(** Fixed-point forward propagation: the functional model of the generated
    accelerator's datapath.

    Every blob and weight is quantised to one Q-format; multiply-accumulate
    chains use a wide accumulator (as the DSP slices do) and rescale once
    per output.  Non-linear functions go through a pluggable evaluator so
    the simulator can substitute Approx-LUT interpolation for exact math;
    the default evaluator computes them exactly in float and requantises
    (zero LUT error). *)

type qtensor = { qshape : Db_tensor.Shape.t; qdata : int array }

type function_eval = {
  eval_activation : Layer.activation -> float -> float;
  eval_reciprocal : float -> float;
      (** used by average pooling (non power-of-two areas) and LRN *)
  eval_power : float -> float -> float;  (** LRN's x^beta *)
  eval_exp : float -> float;  (** softmax *)
}

val exact_eval : function_eval
(** Exact float evaluation of every non-linear function. *)

val quantize : Db_fixed.Fixed.format -> Db_tensor.Tensor.t -> qtensor

val dequantize : Db_fixed.Fixed.format -> qtensor -> Db_tensor.Tensor.t

val rescale_acc : Db_fixed.Fixed.format -> int -> int
(** Rescale a wide multiply-accumulate result ([frac*2] fractional bits)
    back to the working format: round-to-nearest, then saturate.  Exposed
    for the specialized simulation engine, whose precompiled kernels must
    rescale exactly as the generic ones do. *)

val qpool_into :
  Db_fixed.Fixed.format ->
  method_:Layer.pool_method ->
  input:qtensor ->
  kernel:int ->
  stride:int ->
  eval:function_eval ->
  out:int array ->
  qtensor option
(** Max / average pooling, the kernel {!eval_node} runs for [Pool],
    written into [out] (whatever it held before) and returned under the
    output shape.  [None] when [out] does not hold exactly the output's
    words; dimension errors are raised first, as the allocating kernel
    raises them. *)

val qlrn_into :
  Db_fixed.Fixed.format ->
  eval:function_eval ->
  input:qtensor ->
  local_size:int ->
  alpha:float ->
  beta:float ->
  k:float ->
  out:int array ->
  qtensor option
(** Cross-channel local response normalisation, the kernel {!eval_node}
    runs for [Lrn], written into [out] (whatever it held before) and
    returned under the input's shape.  [None] when [out] does not hold
    exactly the input's [channels x height x width] words. *)

val eval_node :
  Db_fixed.Fixed.format ->
  function_eval ->
  Layer.t ->
  params:qtensor list ->
  bottoms:qtensor list ->
  qtensor
(** Evaluate one non-input layer on already-quantised params and bottoms,
    then its fused activation, if any; training ops are rejected.  This is
    the per-node kernel behind {!qoutput}; the specialized engine
    delegates float-order-sensitive layers (LRN, softmax, recurrent, ...)
    to it verbatim so both engines stay bitwise identical. *)

val qoutput :
  ?eval:function_eval ->
  fmt:Db_fixed.Fixed.format ->
  Network.t ->
  Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  qtensor
(** Full fixed-point forward pass (weights quantised on entry) returning
    the stored words of the single output blob (class indices for a
    classifier head); raises a validation error unless the network has
    exactly one output blob. *)

val output :
  ?eval:function_eval ->
  fmt:Db_fixed.Fixed.format ->
  Network.t ->
  Params.t ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_tensor.Tensor.t
(** {!qoutput} dequantised, or converted to float class indices for a
    classifier output. *)
