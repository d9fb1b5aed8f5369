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

val eval_node :
  Db_fixed.Fixed.format ->
  function_eval ->
  Layer.t ->
  params:qtensor list ->
  bottoms:qtensor list ->
  out:int array ->
  qtensor
(** Evaluate one non-input forward layer on already-quantised params and
    bottoms: the one quantized kernel of each op, behind {!qoutput}, the
    specialized engine's arena slots and the training simulator's forward
    pass.  When [out] holds exactly the output's words, every one of them
    is overwritten (whatever [out] held before) and the result's [qdata]
    is [out]; otherwise the words go to a fresh array, so a caller that
    owns no slot passes [[||]].  Training ops raise a
    [quantized]-component error. *)

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
