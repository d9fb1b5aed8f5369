(** Per-design specialized simulation engine.

    [compile] partial-evaluates one generated design — the topologically
    sorted network, the folding plan's transfer schedule, and every AGU
    access pattern — into a flat trace: per-node kernel plans with
    resolved blob slots, and per-transfer closed-form [(words, cycles)]
    control steps ({!Db_mem.Access_pattern.word_count},
    {!Db_mem.Agu_sim.cycles_estimate}).  [bind] then pre-quantizes
    one parameter set against the trace, and [output] / [output_batch]
    replay it with tight integer kernels.

    The engine is bitwise-identical to the generic path
    ({!Db_nn.Quantized.output} plus the cycle-accurate AGU replay): same
    output tensors, same [sim.*] / [agu.*] counters, same exceptions at
    the same logical points, at any DEEPBURNING_JOBS.  Integer layers
    (convolution, full connection) run specialized unsafe-indexed kernels
    in their own summation order — sound because OCaml [int] arithmetic is
    modular, so every order yields the same word — activations of formats
    of at most 16 bits read a per-design table, and every other op
    (pooling, LRN, softmax, concat, ...) runs its one quantized kernel,
    {!Db_nn.Quantized.eval_node}.  Every node writes into a per-task slot
    arena sized at compile time; only {!qoutput} given the caller's own
    arena returns words that alias one. *)

type t
(** A compiled trace: everything derivable from the design alone. *)

type bound
(** A trace bound to one pre-quantized parameter set. *)

val compile : Db_core.Design.t -> t
(** Compile the design's trace in O(nodes + transfers): one control step
    per compiled transfer, its word and cycle counts taken from the
    pattern's closed forms, so no address stream is built.  A pattern that
    fails {!Db_mem.Access_pattern.validate} is recorded with the exception
    it raised and re-raised at replay time, where the generic engine hits
    it. *)

val of_design : Db_core.Design.t -> t
(** [compile] memoised per design via {!Db_core.Design_cache.Artifact}
    (identity-keyed; dropped by {!Db_core.Design_cache.clear}). *)

val qformat : t -> Db_fixed.Fixed.format
(** The design's working fixed-point format. *)

val lut_eval : t -> Db_nn.Quantized.function_eval
(** The design's Approx-LUT evaluator (the default for [output]). *)

val activation_table : t -> Db_nn.Layer.activation -> int array option
(** A copy of the words [compile] tabulated for one activation under the
    design's own LUT evaluator, indexed by [word - Fixed.min_value fmt];
    [None] when the activation is not tabulated (formats wider than 16
    bits, or no such activation in the network). *)

val control_cycles : t -> int
(** Closed-form control-path cycles of one healthy whole-trace replay. *)

val replay_control : cycle_budget:int -> t -> int
(** Replay the compiled control trace under the shared watchdog budget:
    identical cycles, [agu.*] counters, spans and {!Db_util.Error.Timeout}
    payloads to replaying every transfer on the cycle-accurate
    {!Db_mem.Agu_sim} machine, without clocking a single FSM step. *)

val conv_kernel :
  Db_fixed.Fixed.format ->
  input:Db_nn.Quantized.qtensor ->
  weights:Db_nn.Quantized.qtensor ->
  bias:Db_nn.Quantized.qtensor option ->
  stride:int ->
  pad:int ->
  group:int ->
  out:int array ->
  Db_nn.Quantized.qtensor option
(** The specialized convolution: tap-major over blocks of four output
    channels, split across the domain pool, written into [out] (whatever
    it held before).  [None] when the shapes fail its guard, which
    includes [out] not holding exactly the output's words (playback then
    runs the generic kernel, which raises the generic error); otherwise
    [out] under the output shape, holding the words the generic kernel
    computes, bit for bit.  Dimension errors
    ({!Db_tensor.Ops.conv_output_dim}) are raised in the generic kernel's
    order. *)

val bind : t -> Db_nn.Params.t -> bound
(** Quantize the parameter set once, up front.  Amortises the dominant
    per-call cost of the generic engine (re-quantizing every weight on
    every forward pass) across all subsequent playbacks. *)

val spec : bound -> t

val node_qparams : bound -> node:string -> Db_nn.Quantized.qtensor list
(** The bound's live pre-quantized parameter tensors of one node, not a
    copy: a word written into one is what every later playback of this
    bound reads.  Fault injection flips stored words through them on a
    private bound and writes the old words back.  Raises a
    simulator-component error for an unknown node name. *)

val with_node_params :
  bound -> node:string -> Db_nn.Quantized.qtensor list -> bound
(** A bound trace sharing everything but one node's parameter tensors —
    O(nodes) copy, no re-quantization.  Raises a simulator-component error
    for an unknown node name. *)

val output :
  ?eval:Db_nn.Quantized.function_eval ->
  bound ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_tensor.Tensor.t
(** One forward pass over the bound trace; bitwise-identical to
    {!Db_nn.Quantized.output} with the design's format and LUT evaluator.
    [?eval] overrides the evaluator (LUT fault injection).  The result is
    a fresh tensor. *)

type arena
(** One slot buffer per node of a trace, reused by every pass replayed
    through it.  An arena belongs to one domain at a time. *)

val new_arena : t -> arena

val qoutput :
  ?eval:Db_nn.Quantized.function_eval ->
  ?arena:arena ->
  bound ->
  inputs:(string * Db_tensor.Tensor.t) list ->
  Db_nn.Quantized.qtensor
(** The raw quantized output blob (before dequantisation / classifier
    index conversion).  Without [?arena], each call replays through an
    arena of its own, so the caller owns the returned words: later calls
    never overwrite them.  Given an arena (of this bound's trace), the
    pass allocates no slot buffers and the result may alias the arena: it
    is valid only until the next pass through the same arena. *)

val output_batch :
  ?eval:Db_nn.Quantized.function_eval ->
  bound ->
  batch:(string * Db_tensor.Tensor.t) list list ->
  Db_tensor.Tensor.t list
(** [output] over every sample: the batch is cut into one contiguous chunk
    per pool domain, each replayed through one arena, so the per-sample
    intermediate blobs of the fast kernels are allocated once per chunk.
    Order preserved; every returned tensor is fresh and unaliased;
    bitwise-identical to the sequential loop at any DEEPBURNING_JOBS. *)
