(** Floating-point neural-network kernels.

    These are the golden reference semantics for every layer type that the
    generator supports; the fixed-point interpreter and the accelerator
    simulator are validated against them. *)

type padding = { top : int; left : int; bottom : int; right : int }

val no_padding : padding

val symmetric_padding : int -> padding

val conv_output_dim : input:int -> kernel:int -> stride:int -> pad_lo:int -> pad_hi:int -> int
(** Output spatial extent of a convolution/pooling window sweep. *)

val conv2d :
  input:Tensor.t ->
  weights:Tensor.t ->
  bias:Tensor.t option ->
  stride:int ->
  padding:padding ->
  group:int ->
  Tensor.t
(** [conv2d ~input ~weights ~bias ~stride ~padding ~group] with
    [input : (Cin, H, W)], [weights : (Cout, Cin/group, K, K)] and
    [bias : (Cout)].  Channels are split into [group] independent groups as
    in Caffe/Alexnet.  Raises [Invalid_argument] on inconsistent shapes.

    Implemented as im2col + a cache-blocked GEMM running on the
    {!Db_parallel.Pool}; accumulation order per output element matches
    {!conv2d_naive}, so the two agree to within floating-point noise. *)

val conv2d_naive :
  input:Tensor.t ->
  weights:Tensor.t ->
  bias:Tensor.t option ->
  stride:int ->
  padding:padding ->
  group:int ->
  Tensor.t
(** Reference convolution: the original 7-deep scalar loop nest.  Kept as
    the oracle for the GEMM path's equivalence tests. *)

val max_pool : input:Tensor.t -> kernel:int -> stride:int -> Tensor.t

val avg_pool : input:Tensor.t -> kernel:int -> stride:int -> Tensor.t

val global_avg_pool : input:Tensor.t -> Tensor.t
(** Collapses each channel of a CHW tensor to one value. *)

val fully_connected : input:Tensor.t -> weights:Tensor.t -> bias:Tensor.t option -> Tensor.t
(** [weights : (Nout, Nin)], [input] flattened to [Nin]. *)

val relu : Tensor.t -> Tensor.t

val sigmoid : Tensor.t -> Tensor.t

val tanh_act : Tensor.t -> Tensor.t

val softmax : Tensor.t -> Tensor.t
(** Numerically stabilised. *)

val lrn :
  input:Tensor.t -> local_size:int -> alpha:float -> beta:float -> k:float -> Tensor.t
(** Across-channel local response normalisation (AlexNet-style). *)

val dropout_inference : ratio:float -> Tensor.t -> Tensor.t
(** Inference-time dropout: identity (Caffe scales at train time). [ratio]
    is retained for interface symmetry and validated to be in [\[0,1)]. *)

val concat_channels : Tensor.t list -> Tensor.t
(** Concatenates CHW tensors along the channel axis (inception-style).
    All spatial extents must agree. *)

val flatten : Tensor.t -> Tensor.t
(** Rank-1 view of the same data. *)

val lcn : window:int -> epsilon:float -> Tensor.t -> Tensor.t
(** Local contrast normalisation: per channel, subtract the spatial
    [window] mean and divide by the window standard deviation floored at
    [epsilon]. *)

val recurrent_forward :
  w_in:Tensor.t ->
  w_rec:Tensor.t ->
  bias:Tensor.t option ->
  steps:int ->
  Tensor.t ->
  Tensor.t
(** [steps] iterations of [s <- tanh (w_in x + b + w_rec s)] from a zero
    state; the input is flattened by the caller. *)

val associative_encode :
  cells_per_dim:int -> active_cells:int -> Tensor.t -> Tensor.t
(** CMAC tile-coding used by associative layers: each input dimension is
    clamped to [0,1], quantised into [cells_per_dim] cells, and the
    [active_cells] cells centred on the hit are set to [1/active_cells]
    (clipped at the edges). *)

val classify_top_k : top_k:int -> Tensor.t -> Tensor.t
(** Indices of the [top_k] largest values, largest first, as floats; the
    lowest index wins ties.  Fails when [top_k] exceeds the input size. *)
