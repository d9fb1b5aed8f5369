(** The operator vocabulary of the DeepBurning model family: one type for
    the frontend's layer graph ({!Network}) and the IR ([Db_ir.Op] is this
    module).

    Covers every layer class the paper names (Section 3.1-3.2): convolution,
    pooling, full connection, recurrent, associative (CMAC), LRN, drop-out,
    activation functions, classification (k-sorter) and inception-style
    concatenation.  [Backward]/[Sgd_update] exist only in training graphs;
    {!Network.create} rejects them. *)

type activation =
  | Relu
  | Sigmoid
  | Tanh
  | Sign  (** hard threshold, used by Hopfield networks *)

type pool_method = Max_pool | Avg_pool

(** What a backward op differentiates with respect to.  [Wrt_input]
    produces the upstream activation gradient (the BP datapath);
    [Wrt_params] produces the flattened weight/bias gradient vector the
    update unit consumes (the UP datapath's input). *)
type grad_wrt = Wrt_input | Wrt_params

type t =
  | Input of { shape : Db_tensor.Shape.t }
      (** Source of the network; produces the input blob. *)
  | Conv of {
      num_output : int;
      kernel_size : int;
      stride : int;
      pad : int;
      group : int;
      bias : bool;
    }
  | Pool of { method_ : pool_method; kernel_size : int; stride : int }
  | Global_pool of pool_method
      (** NiN-style whole-map pooling down to one value per channel. *)
  | Fc of { num_output : int; bias : bool }
      (** Full-connection (Caffe [INNER_PRODUCT]) layer. *)
  | Act of activation
  | Lrn of { local_size : int; alpha : float; beta : float; k : float }
  | Lcn of { window : int; epsilon : float }
      (** local contrast normalisation: subtract the spatial window mean
          and divide by the window's standard deviation (floored at
          [epsilon]), per channel.  The paper's "LRN/LCN layer" maps both
          onto the LRN unit. *)
  | Dropout of { ratio : float }
  | Softmax
  | Recurrent of { num_output : int; steps : int; bias : bool }
      (** Elman-style recurrence unrolled [steps] times:
          h <- tanh (w_in * x + w_rec * h + b), starting from h = 0.
          Hopfield networks map to this with symmetric [w_rec] (tanh
          saturates to the +-1 states), optionally followed by a {!Sign}
          activation to discretise. *)
  | Associative of { cells_per_dim : int; active_cells : int }
      (** CMAC tile-coding: quantises each input dimension into
          [cells_per_dim] cells and activates [active_cells] overlapping
          tilings; produces a sparse binary feature vector. *)
  | Concat  (** channel-wise concatenation of all bottoms (inception). *)
  | Classifier of { top_k : int }
      (** K-sorter classification layer: emits the indices of the [top_k]
          largest inputs, in decreasing order of value. *)
  | Backward of { fwd : t; wrt : grad_wrt }
      (** Training only, derived by [Db_ir.Lower.lower_training]: the
          gradient of [fwd].  Its inputs are [dY; ref], where [ref] is the
          cached forward tensor the kernel needs (the forward input for
          conv/FC/pool/relu, the forward output for sigmoid/tanh/softmax;
          both share the dX shape). *)
  | Sgd_update of { target : string }
      (** Training only: the SGD weight update of node [target]. *)

val name : t -> string
(** Upper-case class name, e.g. ["CONV"], ["BP_DX"]. *)

val activation_name : activation -> string

val is_training : t -> bool
(** [Backward] or [Sgd_update]. *)

val is_input : t -> bool

val is_classifier : t -> bool

val is_weighted : t -> bool
(** Whether the op owns trainable parameters. *)

val has_bias : t -> bool

val num_output : t -> int option

val window : t -> (int * int) option
(** Kernel size and stride of a sliding-window op (conv or pooling). *)

val expected_arity : t -> [ `Exactly of int | `At_least of int ]
(** Number of inputs (bottoms) the op consumes. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** e.g. [CONV(out=8 k=3 s=1 p=1 g=1)]. *)

val to_string : t -> string
