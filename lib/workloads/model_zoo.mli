(** The model zoo: every network the paper mentions, written as
    Caffe-compatible descriptive scripts (so the whole flow — parser,
    importer, generator — is exercised for each) plus builders.

    Covers Table 1's decomposition set (MLP, Hopfield, CMAC, AlexNet,
    MNIST, a GoogleNet-style inception net) and Table 2's benchmark set
    (ANN-0/1/2, AlexNet, NiN, Cifar, CMAC, Hopfield, MNIST). *)

val ann_prototxt :
  name:string -> inputs:int -> hidden1:int -> hidden2:int -> outputs:int -> string
(** A 4-layer ANN (two sigmoid hidden layers) as used for the AxBench
    approximators. *)

val mlp_prototxt : string
(** The basic 3-layer MLP of Table 1. *)

val cmac_prototxt : string
(** Tile-coding associative layer, a recurrent smoothing layer and a
    sigmoid output head for the 2-link-arm controller. *)

val cmac_surrogate_prototxt : string
(** The trainable stand-in for {!cmac_prototxt}: the recurrent layer
    replaced by FC+tanh (identical function when the recurrent feedback
    weights are zero); used to fit the weights, which are then
    transplanted. *)

val mnist_prototxt : string
(** The 5-layer MNIST CNN (conv/pool/LRN/conv/pool/FC + softmax) on
    16x16 synthetic glyphs. *)

val cifar_prototxt : string
(** Caffe cifar10_quick-style CNN at the full 3x32x32 input. *)

val cifar_lite_prototxt : string
(** Same layer classes at 3x16x16 — small enough to train in-process. *)

val alexnet_prototxt : string
(** Full AlexNet (227x227, grouped conv2/4/5, LRN, dropout, 1000-way). *)

val nin_prototxt : string
(** Network-in-Network (ImageNet variant: mlpconv stacks + global average
    pooling). *)

val googlenet_like_prototxt : string
(** A compact inception-style network (three parallel conv branches +
    channel concat) standing in for GoogleNet in Table 1. *)

val lenet5_prototxt : string
(** The classic LeNet-5 (1x32x32, tanh, average pooling) — the paper's
    introduction cites it as one of the networks prior FPGA work targets. *)

val vgg16_prototxt : string
(** VGG-16 at 3x224x224: a post-paper deep CNN exercising the generator at
    15.5 GMAC scale (no new layer classes needed — the point of the
    component library). *)

val hopfield_prototxt : cities:int -> string
(** The Hopfield TSP network's script form (weights are built
    programmatically by {!Hopfield.build}). *)

val build : string -> Db_nn.Network.t
(** Import a prototxt string (thin wrapper over {!Db_nn.Caffe}). *)

val named : (string * string) list
(** The twelve models the CLI serves by name ([zoo list], [ir], [lint
    --zoo], ...) with their prototxt sources, in the order the CI gates
    enumerate them. *)

val table1_models : (string * Db_nn.Network.t) list
(** Name/network pairs in the column order of Table 1. *)
