(** Network graphs in the Caffe blob/layer style.

    A network is a list of named layer nodes; each node consumes the blobs
    named in [bottoms] and produces the blobs named in [tops].  The graph
    must be a DAG over blobs (recurrence is internal to the
    {!Layer.Recurrent} node, mirroring the paper's [connect { direction:
    recurrent }] construct, which loops a blob back into the same layer). *)

type node = {
  node_name : string;
  layer : Layer.t;
  bottoms : string list;
  tops : string list;
}

type t = private {
  net_name : string;
  nodes : node list;  (** in topological order after {!create} *)
}

val create : name:string -> node list -> t
(** Validates and topologically sorts the nodes.  Checks performed:
    unique node names and top names, every bottom produced by some top or by
    an input node, at least one {!Layer.Input}, arity of bottoms per layer
    class (e.g. [Concat] needs >= 2, everything else exactly 1, inputs 0),
    acyclicity, and no training ops (only training lowering derives
    those).  Raises
    {!Db_util.Error.Deepburning_error} otherwise. *)

val find_node : t -> string -> node
(** Raises [Not_found]. *)

val input_nodes : t -> node list

val first_input : t -> string * Db_tensor.Shape.t
(** Blob name and shape of the first input node: what a single-input
    benchmark feeds.  Raises a classified [network] error when there is
    none. *)

val output_blobs : t -> string list
(** Blobs produced but never consumed, in node order. *)

val layer_count : t -> int
(** Number of non-input nodes. *)

val classifier_output : t -> bool
(** Whether the network's output is a class-index vector: its last node is
    a {!Layer.Classifier}.  Such outputs carry integer indices, not
    Q-format values. *)

val iter : t -> (node -> unit) -> unit

val fold : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val has_layer : t -> (Layer.t -> bool) -> bool

val pp : Format.formatter -> t -> unit
