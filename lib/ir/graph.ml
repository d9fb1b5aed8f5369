(* The typed accelerator IR: a topologically ordered list of nodes whose
   attributes (shapes, parameter shapes, quantization format, costs) are
   computed once at lowering/annotation time.  Downstream consumers read
   these attributes instead of re-deriving them from the op. *)

module Shape = Db_tensor.Shape

type cost = {
  macs : int;
  other_ops : int;  (** comparisons, adds, LUT lookups — non-MAC work *)
  param_words : int;  (** weight footprint in datapath words *)
  input_words : int;  (** feature words consumed *)
  output_words : int;  (** feature words produced *)
}

let zero_cost =
  { macs = 0; other_ops = 0; param_words = 0; input_words = 0; output_words = 0 }

type node = {
  id : int;  (** position in topological order, 0-based *)
  node_name : string;
  op : Op.t;
  inputs : string list;  (** consumed blobs *)
  outputs : string list;  (** produced blobs *)
  in_shapes : Shape.t list;  (** one per input, same order *)
  out_shape : Shape.t;  (** every output blob carries this shape *)
  param_shapes : Shape.t list;  (** expected parameter tensors *)
  fmt : Db_fixed.Fixed.format option;  (** datapath quantization, when known *)
  cost : cost;
}

type t = { graph_name : string; nodes : node list }

let fail fmt = Db_util.Error.failf_at ~component:"ir" fmt

let find_node_opt t name = List.find_opt (fun n -> n.node_name = name) t.nodes

let find_node t name =
  match find_node_opt t name with
  | Some n -> n
  | None -> fail "graph %S has no node %S" t.graph_name name

let consumers t blob =
  List.filter (fun n -> List.mem blob n.inputs) t.nodes

let input_nodes t = List.filter (fun n -> Op.is_input n.op) t.nodes

(* Blobs produced but never consumed, in production order — mirrors
   [Db_nn.Network.output_blobs]. *)
let output_blobs t =
  let consumed = Hashtbl.create 16 in
  List.iter
    (fun node -> List.iter (fun b -> Hashtbl.replace consumed b ()) node.inputs)
    t.nodes;
  List.concat_map
    (fun node ->
      List.filter (fun top -> not (Hashtbl.mem consumed top)) node.outputs)
    t.nodes

let layer_count t =
  List.length (List.filter (fun n -> not (Op.is_input n.op)) t.nodes)

let iter t f = List.iter f t.nodes

let fold t ~init ~f = List.fold_left f init t.nodes

let has_op t pred = List.exists (fun n -> pred n.op) t.nodes

let total_macs t = fold t ~init:0 ~f:(fun acc n -> acc + n.cost.macs)

let total_params t = fold t ~init:0 ~f:(fun acc n -> acc + n.cost.param_words)
