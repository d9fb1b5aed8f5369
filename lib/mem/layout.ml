module Shape = Db_tensor.Shape
module Op = Db_ir.Op
module Graph = Db_ir.Graph

type entry = {
  entry_name : string;
  base : int;
  words : int;
  tile_plan : Tiling.plan option;
}

type t = {
  entries : entry list;
  total_words : int;
  bytes_per_word : int;
  port_width : int;
}

(* The tile plan of a blob follows its consumer: the first node that reads
   it decides — if it is a sliding-window op (convolution or pooling), the
   blob gets the Method-1 plan for that op's kernel/stride. *)
let consumer_plan (g : Graph.t) ~port_width blob shape =
  if Shape.rank shape <> 3 then None
  else begin
    let consumer =
      List.find_opt (fun node -> List.mem blob node.Graph.inputs) g.Graph.nodes
    in
    match consumer with
    | Some node -> begin
        match node.Graph.op with
        | Op.Conv _ | Op.Pool _ -> begin
            match Op.window node.Graph.op with
            | Some (kernel, stride) ->
                Some
                  (Tiling.decide
                     {
                       Tiling.kernel;
                       stride;
                       port_width;
                       map_count = Shape.channels shape;
                     })
            | None -> None
          end
        | _ -> None
      end
    | None -> None
  end

let build ~bytes_per_word ~port_width (g : Graph.t) =
  let next = ref 0 in
  let entries = ref [] in
  let alloc name words tile_plan =
    let e = { entry_name = name; base = !next; words; tile_plan } in
    next := !next + words;
    entries := e :: !entries
  in
  (* Feature blobs in production order. *)
  Graph.iter g (fun node ->
      List.iter
        (fun top ->
          alloc ("feature:" ^ top)
            (Shape.numel node.Graph.out_shape)
            (consumer_plan g ~port_width top node.Graph.out_shape))
        node.Graph.outputs);
  (* Weight tensors, per node, following the annotated parameter shapes. *)
  Graph.iter g (fun node ->
      List.iteri
        (fun i shape ->
          alloc
            (Printf.sprintf "weights:%s:%d" node.Graph.node_name i)
            (Shape.numel shape) None)
        node.Graph.param_shapes);
  {
    entries = List.rev !entries;
    total_words = !next;
    bytes_per_word;
    port_width;
  }

let find t name = List.find (fun e -> e.entry_name = name) t.entries

let feature_entry t ~blob = find t ("feature:" ^ blob)

let weight_entries t ~node =
  let prefix = "weights:" ^ node ^ ":" in
  List.filter
    (fun e ->
      String.length e.entry_name > String.length prefix
      && String.sub e.entry_name 0 (String.length prefix) = prefix)
    t.entries

let total_bytes t = t.total_words * t.bytes_per_word

let pp fmt t =
  Format.fprintf fmt "layout (%d words, %d B/word):@." t.total_words
    t.bytes_per_word;
  List.iter
    (fun e ->
      Format.fprintf fmt "  %-32s @%-10d %8d words%s@." e.entry_name e.base
        e.words
        (match e.tile_plan with
        | None -> ""
        | Some p -> Printf.sprintf "  tiled %dx%d" p.Tiling.tile p.Tiling.tile))
    t.entries
