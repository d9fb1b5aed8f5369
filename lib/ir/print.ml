(* Deterministic renderings of an IR graph: an aligned textual listing
   (used by `deepburning ir` and the golden-dump tests, and as the
   design-cache key) and a stable JSON form.  Both depend only on graph
   content — no timestamps, hashes or host state. *)

module Shape = Db_tensor.Shape

let fmt_suffix = function
  | Some f ->
      Printf.sprintf " q%d.%d" f.Db_fixed.Fixed.total_bits
        f.Db_fixed.Fixed.frac_bits
  | None -> ""

let pp fmt (g : Graph.t) =
  Format.fprintf fmt "graph %S (%d nodes)@." g.Graph.graph_name
    (List.length g.Graph.nodes);
  List.iter
    (fun (n : Graph.node) ->
      Format.fprintf fmt "  n%-3d %-14s %-36s [%s] -> [%s]  macs=%d ops=%d params=%d in=%d out=%d%s@."
        n.Graph.id n.Graph.node_name
        (Op.to_string n.Graph.op)
        (String.concat ", " n.Graph.inputs)
        (String.concat ", "
           (List.map
              (fun top -> top ^ ":" ^ Shape.to_string n.Graph.out_shape)
              n.Graph.outputs))
        n.Graph.cost.Graph.macs n.Graph.cost.Graph.other_ops
        n.Graph.cost.Graph.param_words n.Graph.cost.Graph.input_words
        n.Graph.cost.Graph.output_words
        (fmt_suffix n.Graph.fmt))
    g.Graph.nodes;
  Format.fprintf fmt "  outputs: [%s]@."
    (String.concat ", " (Graph.output_blobs g))

let to_string g = Format.asprintf "%a" pp g

let json_string s = "\"" ^ Db_util.Minijson.escape s ^ "\""

let json_string_list l = "[" ^ String.concat "," (List.map json_string l) ^ "]"

let json_shape s =
  "["
  ^ String.concat "," (List.map string_of_int (Shape.to_list s))
  ^ "]"

let node_to_json (n : Graph.node) =
  let fields =
    [
      ("id", string_of_int n.Graph.id);
      ("name", json_string n.Graph.node_name);
      ("op", json_string (Op.to_string n.Graph.op));
      ("kind", json_string (Op.name n.Graph.op));
      ("inputs", json_string_list n.Graph.inputs);
      ("outputs", json_string_list n.Graph.outputs);
      ( "in_shapes",
        "[" ^ String.concat "," (List.map json_shape n.Graph.in_shapes) ^ "]" );
      ("out_shape", json_shape n.Graph.out_shape);
      ( "param_shapes",
        "[" ^ String.concat "," (List.map json_shape n.Graph.param_shapes) ^ "]"
      );
      ("macs", string_of_int n.Graph.cost.Graph.macs);
      ("other_ops", string_of_int n.Graph.cost.Graph.other_ops);
      ("param_words", string_of_int n.Graph.cost.Graph.param_words);
      ("input_words", string_of_int n.Graph.cost.Graph.input_words);
      ("output_words", string_of_int n.Graph.cost.Graph.output_words);
    ]
    @
    match n.Graph.fmt with
    | Some f ->
        [
          ( "format",
            Printf.sprintf "{\"total_bits\":%d,\"frac_bits\":%d}"
              f.Db_fixed.Fixed.total_bits f.Db_fixed.Fixed.frac_bits );
        ]
    | None -> []
  in
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}"

let to_json (g : Graph.t) =
  Printf.sprintf "{\"name\":%s,\"nodes\":[%s],\"outputs\":%s}"
    (json_string g.Graph.graph_name)
    (String.concat "," (List.map node_to_json g.Graph.nodes))
    (json_string_list (Graph.output_blobs g))
