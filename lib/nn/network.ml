type node = {
  node_name : string;
  layer : Layer.t;
  bottoms : string list;
  tops : string list;
}

type t = { net_name : string; nodes : node list }

let fail fmt = Db_util.Error.failf_at ~component:"network" fmt

let check_unique what names =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem tbl n then fail "duplicate %s %S" what n
      else Hashtbl.add tbl n ())
    names

(* The parser never produces training ops; only training lowering derives
   them. *)
let check_layer node =
  if Layer.is_training node.layer then
    fail "layer %S: training op %s cannot appear in a network" node.node_name
      (Layer.name node.layer);
  let n = List.length node.bottoms in
  match Layer.expected_arity node.layer with
  | `Exactly k when n <> k ->
      fail "layer %S (%s) expects %d bottom(s), got %d" node.node_name
        (Layer.name node.layer) k n
  | `At_least k when n < k ->
      fail "layer %S (%s) expects at least %d bottoms, got %d" node.node_name
        (Layer.name node.layer) k n
  | `Exactly _ | `At_least _ -> ()

let topo_sort nodes =
  (* Kahn's algorithm over blob dependencies. *)
  let producer = Hashtbl.create 16 in
  List.iter
    (fun node -> List.iter (fun top -> Hashtbl.replace producer top node.node_name) node.tops)
    nodes;
  let by_name = Hashtbl.create 16 in
  List.iter (fun node -> Hashtbl.replace by_name node.node_name node) nodes;
  let deps node =
    List.filter_map
      (fun bottom ->
        match Hashtbl.find_opt producer bottom with
        | Some producer_name when producer_name <> node.node_name -> Some producer_name
        | Some _ | None -> None)
      node.bottoms
  in
  let in_degree = Hashtbl.create 16 in
  List.iter
    (fun node -> Hashtbl.replace in_degree node.node_name (List.length (deps node)))
    nodes;
  let dependants = Hashtbl.create 16 in
  List.iter
    (fun node ->
      List.iter
        (fun d ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt dependants d) in
          Hashtbl.replace dependants d (node.node_name :: existing))
        (deps node))
    nodes;
  let ready =
    Queue.of_seq
      (List.to_seq
         (List.filter_map
            (fun node ->
              if Hashtbl.find in_degree node.node_name = 0 then Some node.node_name
              else None)
            nodes))
  in
  let order = ref [] in
  while not (Queue.is_empty ready) do
    let name = Queue.pop ready in
    order := name :: !order;
    let followers = Option.value ~default:[] (Hashtbl.find_opt dependants name) in
    List.iter
      (fun f ->
        let d = Hashtbl.find in_degree f - 1 in
        Hashtbl.replace in_degree f d;
        if d = 0 then Queue.push f ready)
      followers
  done;
  if List.length !order <> List.length nodes then
    fail "the network graph contains a cycle over blobs";
  List.rev_map (Hashtbl.find by_name) !order

let create ~name nodes =
  if nodes = [] then fail "network %S has no layers" name;
  check_unique "layer name" (List.map (fun n -> n.node_name) nodes);
  check_unique "top blob" (List.concat_map (fun n -> n.tops) nodes);
  List.iter check_layer nodes;
  let produced = Hashtbl.create 16 in
  List.iter
    (fun node -> List.iter (fun top -> Hashtbl.replace produced top ()) node.tops)
    nodes;
  List.iter
    (fun node ->
      List.iter
        (fun bottom ->
          if not (Hashtbl.mem produced bottom) then
            fail "layer %S consumes unknown blob %S" node.node_name bottom)
        node.bottoms)
    nodes;
  let has_input =
    List.exists (fun n -> Layer.is_input n.layer) nodes
  in
  if not has_input then fail "network %S has no input layer" name;
  { net_name = name; nodes = topo_sort nodes }

let find_node t name = List.find (fun n -> n.node_name = name) t.nodes

let input_nodes t =
  List.filter (fun n -> Layer.is_input n.layer) t.nodes

let first_input t =
  match
    List.find_map
      (fun n ->
        match (n.layer, n.tops) with
        | Layer.Input { shape }, blob :: _ -> Some (blob, shape)
        | _ -> None)
      t.nodes
  with
  | Some input -> input
  | None -> fail "network %S has no input node" t.net_name

let output_blobs t =
  let consumed = Hashtbl.create 16 in
  List.iter
    (fun node -> List.iter (fun b -> Hashtbl.replace consumed b ()) node.bottoms)
    t.nodes;
  List.concat_map
    (fun node -> List.filter (fun top -> not (Hashtbl.mem consumed top)) node.tops)
    t.nodes

let layer_count t =
  List.length (List.filter (fun n -> not (Layer.is_input n.layer)) t.nodes)

let classifier_output t =
  match List.rev t.nodes with
  | last :: _ -> Layer.is_classifier last.layer
  | [] -> false

let iter t f = List.iter f t.nodes

let fold t ~init ~f = List.fold_left f init t.nodes

let has_layer t pred = List.exists (fun n -> pred n.layer) t.nodes

let pp fmt t =
  Format.fprintf fmt "network %S:@." t.net_name;
  List.iter
    (fun node ->
      Format.fprintf fmt "  %-14s %a  [%s] -> [%s]@." node.node_name Layer.pp
        node.layer
        (String.concat ", " node.bottoms)
        (String.concat ", " node.tops))
    t.nodes
