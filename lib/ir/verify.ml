(* Structural verifier for IR graphs.  Every defect gets a stable
   [DB-IRxxx] code so tests and tooling can key on it:

     DB-IR001  graph is empty or has no input node
     DB-IR002  duplicate node name
     DB-IR003  duplicate output blob
     DB-IR004  dangling edge: consumed blob has no producer
     DB-IR005  use-before-def / cycle: blob produced at or after its consumer
     DB-IR006  arity mismatch for the node's op
     DB-IR007  annotated shape disagrees with recomputation
     DB-IR008  invalid op parameters (shape inference rejected the node)
     DB-IR009  annotated params/cost disagree with recomputation
     DB-IR010  node ids are not sequential topological positions *)

module Shape = Db_tensor.Shape

type diag = { code : string; node : string option; message : string }

let pp_diag fmt d =
  match d.node with
  | Some n -> Format.fprintf fmt "%s [%s]: %s" d.code n d.message
  | None -> Format.fprintf fmt "%s: %s" d.code d.message

let diag_to_string d = Format.asprintf "%a" pp_diag d

let run (g : Graph.t) : diag list =
  let diags = ref [] in
  let add ?node code fmt =
    Format.kasprintf (fun message -> diags := { code; node; message } :: !diags) fmt
  in
  if g.Graph.nodes = [] then add "DB-IR001" "graph %S has no nodes" g.Graph.graph_name
  else if not (List.exists (fun n -> Op.is_input n.Graph.op) g.Graph.nodes) then
    add "DB-IR001" "graph %S has no input node" g.Graph.graph_name;
  (* Producer position of every blob (first producer wins; duplicates are
     flagged separately as DB-IR003). *)
  let producer_pos : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iteri
    (fun i (n : Graph.node) ->
      List.iter
        (fun top ->
          if not (Hashtbl.mem producer_pos top) then Hashtbl.add producer_pos top i)
        n.Graph.outputs)
    g.Graph.nodes;
  let seen_names = Hashtbl.create 32 and seen_tops = Hashtbl.create 32 in
  let blob_shape : (string, Shape.t) Hashtbl.t = Hashtbl.create 32 in
  List.iteri
    (fun i (n : Graph.node) ->
      let name = n.Graph.node_name in
      if n.Graph.id <> i then
        add ~node:name "DB-IR010" "id %d at topological position %d" n.Graph.id i;
      if Hashtbl.mem seen_names name then
        add ~node:name "DB-IR002" "duplicate node name";
      Hashtbl.replace seen_names name ();
      List.iter
        (fun top ->
          if Hashtbl.mem seen_tops top then
            add ~node:name "DB-IR003" "duplicate output blob %S" top;
          Hashtbl.replace seen_tops top ())
        n.Graph.outputs;
      let arity = List.length n.Graph.inputs in
      (match Op.expected_arity n.Graph.op with
      | `Exactly k when arity <> k ->
          add ~node:name "DB-IR006" "%s expects %d input(s), got %d"
            (Op.name n.Graph.op) k arity
      | `At_least k when arity < k ->
          add ~node:name "DB-IR006" "%s expects at least %d inputs, got %d"
            (Op.name n.Graph.op) k arity
      | `Exactly _ | `At_least _ -> ());
      if List.length n.Graph.in_shapes <> arity then
        add ~node:name "DB-IR007" "%d inputs but %d annotated input shapes" arity
          (List.length n.Graph.in_shapes);
      let edges_ok =
        List.for_all
          (fun blob ->
            match Hashtbl.find_opt producer_pos blob with
            | None ->
                add ~node:name "DB-IR004" "consumes unknown blob %S" blob;
                false
            | Some p when p >= i ->
                add ~node:name "DB-IR005"
                  "blob %S is produced at position %d, at or after its consumer (%d)"
                  blob p i;
                false
            | Some _ -> Hashtbl.mem blob_shape blob)
          n.Graph.inputs
        && List.length n.Graph.in_shapes = arity
      in
      (* Attribute checks only make sense once the edges resolve. *)
      if edges_ok then begin
        let expected_in = List.map (Hashtbl.find blob_shape) n.Graph.inputs in
        List.iteri
          (fun j (annotated, expected) ->
            if not (Shape.equal annotated expected) then
              add ~node:name "DB-IR007"
                "input %d annotated shape %s, producer yields %s" j
                (Shape.to_string annotated) (Shape.to_string expected))
          (List.combine n.Graph.in_shapes expected_in);
        match Annot.out_shape n.Graph.op ~in_shapes:expected_in with
        | exception Db_util.Error.Deepburning_error msg ->
            add ~node:name "DB-IR008" "%s" msg
        | expected_out ->
            if not (Shape.equal n.Graph.out_shape expected_out) then
              add ~node:name "DB-IR007" "annotated output shape %s, expected %s"
                (Shape.to_string n.Graph.out_shape)
                (Shape.to_string expected_out);
            let expected_params =
              Annot.param_shapes n.Graph.op ~in_shapes:expected_in
            in
            if
              not
                (List.length n.Graph.param_shapes = List.length expected_params
                && List.for_all2 Shape.equal n.Graph.param_shapes expected_params)
            then
              add ~node:name "DB-IR009" "annotated parameter shapes disagree";
            let expected_cost =
              Annot.cost n.Graph.op ~in_shapes:expected_in ~out_shape:expected_out
                ~param_shapes:expected_params
            in
            if n.Graph.cost <> expected_cost then
              add ~node:name "DB-IR009"
                "annotated cost (macs=%d ops=%d) disagrees with recomputation \
                 (macs=%d ops=%d)"
                n.Graph.cost.Graph.macs n.Graph.cost.Graph.other_ops
                expected_cost.Graph.macs expected_cost.Graph.other_ops
      end;
      List.iter
        (fun top ->
          if not (Hashtbl.mem blob_shape top) then
            Hashtbl.add blob_shape top n.Graph.out_shape)
        n.Graph.outputs)
    g.Graph.nodes;
  List.rev !diags

let check_exn g =
  match run g with
  | [] -> ()
  | first :: _ as diags ->
      Db_util.Error.failf_at ~component:"ir-verify"
        "graph %S failed verification with %d diagnostic(s), first: %s"
        g.Graph.graph_name (List.length diags) (diag_to_string first)
