(* Static verification of a generated design: the bridge between the
   generator's view (Design.t) and the analyses in [Db_check], which sits
   below [db_core] in the library graph and only understands plain
   records.

   [check] runs both analyses — interval range analysis of the fixed-point
   datapath over the lowered IR, and the memory-safety proof of the
   compiled schedule — and returns one combined report.  [gate] is the
   hard stop inside [Generator.assemble]: a generated design whose check
   report contains errors is a generator bug and must never be emitted. *)

module Graph = Db_ir.Graph
module Op = Db_ir.Op
module Shape = Db_tensor.Shape
module Layout = Db_mem.Layout
module Buffer_model = Db_mem.Buffer_model
module Folding = Db_sched.Folding
module Range = Db_check.Range
module Mem_safety = Db_check.Mem_safety
module D = Db_analysis.Diagnostic

let fail fmt = Db_util.Error.failf_at ~component:"check" fmt

type report = {
  ck_range : Range.report;
  ck_mem : D.t list;
  ck_diags : D.t list;  (** both analyses, sorted *)
}

let errors t = D.errors t.ck_diags

let ok t = errors t = []

(* --- plant/step extraction ----------------------------------------------- *)

(* Layout regions, with each node's weight tensors merged into one region:
   [Layout.build] allocates them consecutively, and the compiler's weight
   cursor walks the merged span across folds, so per-tensor containment
   would reject correct transfers that cross tensor boundaries. *)
let regions_of_layout (layout : Layout.t) =
  let weight_node name =
    (* "weights:<node>:<i>" -> Some "<node>" *)
    match String.index_opt name ':' with
    | Some i when String.sub name 0 i = "weights" -> begin
        match String.rindex_opt name ':' with
        | Some j when j > i -> Some (String.sub name (i + 1) (j - i - 1))
        | _ -> None
      end
    | _ -> None
  in
  let merged : (string, Mem_safety.region) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : Layout.entry) ->
      let key, rg_name =
        match weight_node e.Layout.entry_name with
        | Some node -> ("weights:" ^ node, "weights:" ^ node)
        | None -> (e.Layout.entry_name, e.Layout.entry_name)
      in
      match Hashtbl.find_opt merged key with
      | Some r ->
          Hashtbl.replace merged key
            {
              r with
              Mem_safety.rg_base = Stdlib.min r.Mem_safety.rg_base e.Layout.base;
              rg_words = r.Mem_safety.rg_words + e.Layout.words;
            }
      | None ->
          order := key :: !order;
          Hashtbl.replace merged key
            {
              Mem_safety.rg_name;
              rg_base = e.Layout.base;
              rg_words = e.Layout.words;
            })
    layout.Layout.entries;
  List.rev_map (fun key -> Hashtbl.find merged key) !order

let main_agu_addr_bits (design : Design.t) =
  let blocks = design.Design.block_set.Block_set.blocks in
  match
    List.find_map
      (fun (b : Db_blocks.Block.t) ->
        match b.Db_blocks.Block.kind with
        | Db_blocks.Block.Agu
            { agu_kind = Db_blocks.Block.Main_agu; addr_bits; _ } ->
            Some addr_bits
        | _ -> None)
      blocks
  with
  | Some bits -> bits
  | None -> fail "design %S has no main AGU block" design.Design.ir.Graph.graph_name

let node_of g name =
  match Graph.find_node_opt g name with
  | Some node -> node
  | None -> fail "schedule references unknown layer %S" name

(* Feature words a fold needs resident on-chip.  A layer whose input blob
   fits the feature buffer keeps the whole blob resident; a streaming
   layer holds [kernel] rows of the (channels-deep) input — the row
   buffer Method-1 tiling feeds — or one row when the op has no window. *)
let feature_working_set (g : Graph.t) layout (p : Compiler.fold_program) =
  let node = node_of g p.Compiler.fold.Folding.fold_layer in
  if not p.Compiler.windows_streamed then begin
    match node.Graph.inputs with
    | blob :: _ -> (Layout.feature_entry layout ~blob).Layout.words
    | [] -> 0
  end
  else begin
    match node.Graph.in_shapes with
    | bshape :: _ when Shape.rank bshape = 3 ->
        let rows =
          match Op.window node.Graph.op with Some (k, _) -> k | None -> 1
        in
        rows * Shape.width bshape * Shape.channels bshape
    | _ -> p.Compiler.fold.Folding.feature_words
  end

(* Weight words live in the weight buffer at once: one output unit's taps
   (plus its bias word).  Weights stream through the buffer unit by unit;
   the whole layer never needs to be resident. *)
let weight_working_set (g : Graph.t) (p : Compiler.fold_program) =
  let node = node_of g p.Compiler.fold.Folding.fold_layer in
  if p.Compiler.fold.Folding.weight_words = 0 then 0
  else begin
    let bias = if Op.has_bias node.Graph.op then 1 else 0 in
    match node.Graph.op, node.Graph.in_shapes with
    | Op.Conv { kernel_size; group; _ }, bshape :: _ ->
        (Shape.channels bshape / Stdlib.max 1 group)
        * kernel_size * kernel_size
        + bias
    | Op.Fc _, bshape :: _ -> Shape.numel bshape + bias
    | Op.Recurrent { num_output; _ }, bshape :: _ ->
        Shape.numel bshape + num_output + bias
    | _, _ -> p.Compiler.fold.Folding.weight_words
  end

let steps_of_design (design : Design.t) =
  let g = design.Design.ir in
  let layout = design.Design.layout in
  List.map
    (fun (p : Compiler.fold_program) ->
      let accesses =
        List.map
          (fun (tr : Compiler.transfer) ->
            {
              Mem_safety.ac_name = tr.Compiler.pattern.Db_mem.Access_pattern.pattern_name;
              ac_dir =
                (match tr.Compiler.stream with
                | `Output_back -> Mem_safety.Write
                | `Feature_in | `Weight_in -> Mem_safety.Read);
              ac_pattern = tr.Compiler.pattern;
            })
          p.Compiler.transfers
      in
      {
        Mem_safety.st_event = p.Compiler.event;
        st_layer = p.Compiler.fold.Folding.fold_layer;
        st_accesses = accesses;
        st_feature_words = feature_working_set g layout p;
        st_weight_words = weight_working_set g p;
      })
    design.Design.program.Compiler.programs

let plant_of_design (design : Design.t) =
  let dp = design.Design.datapath in
  {
    Mem_safety.pl_scope = design.Design.ir.Graph.graph_name;
    pl_regions = regions_of_layout design.Design.layout;
    pl_total_words = design.Design.layout.Layout.total_words;
    pl_feature_buffer =
      Buffer_model.make ~capacity_words:dp.Db_sched.Datapath.feature_buffer_words;
    pl_weight_buffer =
      Buffer_model.make ~capacity_words:dp.Db_sched.Datapath.weight_buffer_words;
    pl_addr_bits = main_agu_addr_bits design;
  }

(* --- entry points -------------------------------------------------------- *)

let check ?params ?input (design : Design.t) =
  Db_obs.Obs.with_span "check"
    ~attrs:[ ("design", design.Design.ir.Graph.graph_name) ]
    (fun () ->
      let ck_range =
        Range.analyze ?params ?input
          ~fmt:design.Design.constraints.Constraints.fmt design.Design.ir
      in
      let ck_mem =
        Mem_safety.check (plant_of_design design) (steps_of_design design)
      in
      {
        ck_range;
        ck_mem;
        ck_diags = D.sort (ck_range.Range.rp_diags @ ck_mem);
      })

let to_json ~design r =
  let range = r.ck_range in
  Printf.sprintf
    "{\"design\": %S, \"format\": %S, \"min_acc_bits\": %d, \
     \"layer_acc_bits\": [%s], \"diagnostics\": %s}"
    design
    (Format.asprintf "%a" Db_fixed.Fixed.pp_format range.Range.rp_fmt)
    range.Range.rp_min_acc_bits
    (String.concat ", "
       (List.map
          (fun (layer, bits) ->
            Printf.sprintf "{\"layer\": %S, \"bits\": %d}" layer bits)
          (Range.layer_acc_bits range)))
    (D.json_of_list r.ck_diags)

let gate (design : Design.t) =
  match errors (check design) with
  | [] -> ()
  | first :: _ as errs ->
      fail
        "generated design failed static checking: %d error(s); first: %s"
        (List.length errs) (D.to_string first)
