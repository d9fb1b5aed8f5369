module Shape = Db_tensor.Shape
module Op = Db_ir.Op
module Graph = Db_ir.Graph
module Folding = Db_sched.Folding
module Access_pattern = Db_mem.Access_pattern
module Layout = Db_mem.Layout
module Tiling = Db_mem.Tiling

type transfer = {
  stream : [ `Feature_in | `Weight_in | `Output_back ];
  words : int;
  seq_fraction : float;
  pattern : Access_pattern.t;
}

type fold_program = {
  event : string;
  fold : Folding.fold;
  transfers : transfer list;
  buffer_feature_reads : int;
  buffer_weight_reads : int;
  windows_streamed : bool;
}

type t = {
  programs : fold_program list;
  luts : Db_blocks.Approx_lut.t list;
  layout : Layout.t;
}

let fail fmt = Db_util.Error.failf_at ~component:"compiler" fmt

let build_luts (g : Graph.t) ~entries =
  let acc = ref [] in
  let add lut =
    if not (List.exists (fun l -> l.Db_blocks.Approx_lut.lut_name = lut.Db_blocks.Approx_lut.lut_name) !acc)
    then acc := lut :: !acc
  in
  let add_activation = function
    | Op.Sigmoid -> add (Db_blocks.Approx_lut.sigmoid ~entries)
    | Op.Tanh -> add (Db_blocks.Approx_lut.tanh_lut ~entries)
    | Op.Relu | Op.Sign -> ()
  in
  Graph.iter g (fun node ->
      (match node.Graph.op with
      | Op.Act act -> add_activation act
      | Op.Recurrent _ -> add (Db_blocks.Approx_lut.tanh_lut ~entries)
      | Op.Softmax ->
          add (Db_blocks.Approx_lut.exp_lut ~entries);
          add (Db_blocks.Approx_lut.reciprocal ~entries)
      | Op.Pool { method_ = Op.Avg_pool; _ }
      | Op.Global_pool Op.Avg_pool | Op.Lcn _ ->
          add (Db_blocks.Approx_lut.reciprocal ~entries)
      | Op.Lrn _ ->
          add
            (Db_blocks.Approx_lut.build ~name:"lrn_power"
               ~f:(fun x -> (1.0 +. x) ** -0.75)
               ~lo:0.0 ~hi:64.0 ~entries)
      | Op.Input _ | Op.Conv _
      | Op.Pool { method_ = Op.Max_pool; _ }
      | Op.Global_pool Op.Max_pool
      | Op.Fc _ | Op.Dropout _ | Op.Associative _
      | Op.Concat | Op.Classifier _
      (* Backward derivative LUTs reuse the forward tables. *)
      | Op.Backward _ | Op.Sgd_update _ ->
          ());
      match Op.fused_activation node.Graph.op with
      | Some act -> add_activation act
      | None -> ());
  List.rev !acc

let node_of g name =
  match Graph.find_node_opt g name with
  | Some node -> node
  | None -> fail "schedule references unknown layer %S" name

let input_blob (node : Graph.node) =
  match node.Graph.inputs with
  | bottom :: _ -> bottom
  | [] -> fail "layer %S has no bottom" node.Graph.node_name

(* Sequential fraction of a bulk (whole-region) fetch: the region is stored
   contiguously in layout order, so it streams at full efficiency. *)
let bulk_fetch blob_entry ~name ~words ~offset =
  {
    stream = `Feature_in;
    words;
    seq_fraction = 1.0;
    pattern =
      Access_pattern.contiguous ~name
        ~start:(blob_entry.Layout.base + offset)
        ~length:(Stdlib.max 1 words);
  }

(* The fraction is pure in (plan, height, width).  A cold walk costs
   O(windows x window words), ~10-30 ms for an ImageNet-scale blob, and
   Db_dse.Explore, Experiments and Train_sim recompile the same layers
   in-process, so memoise it.  Guarded by a mutex: compilation may run from
   several pool workers at once. *)
let seq_fraction_cache : (Tiling.plan * int * int, float) Hashtbl.t =
  Hashtbl.create 64

let seq_fraction_lock = Mutex.create ()

let window_seq_fraction ~tiling_enabled entry ~bottoms_shape =
  match entry.Layout.tile_plan, bottoms_shape with
  | Some plan, Some shape when Shape.rank shape = 3 -> (
      let plan =
        if tiling_enabled then plan else Tiling.row_major plan.Tiling.plan_spec
      in
      let height = Shape.height shape and width = Shape.width shape in
      let key = (plan, height, width) in
      let locked f = Mutex.protect seq_fraction_lock f in
      match locked (fun () -> Hashtbl.find_opt seq_fraction_cache key) with
      | Some f -> f
      | None ->
          let f = Tiling.window_sequential_fraction plan ~height ~width in
          locked (fun () -> Hashtbl.replace seq_fraction_cache key f);
          f)
  | Some _, _ | None, _ -> if tiling_enabled then 0.9 else 0.4

let compile ?(tiling_enabled = true) (g : Graph.t) ~datapath ~schedule ~layout =
  let fbuf = datapath.Db_sched.Datapath.feature_buffer_words in
  let previous_layer = ref "" in
  let weight_cursor : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let programs =
    List.map
      (fun (fold : Folding.fold) ->
        let node = node_of g fold.Folding.fold_layer in
        let blob = input_blob node in
        let entry = Layout.feature_entry layout ~blob in
        let bshape =
          match node.Graph.in_shapes with
          | bottom :: _ -> bottom
          | [] -> fail "layer %S has no bottom shape" node.Graph.node_name
        in
        let first_fold_of_layer = !previous_layer <> fold.Folding.fold_layer in
        previous_layer := fold.Folding.fold_layer;
        let fits = entry.Layout.words <= fbuf in
        let transfers = ref [] in
        let windows_streamed = ref false in
        (* Feature input. *)
        (if fits then begin
           if first_fold_of_layer then
             transfers :=
               bulk_fetch entry
                 ~name:(fold.Folding.event ^ "_feat")
                 ~words:entry.Layout.words ~offset:0
               :: !transfers
           (* else: resident from the first fold of this layer *)
         end
         else begin
           (* Input exceeds the buffer: stream the kernel windows this fold
              needs straight from DRAM.  Method-1 decides both the
              row-buffer locality (seq fraction) and the bandwidth utility:
              without tiling, each window row costs a whole burst of which
              only [kernel] words are useful (the paper's 57-vs-12-pixel
              example); with tiling the fetched blocks are fully used. *)
           windows_streamed := true;
           let seq =
             window_seq_fraction ~tiling_enabled entry
               ~bottoms_shape:(Some bshape)
           in
           let burst = 16 in
           let window_words, waste =
             match node.Graph.op with
             | Op.Conv { kernel_size = k; group; _ } ->
                 let cin_g = Shape.channels bshape / group in
                 let osh = node.Graph.out_shape in
                 let sweeps = Shape.height osh * Shape.width osh in
                 let useful = sweeps * k * k * cin_g in
                 let waste =
                   if tiling_enabled then 1.0
                   else
                     float_of_int (((k + burst - 1) / burst) * burst)
                     /. float_of_int k
                 in
                 (useful, waste)
             | _ -> (fold.Folding.feature_words, 1.0)
           in
           transfers :=
             {
               stream = `Feature_in;
               words =
                 Stdlib.max fold.Folding.feature_words
                   (int_of_float (float_of_int window_words *. waste));
               seq_fraction = seq;
               pattern =
                 Access_pattern.rows
                   ~name:(fold.Folding.event ^ "_feat")
                   ~start:entry.Layout.base
                   ~x_length:
                     (Stdlib.max 1
                        (Stdlib.min fold.Folding.feature_words
                           (Shape.width bshape)))
                   ~y_length:
                     (Stdlib.max 1
                        (fold.Folding.feature_words
                        / Stdlib.max 1
                            (Stdlib.min fold.Folding.feature_words
                               (Shape.width bshape))))
                   ~stride:(Shape.width bshape);
             }
             :: !transfers
         end);
        (* Weights: streamed once per fold, contiguous in layout order. *)
        if fold.Folding.weight_words > 0 then begin
          let wentries =
            Layout.weight_entries layout ~node:fold.Folding.fold_layer
          in
          match wentries with
          | [] -> fail "no weight layout for %S" fold.Folding.fold_layer
          | first :: _ ->
              (* Folds walk the layer's weight region cumulatively (tail
                 folds are narrower than full ones). *)
              let offset =
                Option.value ~default:0
                  (Hashtbl.find_opt weight_cursor fold.Folding.fold_layer)
              in
              Hashtbl.replace weight_cursor fold.Folding.fold_layer
                (offset + fold.Folding.weight_words);
              let total_weight_words =
                List.fold_left (fun a e -> a + e.Layout.words) 0 wentries
              in
              let words =
                Stdlib.min fold.Folding.weight_words
                  (Stdlib.max 0 (total_weight_words - offset))
              in
              if words > 0 then
                transfers :=
                  {
                    stream = `Weight_in;
                    words;
                    seq_fraction = 1.0;
                    pattern =
                      Access_pattern.contiguous
                        ~name:(fold.Folding.event ^ "_wt")
                        ~start:(first.Layout.base + offset)
                        ~length:words;
                  }
                  :: !transfers
        end;
        (* Output write-back. *)
        (match node.Graph.outputs with
        | top :: _ ->
            let oentry = Layout.feature_entry layout ~blob:top in
            let offset = fold.Folding.fold_index * fold.Folding.output_words in
            let words =
              Stdlib.min fold.Folding.output_words
                (Stdlib.max 0 (oentry.Layout.words - offset))
            in
            if words > 0 then
              transfers :=
                {
                  stream = `Output_back;
                  words;
                  seq_fraction = 1.0;
                  pattern =
                    Access_pattern.contiguous
                      ~name:(fold.Folding.event ^ "_out")
                      ~start:(oentry.Layout.base + offset)
                      ~length:words;
                }
                :: !transfers
        | [] -> ());
        {
          event = fold.Folding.event;
          fold;
          transfers = List.rev !transfers;
          buffer_feature_reads = fold.Folding.feature_words;
          buffer_weight_reads = fold.Folding.weight_words;
          windows_streamed = !windows_streamed;
        })
      schedule.Db_sched.Schedule.folds
  in
  {
    programs;
    luts = build_luts g ~entries:datapath.Db_sched.Datapath.lut_entries;
    layout;
  }

let total_dram_words t =
  List.fold_left
    (fun acc p ->
      acc + List.fold_left (fun a tr -> a + tr.words) 0 p.transfers)
    0 t.programs

let agu_pattern_fsms t =
  (* Pattern shapes repeat heavily across folds; deduplicate on the
     (x_length, y_length, stride, offset, repeat) signature. *)
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun p ->
      List.filter_map
        (fun tr ->
          let key =
            ( tr.pattern.Access_pattern.x_length,
              tr.pattern.Access_pattern.y_length,
              tr.pattern.Access_pattern.stride,
              tr.pattern.Access_pattern.offset,
              tr.pattern.Access_pattern.repeat )
          in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some (Access_pattern.to_fsm tr.pattern)
          end)
        p.transfers)
    t.programs
