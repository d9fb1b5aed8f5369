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
  luts : Lut_set.t;
  layout : Layout.t;
}

let fail fmt = Db_util.Error.failf_at ~component:"compiler" fmt

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

(* The Method-1 locality of a streamed window sweep, recomputed on every
   compile: [Tiling.window_sequential_fraction] is closed-form (O(1) per
   window on the NHWC plans the zoo streams, O(k^2) per window on plans that
   store maps apart), so [compile] keeps no memo and takes no lock. *)
let window_seq_fraction ~tiling_enabled entry ~bottoms_shape =
  match entry.Layout.tile_plan, bottoms_shape with
  | Some plan, Some shape when Shape.rank shape = 3 ->
      let plan =
        if tiling_enabled then plan else Tiling.row_major plan.Tiling.plan_spec
      in
      Tiling.window_sequential_fraction plan ~height:(Shape.height shape)
        ~width:(Shape.width shape)
  | Some _, _ | None, _ -> if tiling_enabled then 0.9 else 0.4

(* The program of one fold.  [first_in_layer] marks the layer's first fold,
   the one that fetches a resident input; [weight_offset] is where the fold
   starts in the layer's weight region (folds walk it cumulatively, and
   tail folds are narrower than full ones). *)
let fold_program ~tiling_enabled g ~fbuf ~layout ~first_in_layer
    ~weight_offset (fold : Folding.fold) =
  let node = node_of g fold.Folding.fold_layer in
  let blob = input_blob node in
  let entry = Layout.feature_entry layout ~blob in
  let bshape =
    match node.Graph.in_shapes with
    | bottom :: _ -> bottom
    | [] -> fail "layer %S has no bottom shape" node.Graph.node_name
  in
  let fits = entry.Layout.words <= fbuf in
  let transfers = ref [] in
  let windows_streamed = ref false in
  (* Feature input. *)
  (if fits then begin
     if first_in_layer then
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
        let total_weight_words =
          List.fold_left (fun a e -> a + e.Layout.words) 0 wentries
        in
        let words =
          Stdlib.min fold.Folding.weight_words
            (Stdlib.max 0 (total_weight_words - weight_offset))
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
                  ~start:(first.Layout.base + weight_offset)
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
  }

(* Each run with its fold count and [program k], the program of its fold
   [k].  The walk state (the layer's first fold fetches a resident input;
   folds walk the layer's weight region cumulatively) is fixed per run
   here, so [program] may be called in any order. *)
let run_programs ~tiling_enabled (g : Graph.t) ~datapath ~layout runs =
  let fbuf = datapath.Db_sched.Datapath.feature_buffer_words in
  let previous_layer = ref "" in
  let weight_cursor : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.map
    (fun (run : Folding.run) ->
      let { Folding.fold; count } = run in
      let layer = fold.Folding.fold_layer in
      let first_run = !previous_layer <> layer in
      previous_layer := layer;
      let base =
        Option.value ~default:0 (Hashtbl.find_opt weight_cursor layer)
      in
      if fold.Folding.weight_words > 0 then
        Hashtbl.replace weight_cursor layer
          (base + (count * fold.Folding.weight_words));
      let program k =
        fold_program ~tiling_enabled g ~fbuf ~layout
          ~first_in_layer:(first_run && k = 0)
          ~weight_offset:(base + (k * fold.Folding.weight_words))
          (Folding.nth_fold run k)
      in
      (program, count))
    runs

(* Along a run only the clamped transfer sizes change (the first fold's
   resident fetch, the weight and output words near the end of their
   regions), each non-increasing in the fold index.  So the folds whose
   traffic equals fold [a]'s form one contiguous segment, and bisection
   finds its end. *)
let compile_runs ?(tiling_enabled = true) g ~datapath ~layout runs =
  let traffic p =
    List.map (fun tr -> (tr.stream, tr.words, tr.seq_fraction)) p.transfers
  in
  List.concat_map
    (fun (program, count) ->
      let rec segments a acc =
        if a >= count then List.rev acc
        else begin
          let p = program a in
          (* [last lo hi]: fold [lo] has [p]'s traffic; [hi] is [count] or
             does not *)
          let rec last lo hi =
            if hi - lo <= 1 then lo
            else
              let mid = (lo + hi) / 2 in
              if traffic (program mid) = traffic p then last mid hi
              else last lo mid
          in
          let b = last a count in
          segments (b + 1) ((p, b - a + 1) :: acc)
        end
      in
      segments 0 [])
    (run_programs ~tiling_enabled g ~datapath ~layout runs)

let compile ?(tiling_enabled = true) g ~datapath ~schedule ~layout =
  {
    programs =
      List.concat_map
        (fun (program, count) -> List.init count program)
        (run_programs ~tiling_enabled g ~datapath ~layout
           schedule.Db_sched.Schedule.runs);
    luts = Lut_set.of_graph datapath g;
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
