module Block = Db_blocks.Block
module Op = Db_ir.Op
module Graph = Db_ir.Graph
module Resource = Db_fpga.Resource

type t = { blocks : Block.t list; total : Resource.t }

let addr_bits_for words =
  Stdlib.max 4
    (int_of_float
       (Float.ceil (log (float_of_int (Stdlib.max 2 words)) /. log 2.0)))

(* Activation nodes and the recurrent unit's tanh, first-seen order. *)
let distinct_activations (g : Graph.t) =
  Graph.fold g ~init:[] ~f:(fun acc node ->
      let add act acc = if List.mem act acc then acc else act :: acc in
      match node.Graph.op with
      | Op.Act act -> add act acc
      | Op.Recurrent _ -> add Op.Tanh acc
      | _ -> acc)
  |> List.rev

let max_pool_window (g : Graph.t) =
  Graph.fold g ~init:0 ~f:(fun acc node ->
      match node.Graph.op with
      | Op.Pool { kernel_size; _ } -> Stdlib.max acc kernel_size
      | _ -> acc)

let has g pred = Graph.has_op g pred

let classifier_config (g : Graph.t) =
  Graph.fold g ~init:None ~f:(fun acc node ->
      match node.Graph.op, acc with
      | Op.Classifier { top_k }, None -> begin
          match node.Graph.in_shapes with
          | [ bottom ] -> Some (top_k, Db_tensor.Shape.numel bottom)
          | [] | _ :: _ :: _ -> acc
        end
      | _ -> acc)

let build ?acc_bits (g : Graph.t) dp ~schedule ~layout =
  let fmt = dp.Db_sched.Datapath.fmt in
  (* The historical width (word + 8 guard bits) is the floor; the range
     analysis can require more for deep dot products. *)
  let acc_bits =
    let floor_bits = fmt.Db_fixed.Fixed.total_bits + 8 in
    match acc_bits with
    | Some b -> Stdlib.max floor_bits b
    | None -> floor_bits
  in
  let mk name kind = Block.make ~name ~fmt kind in
  let lanes = dp.Db_sched.Datapath.lanes in
  let blocks = ref [] in
  let push b = blocks := b :: !blocks in
  (* MAC lanes and their per-lane accumulators. *)
  for i = 0 to lanes - 1 do
    push
      (mk
         (Printf.sprintf "neuron_%d" i)
         (Block.Synergy_neuron { simd = dp.Db_sched.Datapath.simd }));
    push
      (mk
         (Printf.sprintf "accum_%d" i)
         (Block.Accumulator { depth = 16; acc_bits }))
  done;
  (* Pooling units, one per lane, sized to the widest window in the model. *)
  let window = max_pool_window g in
  if window > 0 then begin
    let avg =
      has g (function
        | Op.Pool { method_ = Op.Avg_pool; _ } | Op.Global_pool Op.Avg_pool ->
            true
        | _ -> false)
    in
    let pool = if avg then Block.Avg_pool else Block.Max_pool in
    for i = 0 to lanes - 1 do
      push (mk (Printf.sprintf "pool_%d" i) (Block.Pooling_unit { window; pool }))
    done
  end;
  (* One activation unit per distinct activation function, holding the
     ROM of its table (none for the comparators). *)
  let luts = Lut_set.of_graph dp g in
  let rom fn = Option.to_list (Lut_set.find luts fn) in
  List.iter
    (fun act ->
      let fn = String.lowercase_ascii (Op.activation_name act) in
      let roms = Option.fold ~none:[] ~some:rom (Lut_set.of_activation act) in
      push (mk ("act_" ^ fn) (Block.Activation_unit { fn; roms })))
    (distinct_activations g);
  (* The paper maps both LRN and LCN onto the LRN unit. *)
  if has g (function Op.Lrn _ | Op.Lcn _ -> true | _ -> false) then begin
    let local_size =
      Graph.fold g ~init:5 ~f:(fun acc node ->
          match node.Graph.op with
          | Op.Lrn { local_size; _ } -> Stdlib.max acc local_size
          | _ -> acc)
    in
    let power = Option.map (fun (_, _, lut) -> lut) (Lut_set.lrn_power luts) in
    push (mk "lrn" (Block.Lrn_unit { local_size; power }))
  end;
  if has g (function Op.Dropout _ -> true | _ -> false) then
    push (mk "dropout" Block.Dropout_unit);
  (* Softmax, average pooling and LCN divide through the reciprocal
     unit; it also holds softmax's exp table. *)
  (match rom Lut_set.Reciprocal with
  | [] -> ()
  | recip ->
      push
        (mk "recip"
           (Block.Activation_unit
              { fn = "reciprocal"; roms = recip @ rom Lut_set.Exp })));
  (* The crossbar between producers and consumers; the shifting latch is
     needed whenever approximate division appears (average pooling, LRN). *)
  let shift_latch =
    has g (function
      | Op.Pool { method_ = Op.Avg_pool; _ }
      | Op.Global_pool Op.Avg_pool | Op.Lrn _ | Op.Lcn _ ->
          true
      | _ -> false)
  in
  push
    (mk "connection_box"
       (Block.Connection_box { in_ports = lanes; out_ports = lanes; shift_latch }));
  (match classifier_config g with
  | Some (k, fan_in) ->
      push (mk "ksorter" (Block.Classifier_ksorter { k; fan_in }))
  | None -> ());
  (* AGUs: the pattern memory scales with the number of layers; addresses
     cover the whole DRAM layout (main) or the on-chip buffers. *)
  let n_layers = Graph.layer_count g in
  let dram_addr_bits = addr_bits_for layout.Db_mem.Layout.total_words in
  let fbuf_addr_bits = addr_bits_for dp.Db_sched.Datapath.feature_buffer_words in
  let wbuf_addr_bits = addr_bits_for dp.Db_sched.Datapath.weight_buffer_words in
  push
    (mk "main_agu"
       (Block.Agu
          {
            agu_kind = Block.Main_agu;
            pattern_count = 3 * n_layers;
            addr_bits = dram_addr_bits;
          }));
  push
    (mk "data_agu"
       (Block.Agu
          {
            agu_kind = Block.Data_agu;
            pattern_count = n_layers;
            addr_bits = fbuf_addr_bits;
          }));
  push
    (mk "weight_agu"
       (Block.Agu
          {
            agu_kind = Block.Weight_agu;
            pattern_count = n_layers;
            addr_bits = wbuf_addr_bits;
          }));
  push
    (mk "coordinator"
       (Block.Coordinator
          { fsm = Db_sched.Schedule.coordinator_fsm schedule }));
  push
    (mk "feature_buffer"
       (Block.Feature_buffer
          {
            words = dp.Db_sched.Datapath.feature_buffer_words;
            port_words = dp.Db_sched.Datapath.port_words;
          }));
  push
    (mk "weight_buffer"
       (Block.Weight_buffer
          {
            words = dp.Db_sched.Datapath.weight_buffer_words;
            port_words = dp.Db_sched.Datapath.port_words;
          }));
  let blocks = List.rev !blocks in
  { blocks; total = Resource.sum (List.map Block.resource blocks) }

let find t ~kind_label =
  List.filter (fun b -> Block.kind_label b.Block.kind = kind_label) t.blocks

let lane_blocks t = find t ~kind_label:"synergy_neuron"

let pp fmt t =
  Format.fprintf fmt "block set (%d blocks, %a):@." (List.length t.blocks)
    Resource.pp t.total;
  List.iter (fun b -> Format.fprintf fmt "  %a@." Block.pp b) t.blocks
