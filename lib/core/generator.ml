module Rtl = Db_hdl.Rtl
module Block = Db_blocks.Block
module Datapath = Db_sched.Datapath

(* One RTL module serves every block instance with the same configuration;
   the canonical name encodes the configuration. *)
let canonical_module_name (b : Block.t) =
  match b.Block.kind with
  | Block.Synergy_neuron { simd } -> Printf.sprintf "synergy_neuron_s%d" simd
  | Block.Accumulator { depth; acc_bits } ->
      Printf.sprintf "accumulator_d%d_w%d" depth acc_bits
  | Block.Pooling_unit { window; pool } ->
      Printf.sprintf "pooling_unit_w%d_%s" window
        (match pool with Block.Max_pool -> "max" | Block.Avg_pool -> "avg")
  | Block.Activation_unit { fn; _ } -> "activation_unit_" ^ fn
  | Block.Lrn_unit { local_size; _ } -> Printf.sprintf "lrn_unit_n%d" local_size
  | Block.Dropout_unit -> "dropout_unit"
  | Block.Connection_box { in_ports; out_ports; shift_latch } ->
      Printf.sprintf "connection_box_%dx%d%s" in_ports out_ports
        (if shift_latch then "_sl" else "")
  | Block.Classifier_ksorter { k; fan_in } ->
      Printf.sprintf "ksorter_k%d_n%d" k fan_in
  | Block.Agu { agu_kind; pattern_count; addr_bits } ->
      Printf.sprintf "%s_p%d_a%d"
        (match agu_kind with
        | Block.Main_agu -> "main_agu"
        | Block.Data_agu -> "data_agu"
        | Block.Weight_agu -> "weight_agu")
        pattern_count addr_bits
  | Block.Coordinator { fsm } -> fsm.Db_hdl.Fsm.fsm_name
  | Block.Feature_buffer { words; port_words } ->
      Printf.sprintf "feature_buffer_%dx%d" words port_words
  | Block.Weight_buffer { words; port_words } ->
      Printf.sprintf "weight_buffer_%dx%d" words port_words
  | Block.Transpose_port { rows; cols } ->
      Printf.sprintf "transpose_port_%dx%d" rows cols
  | Block.Grad_buffer { words; port_words; acc_bits } ->
      Printf.sprintf "grad_buffer_%dx%d_w%d" words port_words acc_bits
  | Block.Update_unit { lanes } -> Printf.sprintf "update_unit_l%d" lanes

let net name width = { Rtl.net_name = name; net_width = width }

(* Connect every declared port of [decl]; control ports go to shared nets,
   data ports to the given bus expressions. *)
let connections_for (decl : Rtl.module_decl) ~bus_of =
  List.map
    (fun (p : Rtl.port) ->
      let actual =
        match p.Rtl.port_name with
        | "clk" -> "clk"
        | "rst" -> "rst"
        | other -> bus_of other p.Rtl.width
      in
      (p.Rtl.port_name, actual))
    decl.Rtl.ports

(* Adapt an identifier-typed source net of [from_width] bits to a context
   expecting [to_width] bits: slice down or zero-extend up. *)
let fit expr ~from_width ~to_width =
  if from_width = to_width then expr
  else if from_width > to_width then
    Printf.sprintf "%s[%d:0]" expr (to_width - 1)
  else Printf.sprintf "{{%d{1'b0}}, %s}" (to_width - from_width) expr

(* Pack a list of 1-bit nets into a [width]-bit vector. Surplus nets are
   OR-folded round-robin into the available bits (rather than dropped) so
   every status net keeps a consumer; missing bits are zero. *)
let concat_bits nets ~width =
  if nets = [] then Printf.sprintf "%d'd0" width
  else begin
    let groups = Array.make width [] in
    List.iteri (fun i n -> groups.(i mod width) <- n :: groups.(i mod width)) nets;
    let bit i =
      match List.rev groups.(i) with
      | [] -> "1'b0"
      | [ only ] -> only
      | many -> "(" ^ String.concat " | " many ^ ")"
    in
    if width = 1 then bit 0
    else
      "{"
      ^ String.concat ", " (List.init width (fun i -> bit (width - 1 - i)))
      ^ "}"
  end

let build_rtl network datapath ~block_set ~program =
  let dp_w = datapath.Datapath.fmt.Db_fixed.Fixed.total_bits in
  let lanes = datapath.Datapath.lanes in
  let simd = datapath.Datapath.simd in
  let port_words = datapath.Datapath.port_words in
  (* Widths of the nets referenced across block boundaries, recovered from
     the block inventory so every cross-block connection can be width-exact. *)
  let find_kind f = List.find_map (fun (b : Block.t) -> f b.Block.kind) block_set.Block_set.blocks in
  let agu_addr_bits wanted =
    Option.value ~default:32
      (find_kind (function
        | Block.Agu { agu_kind; addr_bits; _ } when agu_kind = wanted ->
            Some addr_bits
        | _ -> None))
  in
  let main_addr_bits = agu_addr_bits Block.Main_agu in
  let data_addr_bits = agu_addr_bits Block.Data_agu in
  let weight_addr_bits = agu_addr_bits Block.Weight_agu in
  (* The coordinator's output pulses, one per fold run, on the nets its
     instance drives. *)
  let coordinator_nets =
    Option.value ~default:[]
      (List.find_map
         (fun (b : Block.t) ->
           match b.Block.kind with
           | Block.Coordinator { fsm } ->
               Some
                 (List.map
                    (fun o -> b.Block.block_name ^ "_" ^ o)
                    fsm.Db_hdl.Fsm.outputs)
           | _ -> None)
         block_set.Block_set.blocks)
  in
  let ksorter_bits =
    find_kind (function
      | Block.Classifier_ksorter { k; _ } -> Some (k * 16)
      | _ -> None)
  in
  let has_pool =
    List.exists
      (fun (b : Block.t) ->
        match b.Block.kind with Block.Pooling_unit _ -> true | _ -> false)
      block_set.Block_set.blocks
  in
  (* Deduplicated leaf modules. *)
  let module_table = Hashtbl.create 32 in
  let leaf_modules = ref [] in
  let ensure_module (b : Block.t) =
    let name = canonical_module_name b in
    if not (Hashtbl.mem module_table name) then begin
      Hashtbl.add module_table name ();
      leaf_modules := Block.to_module { b with Block.block_name = name } :: !leaf_modules
    end;
    name
  in
  (* One ROM module per table of the design's Approx-LUT set; the unit
     that reads a table instantiates its ROM. *)
  let rom_modules =
    List.map
      (fun (tb : Lut_set.table) ->
        Db_blocks.Approx_lut.to_module tb.Lut_set.lut ~fmt:datapath.Datapath.fmt)
      program.Compiler.luts.Lut_set.tables
  in
  (* Every AGU pattern FSM, one per distinct shape, lowered to RTL. *)
  let fsm_modules = List.map Rtl.of_fsm (Compiler.agu_pattern_fsms program) in
  (* Top-level nets. *)
  let nets = ref [] in
  let declare name width =
    if not (List.exists (fun (n : Rtl.net) -> n.Rtl.net_name = name) !nets) then
      nets := net name width :: !nets
  in
  declare "feature_bus" (lanes * simd * dp_w);
  declare "weight_bus" (lanes * simd * dp_w);
  declare "partial_bus" (lanes * dp_w);
  declare "accum_bus" (lanes * dp_w);
  declare "xbar_bus" (lanes * dp_w);
  declare "post_act_bus" (lanes * dp_w);
  if has_pool then declare "pool_bus" (lanes * dp_w);
  declare "fold_done" 1;
  declare "lane_clear" 1;
  declare "lane_valid" 1;
  let instances = ref [] in
  let add_instance inst = instances := inst :: !instances in
  let lane_index name =
    (* "neuron_12" -> 12 *)
    match String.rindex_opt name '_' with
    | Some i -> int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1))
    | None -> None
  in
  let slice bus ~index ~width = Printf.sprintf "%s[%d:%d]" bus (((index + 1) * width) - 1) (index * width) in
  (* 1-bit status nets of the lowered pattern FSMs; they feed the AGUs'
     pattern_select inputs so every FSM output has a consumer. *)
  let fsm_valid_nets =
    List.map (fun (m : Rtl.module_decl) -> m.Rtl.mod_name ^ "_addr_valid") fsm_modules
  in
  let fsm_done_nets =
    List.map (fun (m : Rtl.module_decl) -> m.Rtl.mod_name ^ "_done_pulse") fsm_modules
  in
  (* Every per-unit result net feeding the post-activation bus. *)
  let y_sources = ref [] in
  List.iter
    (fun (b : Block.t) ->
      let mod_ref = ensure_module b in
      let decl = Block.to_module { b with Block.block_name = mod_ref } in
      let idx = Option.value ~default:0 (lane_index b.Block.block_name) in
      let dedicated port width =
        (* Dedicated net for this instance's port. *)
        let n = Printf.sprintf "%s_%s" b.Block.block_name port in
        declare n width;
        n
      in
      let y_net port width =
        let n = dedicated port width in
        y_sources := n :: !y_sources;
        n
      in
      let bus_of port_name width =
        match (b.Block.kind, port_name) with
        | Block.Synergy_neuron _, "feature" -> slice "feature_bus" ~index:idx ~width
        | Block.Synergy_neuron _, "weight" -> slice "weight_bus" ~index:idx ~width
        | Block.Synergy_neuron _, "partial_sum" ->
            slice "partial_bus" ~index:idx ~width
        | Block.Accumulator _, "value" -> slice "partial_bus" ~index:idx ~width
        | Block.Accumulator _, "total" -> slice "accum_bus" ~index:idx ~width
        | Block.Pooling_unit _, "value" -> slice "accum_bus" ~index:idx ~width
        | Block.Pooling_unit _, "result" -> slice "pool_bus" ~index:idx ~width
        | (Block.Activation_unit _ | Block.Dropout_unit), "x" ->
            slice "xbar_bus" ~index:0 ~width
        | (Block.Activation_unit _ | Block.Dropout_unit), "y" -> y_net "y" width
        | Block.Activation_unit _, port when String.starts_with ~prefix:"y_" port
          ->
            y_net port width
        | Block.Dropout_unit, "enable_inference" -> "1'b1"
        | Block.Lrn_unit _, "centre" -> slice "xbar_bus" ~index:0 ~width
        | Block.Lrn_unit _, "neighbours" ->
            fit "xbar_bus" ~from_width:(lanes * dp_w) ~to_width:width
        | Block.Lrn_unit _, "normalised" -> y_net "normalised" width
        | Block.Connection_box _, "in_bus" ->
            fit "accum_bus" ~from_width:(lanes * dp_w) ~to_width:width
        | Block.Connection_box _, "out_bus" -> "xbar_bus"
        | Block.Connection_box _, "select" ->
            concat_bits coordinator_nets ~width
        | Block.Coordinator _, "start" -> "start"
        | Block.Connection_box _, "shift_amount" -> "4'd2"
        | Block.Connection_box _, "shifted" -> y_net "shifted" width
        | Block.Classifier_ksorter _, "scores" ->
            fit "post_act_bus" ~from_width:(lanes * dp_w) ~to_width:width
        | Block.Agu _, "trigger" -> "start"
        | Block.Agu { agu_kind = Block.Main_agu; _ }, "pattern_select" ->
            concat_bits fsm_done_nets ~width
        | Block.Agu _, "pattern_select" -> concat_bits fsm_valid_nets ~width
        | (Block.Feature_buffer _ | Block.Weight_buffer _), "wr_en" ->
            "main_agu_addr_valid"
        | (Block.Feature_buffer _ | Block.Weight_buffer _), "wr_addr" ->
            fit "main_agu_addr" ~from_width:main_addr_bits ~to_width:width
        | (Block.Feature_buffer _ | Block.Weight_buffer _), "wr_data" ->
            fit "m_axi_rdata" ~from_width:64 ~to_width:width
        | Block.Feature_buffer _, "rd_addr" ->
            fit "data_agu_addr" ~from_width:data_addr_bits ~to_width:width
        | Block.Weight_buffer _, "rd_addr" ->
            fit "weight_agu_addr" ~from_width:weight_addr_bits ~to_width:width
        | _, "clear" -> "lane_clear"
        | _, "valid_in" -> "lane_valid"
        | _, "fold_done" -> "fold_done"
        | _, other -> dedicated other width
      in
      add_instance
        {
          Rtl.inst_name = b.Block.block_name;
          module_ref = mod_ref;
          parameters = [];
          connections = connections_for decl ~bus_of;
        })
    block_set.Block_set.blocks;
  (* Instantiate the lowered AGU pattern FSMs: control inputs ride the shared
     handshake nets; each output gets a per-instance status net. *)
  List.iter
    (fun (m : Rtl.module_decl) ->
      let bus_of port width =
        match port with
        | "trigger" -> "start"
        | "row_done" -> "lane_valid"
        | "all_rows_done" | "all_blocks_done" -> "fold_done"
        | other ->
            let n = Printf.sprintf "%s_%s" m.Rtl.mod_name other in
            declare n width;
            n
      in
      add_instance
        {
          Rtl.inst_name = "i_" ^ m.Rtl.mod_name;
          module_ref = m.Rtl.mod_name;
          parameters = [];
          connections = connections_for m ~bus_of;
        })
    fsm_modules;
  let top_name = Rtl.identifier ("accelerator_" ^ network.Db_nn.Network.net_name) in
  (* The post-activation bus carries whichever per-unit results exist; a
     design with no activation/LRN/dropout stage forwards the crossbar. *)
  let post_act_rhs =
    match List.rev !y_sources with
    | [] -> "xbar_bus"
    | ys ->
        let ored =
          match ys with
          | [ only ] -> only
          | _ -> "(" ^ String.concat " | " ys ^ ")"
        in
        if lanes * dp_w = dp_w then ored
        else Printf.sprintf "{{%d{1'b0}}, %s}" ((lanes - 1) * dp_w) ored
  in
  let wdata_terms =
    [ fit "post_act_bus" ~from_width:(lanes * dp_w) ~to_width:64 ]
    @ (if has_pool then
         [ fit "pool_bus" ~from_width:(lanes * dp_w) ~to_width:64 ]
       else [])
    @
    match ksorter_bits with
    | Some kb -> [ fit "ksorter_top_indices" ~from_width:kb ~to_width:64 ]
    | None -> []
  in
  let assigns =
    [
      (* handshakes: a fold completes when all three AGUs finish their
         pattern; lanes accumulate while both on-chip reads are valid *)
      ( "fold_done",
        "main_agu_done_pulse & data_agu_done_pulse & weight_agu_done_pulse" );
      ("lane_valid", "data_agu_addr_valid & weight_agu_addr_valid");
      (* the lanes clear between folds and when the first run starts *)
      ( "lane_clear",
        match coordinator_nets with
        | first :: _ -> "fold_done | " ^ first
        | [] -> "fold_done" );
      (* on-chip buffer read ports feed the lane input buses *)
      ( "feature_bus",
        fit "feature_buffer_rd_data" ~from_width:(port_words * dp_w)
          ~to_width:(lanes * simd * dp_w) );
      ( "weight_bus",
        fit "weight_buffer_rd_data" ~from_width:(port_words * dp_w)
          ~to_width:(lanes * simd * dp_w) );
      ("post_act_bus", post_act_rhs);
      (* AXI: the main AGU addresses DRAM in both directions; results are
         written back from the post-activation/pooling/classifier stage *)
      ( "m_axi_araddr",
        fit "main_agu_addr" ~from_width:main_addr_bits ~to_width:32 );
      ( "m_axi_awaddr",
        fit "main_agu_addr" ~from_width:main_addr_bits ~to_width:32 );
      ("m_axi_wdata", String.concat " | " wdata_terms);
      ("done", "fold_done");
    ]
  in
  let top =
    {
      Rtl.mod_name = top_name;
      ports =
        [
          { Rtl.port_name = "clk"; direction = Rtl.Input; width = 1 };
          { Rtl.port_name = "rst"; direction = Rtl.Input; width = 1 };
          { Rtl.port_name = "start"; direction = Rtl.Input; width = 1 };
          { Rtl.port_name = "m_axi_araddr"; direction = Rtl.Output; width = 32 };
          { Rtl.port_name = "m_axi_rdata"; direction = Rtl.Input; width = 64 };
          { Rtl.port_name = "m_axi_awaddr"; direction = Rtl.Output; width = 32 };
          { Rtl.port_name = "m_axi_wdata"; direction = Rtl.Output; width = 64 };
          { Rtl.port_name = "done"; direction = Rtl.Output; width = 1 };
        ];
      localparams =
        [ ("LANES", lanes); ("SIMD", simd); ("WORD_BITS", dp_w) ];
      body =
        Rtl.Structural
          {
            nets = List.rev !nets;
            instances = List.rev !instances;
            assigns;
          };
    }
  in
  let design =
    {
      Rtl.top = top_name;
      modules = List.rev !leaf_modules @ rom_modules @ fsm_modules @ [ top ];
    }
  in
  Rtl.validate design;
  design

(* Lower the frontend network once, stamped with the datapath format; the
   whole generation pipeline (config search, schedule, compilation, RTL)
   consumes this one graph, so the schedule matches the network node for
   node. *)
let lower_for_generation cons network =
  Db_obs.Obs.with_span "lower" (fun () ->
      let ir = Db_ir.Lower.lower ~fmt:cons.Constraints.fmt network in
      Db_ir.Verify.check_exn ir;
      ir)

let assemble ?tiling_enabled cons network ir (picked : Config_search.result) =
  let program =
    Db_obs.Obs.with_span "compile"
      ~attrs:
        [
          ( "lanes",
            string_of_int picked.Config_search.datapath.Datapath.lanes );
          ( "tiling",
            match tiling_enabled with
            | Some b -> string_of_bool b
            | None -> "default" );
        ]
      (fun () ->
        Compiler.compile ?tiling_enabled ir
          ~datapath:picked.Config_search.datapath
          ~schedule:picked.Config_search.schedule
          ~layout:picked.Config_search.layout)
  in
  let rtl =
    Db_obs.Obs.with_span "rtl" (fun () ->
        build_rtl network picked.Config_search.datapath
          ~block_set:picked.Config_search.block_set ~program)
  in
  let design =
    {
      Design.network;
      ir;
      constraints = cons;
      datapath = picked.Config_search.datapath;
      schedule = picked.Config_search.schedule;
      layout = picked.Config_search.layout;
      block_set = picked.Config_search.block_set;
      program;
      rtl;
    }
  in
  Db_obs.Obs.incr "generator.designs";
  (* Every generated design must pass semantic analysis before it can be
     emitted; a failure here is a generator bug, not a user error. *)
  (match
     Db_obs.Obs.with_span "analysis" (fun () ->
         Db_analysis.Diagnostic.errors (Design.analyze design))
   with
  | [] -> ()
  | first :: _ as errs ->
      Db_util.Error.failf_at ~component:"generator"
        "generated design failed static analysis: %d error(s); first: %s"
        (List.length errs)
        (Db_analysis.Diagnostic.to_string first));
  (* ... and the same for the range/memory-safety checker: an error-level
     DB-R/DB-M finding on a freshly generated design is a generator bug. *)
  Checker.gate design;
  design

let generate ?tiling_enabled cons network =
  Db_obs.Obs.with_span "generate"
    ~attrs:[ ("network", network.Db_nn.Network.net_name) ]
    (fun () ->
      let ir = lower_for_generation cons network in
      let picked =
        Db_obs.Obs.with_span "search" (fun () -> Config_search.search cons ir)
      in
      Db_obs.Obs.set_attr "lanes"
        (string_of_int picked.Config_search.datapath.Datapath.lanes);
      assemble ?tiling_enabled cons network ir picked)

let generate_with_lanes ?tiling_enabled cons network ~lanes =
  Db_obs.Obs.with_span "generate"
    ~attrs:
      [
        ("network", network.Db_nn.Network.net_name);
        ("lanes", string_of_int lanes);
      ]
    (fun () ->
      let ir = lower_for_generation cons network in
      assemble ?tiling_enabled cons network ir
        (Db_obs.Obs.with_span "search" (fun () ->
             Config_search.evaluate cons ir ~lanes)))

let generate_from_script ?tiling_enabled ~model ~constraint_script () =
  let network =
    Db_obs.Obs.with_span "parse" (fun () -> Db_nn.Caffe.import_string model)
  in
  let cons =
    Db_obs.Obs.with_span "constraints" (fun () ->
        Constraints.parse constraint_script)
  in
  generate ?tiling_enabled cons network
