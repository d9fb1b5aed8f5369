(* Training-mode hardware assembly.  A training accelerator is the
   inference design (the FF processor set) plus the BP/UP processor sets
   that share its weight memories: per weighted layer a transposed read
   port (BP reads Wᵀ through the same array FF reads row-major) and a
   gradient accumulator bank sized by the DB-R003 range proof, plus one
   SGD update unit spanning the datapath lanes.  The three sets never run
   concurrently — the FF→BP→UP phase FSM ([Db_sched.Train_schedule])
   hands the weight-memory ports from one set to the next — which is what
   lets them share the arrays instead of duplicating them. *)

module Block = Db_blocks.Block
module Datapath = Db_sched.Datapath
module Graph = Db_ir.Graph
module Op = Db_ir.Op
module Shape = Db_tensor.Shape
module Rtl = Db_hdl.Rtl
module Resource = Db_fpga.Resource

let fail fmt = Db_util.Error.failf_at ~component:"train-builder" fmt

type t = {
  base : Design.t;  (** the untouched inference design (FF set) *)
  tgraph : Db_ir.Graph.t;  (** training-lowered graph (FF+BP+UP nodes) *)
  tschedule : Db_sched.Train_schedule.t;
  act_cache : Db_mem.Act_cache.plan;
  grad_acc_bits : int;
  train_blocks : Block.t list;  (** BP/UP additions over the base set *)
  train_resource : Resource.t;  (** cost of the additions alone *)
  train_rtl : Rtl.design;  (** the BP/UP modules + phase FSM *)
}

let ceil_log2 n =
  Stdlib.max 1
    (int_of_float (Float.ceil (log (float_of_int (Stdlib.max 2 n)) /. log 2.0)))

(* Accumulator width for batch-summed gradients: the forward DB-R003
   proof bounds one sample's dot products; summing a batch adds
   ceil(log2 batch) carry bits on top.  Same floor/cap conventions as
   [Block_set.build]. *)
let grad_acc_bits_for ~fmt ~batch g =
  let proven = Db_check.Range.min_acc_bits ~fmt g in
  let w = fmt.Db_fixed.Fixed.total_bits in
  Stdlib.min 62 (Stdlib.max (w + 8) (proven + ceil_log2 (Stdlib.max 1 batch)))

let weighted_forward_nodes (g : Graph.t) =
  List.filter
    (fun (n : Graph.node) ->
      Op.is_weighted n.Graph.op && not (Op.is_training n.Graph.op))
    g.Graph.nodes

let sum_numel shapes =
  List.fold_left (fun acc s -> acc + Shape.numel s) 0 shapes

let train_blocks_for (base : Design.t) ~tgraph ~grad_acc_bits =
  let dp = base.Design.datapath in
  let fmt = dp.Datapath.fmt in
  (* Each bank holds the gradient its layer's update consumes: a recurrent
     layer's held feedback weights get none ([Lower.lower_training]). *)
  let update_words =
    List.filter_map
      (fun (n : Graph.node) ->
        match n.Graph.op with
        | Op.Sgd_update { target } ->
            Some (target, Shape.numel n.Graph.out_shape)
        | _ -> None)
      tgraph.Graph.nodes
  in
  let per_layer =
    List.concat_map
      (fun (n : Graph.node) ->
        let weights =
          match n.Graph.param_shapes with
          | w :: _ -> w
          | [] -> fail "weighted node %S has no parameter shapes" n.Graph.node_name
        in
        let rows =
          match Op.num_output n.Graph.op with
          | Some r when r > 0 -> r
          | _ -> 1
        in
        let cols = Stdlib.max 1 (Shape.numel weights / rows) in
        let words =
          Option.value
            (List.assoc_opt n.Graph.node_name update_words)
            ~default:(sum_numel n.Graph.param_shapes)
        in
        [
          Block.make ~fmt
            ~name:("transpose_port_" ^ n.Graph.node_name)
            (Block.Transpose_port { rows; cols });
          Block.make ~fmt
            ~name:("grad_buffer_" ^ n.Graph.node_name)
            (Block.Grad_buffer
               {
                 words;
                 port_words = dp.Datapath.port_words;
                 acc_bits = grad_acc_bits;
               });
        ])
      (weighted_forward_nodes base.Design.ir)
  in
  per_layer
  @ [
      Block.make ~fmt ~name:"update_unit_0"
        (Block.Update_unit { lanes = dp.Datapath.lanes });
    ]

(* The BP/UP hardware as its own small design: deduplicated leaf modules,
   the lowered phase FSM, and a structural top that instantiates one of
   each with dedicated nets per port (the beat-exact wiring into the FF
   set is the coordinator's job, as in the inference top). *)
let build_train_rtl net_name ~blocks ~phase_fsm =
  let module_table = Hashtbl.create 16 in
  let leaf_modules = ref [] in
  let ensure_module (b : Block.t) =
    let name = Generator.canonical_module_name b in
    if not (Hashtbl.mem module_table name) then begin
      Hashtbl.add module_table name ();
      leaf_modules :=
        Block.to_module { b with Block.block_name = name } :: !leaf_modules
    end;
    name
  in
  let fsm_module = Rtl.of_fsm phase_fsm in
  let nets = ref [] in
  let declare name width =
    if not (List.exists (fun (n : Rtl.net) -> n.Rtl.net_name = name) !nets)
    then nets := { Rtl.net_name = name; net_width = width } :: !nets
  in
  let connections (decl : Rtl.module_decl) ~inst =
    List.map
      (fun (p : Rtl.port) ->
        let actual =
          match p.Rtl.port_name with
          | "clk" -> "clk"
          | "rst" -> "rst"
          | "start" -> "start"
          | "phase_done" -> "phase_done"
          | other ->
              let n = Printf.sprintf "%s_%s" inst other in
              declare n p.Rtl.width;
              n
        in
        (p.Rtl.port_name, actual))
      decl.Rtl.ports
  in
  let instances = ref [] in
  List.iter
    (fun (b : Block.t) ->
      let mod_ref = ensure_module b in
      let decl = Block.to_module { b with Block.block_name = mod_ref } in
      instances :=
        {
          Rtl.inst_name = b.Block.block_name;
          module_ref = mod_ref;
          parameters = [];
          connections = connections decl ~inst:b.Block.block_name;
        }
        :: !instances)
    blocks;
  instances :=
    {
      Rtl.inst_name = "i_" ^ fsm_module.Rtl.mod_name;
      module_ref = fsm_module.Rtl.mod_name;
      parameters = [];
      connections = connections fsm_module ~inst:fsm_module.Rtl.mod_name;
    }
    :: !instances;
  let top_name = Rtl.identifier ("train_" ^ net_name) in
  let top =
    {
      Rtl.mod_name = top_name;
      ports =
        [
          { Rtl.port_name = "clk"; direction = Rtl.Input; width = 1 };
          { Rtl.port_name = "rst"; direction = Rtl.Input; width = 1 };
          { Rtl.port_name = "start"; direction = Rtl.Input; width = 1 };
          { Rtl.port_name = "phase_done"; direction = Rtl.Input; width = 1 };
        ];
      localparams = [];
      body =
        Rtl.Structural
          {
            nets = List.rev !nets;
            instances = List.rev !instances;
            assigns = [];
          };
    }
  in
  let design =
    {
      Rtl.top = top_name;
      modules = List.rev !leaf_modules @ [ fsm_module; top ];
    }
  in
  Rtl.validate design;
  design

let build ?tiling_enabled ?(batch = 16) cons network =
  Db_obs.Obs.with_span "train_build"
    ~attrs:[ ("network", network.Db_nn.Network.net_name) ]
    (fun () ->
      let base = Design_cache.generate ?tiling_enabled cons network in
      let tgraph =
        Db_ir.Lower.lower_training ~fmt:cons.Constraints.fmt network
      in
      Db_ir.Verify.check_exn tgraph;
      let tschedule =
        Db_sched.Train_schedule.build base.Design.datapath tgraph
      in
      let act_cache =
        Db_mem.Act_cache.plan tgraph
          ~budget_words:
            base.Design.datapath.Datapath.feature_buffer_words
      in
      let grad_acc_bits =
        grad_acc_bits_for ~fmt:cons.Constraints.fmt ~batch base.Design.ir
      in
      let train_blocks = train_blocks_for base ~tgraph ~grad_acc_bits in
      let train_resource =
        List.fold_left
          (fun acc b -> Resource.add acc (Block.resource b))
          (Resource.make ()) train_blocks
      in
      let phase_fsm = Db_sched.Train_schedule.phase_fsm tschedule in
      let train_rtl =
        build_train_rtl network.Db_nn.Network.net_name ~blocks:train_blocks
          ~phase_fsm
      in
      (* Same gate as the inference generator: a training design whose
         added RTL fails semantic analysis is a builder bug. *)
      (match
         Db_analysis.Diagnostic.errors
           (Db_analysis.Analyze.design train_rtl)
       with
      | [] -> ()
      | first :: _ as errs ->
          fail "training RTL failed static analysis: %d error(s); first: %s"
            (List.length errs)
            (Db_analysis.Diagnostic.to_string first));
      Db_obs.Obs.incr "train_builder.designs";
      {
        base;
        tgraph;
        tschedule;
        act_cache;
        grad_acc_bits;
        train_blocks;
        train_resource;
        train_rtl;
      })

let total_resource t =
  Resource.add (Design.resource_usage t.base) t.train_resource

let verilog t = Db_hdl.Verilog.emit_design t.train_rtl

let pp_summary fmt t =
  Format.fprintf fmt "training accelerator for %S:@."
    t.base.Design.network.Db_nn.Network.net_name;
  Format.fprintf fmt "  %a" Db_sched.Train_schedule.pp t.tschedule;
  Format.fprintf fmt "  gradient accumulators: %d bits@." t.grad_acc_bits;
  Format.fprintf fmt "  %a" Db_mem.Act_cache.pp t.act_cache;
  Format.fprintf fmt "  BP/UP additions: %d block(s), %a@."
    (List.length t.train_blocks)
    Resource.pp t.train_resource;
  Format.fprintf fmt "  total with FF set: %a@." Resource.pp (total_resource t)
