(* Cycle-accurate and bit-exact replay of one on-chip SGD step.

   Two halves, mirroring the inference simulator's split:

   - The *cycle* half compiles the training-lowered graph through the same
     AGU compiler the inference path uses (the three-phase schedule is an
     ordinary [Schedule.t] underneath) and prices every fold with
     [Perf_model.fold_cost], attributing folds to FF/BP/UP by the node's
     phase.  Inter-phase activation spills (the [Act_cache] plan) are
     priced as one sequential DRAM burst per step.

   - The *functional* half interprets the training graph in fixed point:
     FF nodes run through [Quantized.eval_node] (bitwise identical to the
     inference engines), BP nodes through integer backward kernels, and
     UP nodes through the update-unit arithmetic (eta·grad and
     momentum·vel products rescaled [>>> frac] exactly as the RTL does).
     Batch gradients accumulate in wide integers sized like the
     [Grad_buffer] blocks.  The loop consumes the RNG exactly as
     [Db_train.Trainer.train] does, so the two loss trajectories are
     directly comparable sample-for-sample. *)

module Graph = Db_ir.Graph
module Op = Db_ir.Op
module Fixed = Db_fixed.Fixed
module Tensor = Db_tensor.Tensor
module Quantized = Db_nn.Quantized
module Params = Db_nn.Params
module Trainer = Db_train.Trainer
module Loss = Db_train.Loss
module Train_schedule = Db_sched.Train_schedule
module Datapath = Db_sched.Datapath
module Folding = Db_sched.Folding
module Compiler = Db_core.Compiler
module Train_builder = Db_core.Train_builder
module Act_cache = Db_mem.Act_cache

let fail fmt = Db_util.Error.failf_at ~component:"train-sim" fmt

(* ------------------------------------------------------------------ *)
(* Cycle model                                                        *)
(* ------------------------------------------------------------------ *)

type phase_cycles = {
  pc_phase : Train_schedule.phase;
  pc_cycles : int;
  pc_compute_cycles : int;
  pc_memory_cycles : int;
  pc_dram_bytes : int;
  pc_folds : int;
}

type cycle_report = {
  ff : phase_cycles;
  bp : phase_cycles;
  up : phase_cycles;
  spill_cycles : int;
  spill_bytes : int;
  step_cycles : int;  (** one full FF→BP→UP SGD step *)
}

let compile_programs (tb : Train_builder.t) =
  let dp = tb.Train_builder.base.Db_core.Design.datapath in
  let tgraph = tb.Train_builder.tgraph in
  let layout =
    Db_mem.Layout.build ~bytes_per_word:(Fixed.word_bytes dp.Datapath.fmt)
      ~port_width:dp.Datapath.port_words tgraph
  in
  let program =
    Compiler.compile tgraph ~datapath:dp
      ~schedule:tb.Train_builder.tschedule.Train_schedule.schedule ~layout
  in
  program.Compiler.programs

let phase_table (tgraph : Graph.t) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (n : Graph.node) ->
      Hashtbl.replace tbl n.Graph.node_name (Train_schedule.node_phase n))
    tgraph.Graph.nodes;
  tbl

let spill_cost (tb : Train_builder.t) =
  let dp = tb.Train_builder.base.Db_core.Design.datapath in
  let words = Act_cache.dram_words_per_step tb.Train_builder.act_cache in
  let bytes = words * Fixed.word_bytes dp.Datapath.fmt in
  (* Spills are whole-tensor bursts: write after FF, read during BP. *)
  (Perf_model.burst_cycles ~bytes, bytes)

let empty_phase phase =
  {
    pc_phase = phase;
    pc_cycles = 0;
    pc_compute_cycles = 0;
    pc_memory_cycles = 0;
    pc_dram_bytes = 0;
    pc_folds = 0;
  }

let compile_trace (tb : Train_builder.t) =
  Db_obs.Obs.with_span "train_sim.compile_trace" (fun () ->
      let dp = tb.Train_builder.base.Db_core.Design.datapath in
      let phases = phase_table tb.Train_builder.tgraph in
      let acc = Hashtbl.create 3 in
      List.iter
        (fun p -> Hashtbl.replace acc p (empty_phase p))
        [ Train_schedule.Ff; Train_schedule.Bp; Train_schedule.Up ];
      List.iter
        (fun (p : Compiler.fold_program) ->
          let c = Perf_model.fold_cost dp p in
          let phase =
            match
              Hashtbl.find_opt phases p.Compiler.fold.Folding.fold_layer
            with
            | Some ph -> ph
            | None ->
                fail "fold %S names no node of the training graph"
                  p.Compiler.fold.Folding.fold_layer
          in
          let r = Hashtbl.find acc phase in
          Hashtbl.replace acc phase
            {
              r with
              pc_cycles = r.pc_cycles + c.Perf_model.fold_cycles;
              pc_compute_cycles =
                r.pc_compute_cycles + c.Perf_model.compute_cycles;
              pc_memory_cycles = r.pc_memory_cycles + c.Perf_model.memory_cycles;
              pc_dram_bytes = r.pc_dram_bytes + c.Perf_model.dram_bytes;
              pc_folds = r.pc_folds + 1;
            })
        (compile_programs tb);
      let spill_cycles, spill_bytes = spill_cost tb in
      let ff = Hashtbl.find acc Train_schedule.Ff in
      let bp = Hashtbl.find acc Train_schedule.Bp in
      let up = Hashtbl.find acc Train_schedule.Up in
      Db_obs.Obs.incr "train_sim.traces_compiled";
      {
        ff;
        bp;
        up;
        spill_cycles;
        spill_bytes;
        step_cycles =
          ff.pc_cycles + bp.pc_cycles + up.pc_cycles + spill_cycles;
      })

let steps_per_second (tb : Train_builder.t) (r : cycle_report) =
  let clock =
    tb.Train_builder.base.Db_core.Design.constraints
      .Db_core.Constraints.clock_mhz
  in
  let timing = Db_fpga.Timing.at_mhz clock in
  let seconds = Db_fpga.Timing.cycles_to_seconds timing r.step_cycles in
  if seconds > 0.0 then 1.0 /. seconds else 0.0

let pp_cycles fmtr (r : cycle_report) =
  let phase (p : phase_cycles) =
    Format.fprintf fmtr "  %-4s %8d cycles  (%d folds, %d DRAM bytes)@."
      (Train_schedule.phase_name p.pc_phase)
      p.pc_cycles p.pc_folds p.pc_dram_bytes
  in
  Format.fprintf fmtr "one SGD step:@.";
  phase r.ff;
  phase r.bp;
  phase r.up;
  Format.fprintf fmtr "  spill %6d cycles  (%d bytes)@." r.spill_cycles
    r.spill_bytes;
  Format.fprintf fmtr "  total %6d cycles@." r.step_cycles

(* ------------------------------------------------------------------ *)
(* Functional quantized SGD                                           *)
(* ------------------------------------------------------------------ *)

type injection =
  | Grad_bit_flip of { node : string; word : int; bit : int }
      (** flip one bit of the named layer's batch-gradient accumulator
          just before the UP phase reads it *)
  | Update_freeze of { node : string }
      (** the update FSM for the named layer stalls: its SGD update never
          commits (weights and velocity stay put, gradients are dropped) *)

type state = {
  fmt : Fixed.format;
  eval : Quantized.function_eval;
  (* forward node name -> quantized params / velocities / wide gradient
     accumulators (one array per parameter tensor, in [Params] order) *)
  qparams : (string, Quantized.qtensor list) Hashtbl.t;
  vel : (string, int array list) Hashtbl.t;
  gacc : (string, int array list) Hashtbl.t;
  ff_nodes : Graph.node list;
  bp_nodes : Graph.node list;
  up_nodes : Graph.node list;
  input_blob : string;
  final_top : string;
  seed_blob : string;
}

let strip_prefix ~prefix s =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    String.sub s pl (String.length s - pl)
  else fail "blob %S lacks the %S prefix of the training lowering" s prefix

let init_state ~fmt ~eval (tgraph : Graph.t) params =
  let is_seed (n : Graph.node) =
    Op.is_input n.Graph.op && n.Graph.node_name = "grad:seed"
  in
  let input_blob =
    match
      List.find_opt
        (fun (n : Graph.node) -> Op.is_input n.Graph.op && not (is_seed n))
        tgraph.Graph.nodes
    with
    | Some n -> List.hd n.Graph.outputs
    | None -> fail "training graph has no data input"
  in
  let seed_blob =
    match List.find_opt is_seed tgraph.Graph.nodes with
    | Some n -> List.hd n.Graph.outputs
    | None -> fail "training graph has no gradient seed (not training-lowered?)"
  in
  let final_top = strip_prefix ~prefix:"d:" seed_blob in
  let by_phase p =
    List.filter
      (fun (n : Graph.node) ->
        (not (Op.is_input n.Graph.op)) && Train_schedule.node_phase n = p)
      tgraph.Graph.nodes
  in
  let ff_nodes = by_phase Train_schedule.Ff in
  let st =
    {
      fmt;
      eval;
      qparams = Hashtbl.create 16;
      vel = Hashtbl.create 16;
      gacc = Hashtbl.create 16;
      ff_nodes;
      bp_nodes = by_phase Train_schedule.Bp;
      up_nodes = by_phase Train_schedule.Up;
      input_blob;
      final_top;
      seed_blob;
    }
  in
  List.iter
    (fun (n : Graph.node) ->
      match Params.get params n.Graph.node_name with
      | [] -> ()
      | tensors ->
          let qs = List.map (Quantized.quantize fmt) tensors in
          Hashtbl.replace st.qparams n.Graph.node_name qs;
          Hashtbl.replace st.vel n.Graph.node_name
            (List.map
               (fun (q : Quantized.qtensor) ->
                 Array.make (Array.length q.Quantized.qdata) 0)
               qs);
          Hashtbl.replace st.gacc n.Graph.node_name
            (List.map
               (fun (q : Quantized.qtensor) ->
                 Array.make (Array.length q.Quantized.qdata) 0)
               qs))
    ff_nodes;
  st

let forward_pass st env =
  List.iter
    (fun (n : Graph.node) ->
      let bottom =
        match n.Graph.inputs with
        | [ b ] -> b
        | _ -> fail "forward node %S is not single-bottom" n.Graph.node_name
      in
      let x =
        match Hashtbl.find_opt env bottom with
        | Some q -> q
        | None -> fail "blob %S evaluated before its producer" bottom
      in
      let params =
        Option.value ~default:[]
          (Hashtbl.find_opt st.qparams n.Graph.node_name)
      in
      let y =
        Quantized.eval_node st.fmt st.eval n.Graph.op ~params ~bottoms:[ x ]
      in
      Hashtbl.replace env (List.hd n.Graph.outputs) y)
    st.ff_nodes

(* Integer backward kernels.  Products of two fmt-scale words live at
   [frac*2] fractional bits; [rescale_acc] brings them back, exactly as
   the forward MAC datapath does. *)

let fc_grad_params st ~fwd ~dy ~x ~target =
  let nout = Array.length dy and nin = Array.length x in
  let frac = st.fmt.Fixed.frac_bits in
  match Hashtbl.find_opt st.gacc target with
  | None -> fail "no gradient accumulator for layer %S" target
  | Some (gw :: rest) ->
      if Array.length gw <> nout * nin then
        fail "gradient accumulator shape mismatch for %S" target;
      for j = 0 to nout - 1 do
        let dyj = dy.(j) in
        let row = j * nin in
        for i = 0 to nin - 1 do
          gw.(row + i) <- gw.(row + i) + (dyj * x.(i))
        done
      done;
      (match rest, Op.has_bias fwd with
      | [ gb ], true ->
          (* bias grads join the same frac*2-scale accumulator *)
          for j = 0 to nout - 1 do
            gb.(j) <- gb.(j) + (dy.(j) lsl frac)
          done
      | [], false -> ()
      | _ -> fail "parameter/accumulator arity mismatch for %S" target)
  | Some [] -> fail "empty gradient accumulator for layer %S" target

let fc_grad_input st ~dy ~weights ~nin =
  let nout = Array.length dy in
  Array.init nin (fun i ->
      let acc = ref 0 in
      for j = 0 to nout - 1 do
        (* transposed read: W[j][i] through the Transpose_port swizzle *)
        acc := !acc + (weights.((j * nin) + i) * dy.(j))
      done;
      Quantized.rescale_acc st.fmt !acc)

let act_grad_input st ~act ~dy ~refv =
  let one = 1 lsl st.fmt.Fixed.frac_bits in
  Array.init (Array.length dy) (fun i ->
      match act with
      | Op.Relu -> if refv.(i) > 0 then dy.(i) else 0
      | Op.Sigmoid ->
          (* ref is the forward output y; dσ = y(1-y) *)
          let d = Quantized.rescale_acc st.fmt (refv.(i) * (one - refv.(i))) in
          Quantized.rescale_acc st.fmt (dy.(i) * d)
      | Op.Tanh ->
          let d =
            Quantized.rescale_acc st.fmt ((one * one) - (refv.(i) * refv.(i)))
          in
          Quantized.rescale_acc st.fmt (dy.(i) * d)
      | Op.Sign -> fail "sign activation has no usable gradient")

let softmax_grad_input st ~dy ~y =
  let n = Array.length dy in
  let dot = ref 0 in
  for j = 0 to n - 1 do
    dot := !dot + (dy.(j) * y.(j))
  done;
  let s = Quantized.rescale_acc st.fmt !dot in
  Array.init n (fun i ->
      Quantized.rescale_acc st.fmt (y.(i) * (dy.(i) - s)))

let backward_pass st env =
  List.iter
    (fun (n : Graph.node) ->
      let dy_blob, ref_blob =
        match n.Graph.inputs with
        | [ a; b ] -> (a, b)
        | _ -> fail "backward node %S is not [dY; ref]" n.Graph.node_name
      in
      let dy = (Hashtbl.find env dy_blob).Quantized.qdata in
      let refq = Hashtbl.find env ref_blob in
      let refv = refq.Quantized.qdata in
      match n.Graph.op with
      | Op.Backward { fwd; wrt = Op.Wrt_params } -> begin
          let target = strip_prefix ~prefix:"g:" (List.hd n.Graph.outputs) in
          match fwd with
          | Op.Fc _ -> fc_grad_params st ~fwd ~dy ~x:refv ~target
          | other ->
              fail "hardware training does not yet model %s weight gradients"
                (Op.name other)
        end
      | Op.Backward { fwd; wrt = Op.Wrt_input } ->
          let dx =
            match fwd with
            | Op.Fc _ ->
                let target = strip_prefix ~prefix:"bp_dx:" n.Graph.node_name in
                let weights =
                  match Hashtbl.find_opt st.qparams target with
                  | Some (w :: _) -> w.Quantized.qdata
                  | _ -> fail "no weights for layer %S" target
                in
                fc_grad_input st ~dy ~weights ~nin:(Array.length refv)
            | Op.Act act -> act_grad_input st ~act ~dy ~refv
            | Op.Softmax -> softmax_grad_input st ~dy ~y:refv
            | other ->
                fail "hardware training does not yet model %s input gradients"
                  (Op.name other)
          in
          Hashtbl.replace env (List.hd n.Graph.outputs)
            { Quantized.qshape = refq.Quantized.qshape; qdata = dx }
      | _ ->
          fail "node %S in the BP phase is not a backward op"
            n.Graph.node_name)
    st.bp_nodes

(* The update-unit arithmetic, verbatim from the RTL: two fmt-scale
   products per weight, each rescaled [>>> frac], then a saturating add. *)
let update_pass st ~(config : Trainer.config) ~batch ~inject =
  let fmt = st.fmt in
  let eta_q = Fixed.of_float fmt (config.Trainer.learning_rate /. float_of_int batch) in
  let mom_q = Fixed.of_float fmt config.Trainer.momentum in
  let wd_q = Fixed.of_float fmt config.Trainer.weight_decay in
  List.iter
    (fun (n : Graph.node) ->
      let target =
        match n.Graph.op with
        | Op.Sgd_update { target } -> target
        | _ -> fail "node %S in the UP phase is not an update" n.Graph.node_name
      in
      let frozen =
        List.exists
          (function Update_freeze { node } -> node = target | _ -> false)
          inject
      in
      let gaccs = Hashtbl.find st.gacc target in
      List.iter
        (fun i ->
          match i with
          | Grad_bit_flip { node; word; bit } when node = target ->
              let rec place w = function
                | [] -> ()
                | (a : int array) :: rest ->
                    if w < Array.length a then
                      a.(w) <- a.(w) lxor (1 lsl bit)
                    else place (w - Array.length a) rest
              in
              place word gaccs
          | _ -> ())
        inject;
      if not frozen then begin
        let qs = Hashtbl.find st.qparams target in
        let vels = Hashtbl.find st.vel target in
        List.iter2
          (fun (q : Quantized.qtensor) (vel, gacc) ->
            let w = q.Quantized.qdata in
            for k = 0 to Array.length w - 1 do
              let grad_q = Quantized.rescale_acc fmt gacc.(k) in
              let g =
                Fixed.add fmt
                  (Quantized.rescale_acc fmt (grad_q * eta_q))
                  (Quantized.rescale_acc fmt (wd_q * w.(k)))
              in
              let v =
                Fixed.sub fmt (Quantized.rescale_acc fmt (mom_q * vel.(k))) g
              in
              vel.(k) <- v;
              w.(k) <- Fixed.add fmt w.(k) v
            done)
          qs
          (List.combine vels gaccs)
      end;
      List.iter (fun g -> Array.fill g 0 (Array.length g) 0) gaccs)
    st.up_nodes

let train ?(config = Trainer.default_config) ?(eval = Quantized.exact_eval)
    ?(inject = []) ~rng (tb : Train_builder.t) params samples =
  if Array.length samples = 0 then fail "no training samples";
  let fmt = tb.Train_builder.base.Db_core.Design.datapath.Datapath.fmt in
  let st = init_state ~fmt ~eval tb.Train_builder.tgraph params in
  let order = Array.init (Array.length samples) (fun i -> i) in
  let losses =
    Array.init config.Trainer.epochs (fun _epoch ->
        Db_util.Rng.shuffle rng order;
        let epoch_loss = ref 0.0 in
        let i = ref 0 in
        while !i < Array.length order do
          let batch_end =
            Stdlib.min (Array.length order) (!i + config.Trainer.batch_size)
          in
          for j = !i to batch_end - 1 do
            let sample = samples.(order.(j)) in
            let env = Hashtbl.create 32 in
            Hashtbl.replace env st.input_blob
              (Quantized.quantize fmt sample.Trainer.input);
            forward_pass st env;
            let prediction =
              Quantized.dequantize fmt (Hashtbl.find env st.final_top)
            in
            epoch_loss :=
              !epoch_loss
              +. Loss.forward config.Trainer.loss ~prediction
                   ~target:sample.Trainer.target;
            let grad =
              Loss.backward config.Trainer.loss ~prediction
                ~target:sample.Trainer.target
            in
            Hashtbl.replace env st.seed_blob (Quantized.quantize fmt grad);
            backward_pass st env
          done;
          update_pass st ~config ~batch:(batch_end - !i) ~inject;
          i := batch_end
        done;
        !epoch_loss /. float_of_int (Array.length samples))
  in
  (* Commit the trained weights back to the caller's store, in graph
     order (iteration order must not depend on hash-table internals). *)
  List.iter
    (fun (n : Graph.node) ->
      match Hashtbl.find_opt st.qparams n.Graph.node_name with
      | Some qs ->
          Params.set params n.Graph.node_name
            (List.map (Quantized.dequantize fmt) qs)
      | None -> ())
    st.ff_nodes;
  Db_obs.Obs.incr "train_sim.runs";
  {
    Trainer.losses;
    final_loss =
      (if config.Trainer.epochs = 0 then nan
       else losses.(config.Trainer.epochs - 1));
  }
