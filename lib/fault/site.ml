module Graph = Db_ir.Graph
module Op = Db_ir.Op
module Compiler = Db_core.Compiler
module Design = Db_core.Design

let fail fmt = Db_util.Error.failf_at ~component:"fault" fmt

type target_class =
  | Weights
  | Biases
  | Lut_tables
  | Agu_config
  | Data_buffer
  | Control_fsm
  | Grad_buffers
  | Update_fsm

let all_classes =
  [ Weights; Biases; Lut_tables; Agu_config; Data_buffer; Control_fsm ]

let training_classes = all_classes @ [ Grad_buffers; Update_fsm ]

let class_name = function
  | Weights -> "weights"
  | Biases -> "biases"
  | Lut_tables -> "lut-tables"
  | Agu_config -> "agu-config"
  | Data_buffer -> "data-buffer"
  | Control_fsm -> "control-fsm"
  | Grad_buffers -> "grad-buffers"
  | Update_fsm -> "update-fsm"

type agu_field = Start | X_length | Y_length | Stride | Offset | Repeat

let agu_fields = [| Start; X_length; Y_length; Stride; Offset; Repeat |]

let agu_register_bits = 24

let fsm_state_bits = 3

type payload =
  | P_param of { node : string; tensor : int }
  | P_lut of { lut : string }
  | P_agu of { program : int; transfer : int }
  | P_buffer of { blob : string }
  | P_fsm of { program : int }
  | P_grad of { node : string }
  | P_upd_fsm of { node : string }

type group = {
  g_class : target_class;
  g_layer : string option;
  g_label : string;
  g_words : int;
  g_word_bits : int;
  g_payload : payload;
}

type space = { groups : group array; total_bits : int }

let enumerate ?train ~design ~params ~input_blob ~input_words ~stored_bits
    ~targets () =
  let ir = design.Design.ir in
  let word_bits =
    design.Design.datapath.Db_sched.Datapath.fmt.Db_fixed.Fixed.total_bits
  in
  let enabled c = List.mem c targets in
  let groups = ref [] in
  let push g = if g.g_words > 0 then groups := g :: !groups in
  (* Quantized weight and bias words, one group per parameter tensor.  A
     node's last parameter tensor is its bias when the op declares one;
     everything before it is weights. *)
  Graph.iter ir (fun node ->
      let tensors = Db_nn.Params.get params node.Graph.node_name in
      let n = List.length tensors in
      List.iteri
        (fun i t ->
          let cls =
            if Op.has_bias node.Graph.op && i = n - 1 then Biases else Weights
          in
          if enabled cls then
            push
              {
                g_class = cls;
                g_layer = Some node.Graph.node_name;
                g_label =
                  Printf.sprintf "%s/%s[%d]" node.Graph.node_name
                    (class_name cls) i;
                g_words = Db_tensor.Tensor.numel t;
                g_word_bits = stored_bits cls ~word_bits;
                g_payload = P_param { node = node.Graph.node_name; tensor = i };
              })
        tensors);
  (* Approx LUT tables. *)
  if enabled Lut_tables then
    List.iter
      (fun (tb : Db_core.Lut_set.table) ->
        let lut = tb.Db_core.Lut_set.lut in
        push
          {
            g_class = Lut_tables;
            g_layer = None;
            g_label = "lut/" ^ lut.Db_blocks.Approx_lut.lut_name;
            g_words = Db_blocks.Approx_lut.entries lut;
            g_word_bits = stored_bits Lut_tables ~word_bits;
            g_payload = P_lut { lut = lut.Db_blocks.Approx_lut.lut_name };
          })
      design.Design.program.Compiler.luts.Db_core.Lut_set.tables;
  (* AGU configuration registers and pattern FSM state registers. *)
  List.iteri
    (fun pi (p : Compiler.fold_program) ->
      let layer = p.Compiler.fold.Db_sched.Folding.fold_layer in
      List.iteri
        (fun ti (_ : Compiler.transfer) ->
          if enabled Agu_config then
            push
              {
                g_class = Agu_config;
                g_layer = Some layer;
                g_label = Printf.sprintf "%s/agu[%d.%d]" layer pi ti;
                g_words = Array.length agu_fields;
                g_word_bits = stored_bits Agu_config ~word_bits:agu_register_bits;
                g_payload = P_agu { program = pi; transfer = ti };
              })
        p.Compiler.transfers;
      if enabled Control_fsm && p.Compiler.transfers <> [] then
        push
          {
            g_class = Control_fsm;
            g_layer = Some layer;
            g_label = Printf.sprintf "%s/fsm[%d]" layer pi;
            g_words = 1;
            g_word_bits = fsm_state_bits;
            g_payload = P_fsm { program = pi };
          })
    design.Design.program.Compiler.programs;
  if enabled Control_fsm then
    push
      {
        g_class = Control_fsm;
        g_layer = None;
        g_label = "coordinator/fsm";
        g_words = 1;
        g_word_bits = fsm_state_bits;
        g_payload = P_fsm { program = -1 };
      };
  (* Input words sitting in the feature buffer / DRAM input region. *)
  if enabled Data_buffer then
    push
      {
        g_class = Data_buffer;
        g_layer = None;
        g_label = "buffer/" ^ input_blob;
        g_words = input_words;
        g_word_bits = stored_bits Data_buffer ~word_bits;
        g_payload = P_buffer { blob = input_blob };
      };
  (* Training-only storage: batch-gradient accumulator banks and the
     per-layer update FSMs plus the FF→BP→UP phase FSM.  Only present
     when the campaign hands us the training build — inference spaces
     are unchanged. *)
  (match train with
  | None -> ()
  | Some (tb : Db_core.Train_builder.t) ->
      let acc_bits = tb.Db_core.Train_builder.grad_acc_bits in
      Graph.iter tb.Db_core.Train_builder.tgraph (fun node ->
          match node.Graph.op with
          | Op.Sgd_update { target } ->
              let words =
                List.fold_left
                  (fun acc t -> acc + Db_tensor.Tensor.numel t)
                  0
                  (Db_nn.Params.get params target)
              in
              if enabled Grad_buffers then
                push
                  {
                    g_class = Grad_buffers;
                    g_layer = Some target;
                    g_label = target ^ "/grad-buffer";
                    g_words = words;
                    g_word_bits = stored_bits Grad_buffers ~word_bits:acc_bits;
                    g_payload = P_grad { node = target };
                  };
              if enabled Update_fsm then
                push
                  {
                    g_class = Update_fsm;
                    g_layer = Some target;
                    g_label = target ^ "/update-fsm";
                    g_words = 1;
                    g_word_bits = fsm_state_bits;
                    g_payload = P_upd_fsm { node = target };
                  }
          | _ -> ());
      if enabled Update_fsm then
        push
          {
            g_class = Update_fsm;
            g_layer = None;
            g_label = "phase/fsm";
            g_words = 1;
            g_word_bits = fsm_state_bits;
            g_payload = P_upd_fsm { node = "phase" };
          });
  let groups = Array.of_list (List.rev !groups) in
  let total_bits =
    Array.fold_left (fun acc g -> acc + (g.g_words * g.g_word_bits)) 0 groups
  in
  if total_bits = 0 then fail "empty fault space (no enabled targets)";
  { groups; total_bits }

let class_words space cls =
  Array.fold_left
    (fun acc g -> if g.g_class = cls then acc + g.g_words else acc)
    0 space.groups

let pick space rng =
  let r = ref (Db_util.Rng.int rng space.total_bits) in
  let chosen = ref None in
  Array.iter
    (fun g ->
      match !chosen with
      | Some _ -> ()
      | None ->
          let bits = g.g_words * g.g_word_bits in
          if !r < bits then chosen := Some (g, !r / g.g_word_bits, !r mod g.g_word_bits)
          else r := !r - bits)
    space.groups;
  match !chosen with
  | Some site -> site
  | None -> fail "fault-space walk fell off the end" (* unreachable *)
