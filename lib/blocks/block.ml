module Resource = Db_fpga.Resource

type pool_kind = Max_pool | Avg_pool

type agu_kind = Main_agu | Data_agu | Weight_agu

type kind =
  | Synergy_neuron of { simd : int }
  | Accumulator of { depth : int; acc_bits : int }
  | Pooling_unit of { window : int; pool : pool_kind }
  | Activation_unit of { fn : string; roms : Approx_lut.t list }
  | Lrn_unit of { local_size : int; power : Approx_lut.t option }
  | Dropout_unit
  | Connection_box of { in_ports : int; out_ports : int; shift_latch : bool }
  | Classifier_ksorter of { k : int; fan_in : int }
  | Agu of { agu_kind : agu_kind; pattern_count : int; addr_bits : int }
  | Coordinator of { fsm : Db_hdl.Fsm.t }
  | Feature_buffer of { words : int; port_words : int }
  | Weight_buffer of { words : int; port_words : int }
  | Transpose_port of { rows : int; cols : int }
  | Grad_buffer of { words : int; port_words : int; acc_bits : int }
  | Update_unit of { lanes : int }

type t = { block_name : string; kind : kind; fmt : Db_fixed.Fixed.format }

let fail fmt = Db_util.Error.failf_at ~component:"block" fmt

let validate_kind = function
  | Synergy_neuron { simd } ->
      if simd <= 0 then fail "synergy neuron needs simd >= 1"
  | Accumulator { depth; acc_bits } ->
      if depth <= 0 then fail "accumulator needs depth >= 1";
      if acc_bits <= 0 then fail "accumulator needs acc_bits >= 1"
  | Pooling_unit { window; _ } ->
      if window <= 0 then fail "pooling unit needs window >= 1"
  | Activation_unit _ -> ()
  | Lrn_unit { local_size; _ } ->
      if local_size <= 0 then fail "LRN unit needs local_size >= 1"
  | Dropout_unit -> ()
  | Connection_box { in_ports; out_ports; _ } ->
      if in_ports <= 0 || out_ports <= 0 then
        fail "connection box needs positive port counts"
  | Classifier_ksorter { k; fan_in } ->
      if k <= 0 || fan_in < k then fail "k-sorter needs 0 < k <= fan_in"
  | Agu { pattern_count; addr_bits; _ } ->
      if pattern_count <= 0 || addr_bits <= 0 then
        fail "AGU needs positive pattern count and address width"
  | Coordinator { fsm } -> Db_hdl.Fsm.validate fsm
  | Feature_buffer { words; port_words } | Weight_buffer { words; port_words } ->
      if words <= 0 || port_words <= 0 then fail "buffer needs positive sizes"
  | Transpose_port { rows; cols } ->
      if rows <= 0 || cols <= 0 then
        fail "transpose port needs a positive weight matrix"
  | Grad_buffer { words; port_words; acc_bits } ->
      if words <= 0 || port_words <= 0 then
        fail "gradient buffer needs positive sizes";
      if acc_bits <= 0 then fail "gradient buffer needs acc_bits >= 1"
  | Update_unit { lanes } ->
      if lanes <= 0 then fail "update unit needs lanes >= 1"

let make ~name ~fmt kind =
  validate_kind kind;
  (match kind with
  | Accumulator { acc_bits; _ } | Grad_buffer { acc_bits; _ } ->
      if acc_bits < fmt.Db_fixed.Fixed.total_bits then
        fail "accumulator register (%d bits) narrower than the datapath word (%d bits)"
          acc_bits fmt.Db_fixed.Fixed.total_bits
  | _ -> ());
  { block_name = name; kind; fmt }

let kind_label = function
  | Synergy_neuron _ -> "synergy_neuron"
  | Accumulator _ -> "accumulator"
  | Pooling_unit _ -> "pooling_unit"
  | Activation_unit _ -> "activation_unit"
  | Lrn_unit _ -> "lrn_unit"
  | Dropout_unit -> "dropout_unit"
  | Connection_box _ -> "connection_box"
  | Classifier_ksorter _ -> "classifier_ksorter"
  | Agu { agu_kind = Main_agu; _ } -> "main_agu"
  | Agu { agu_kind = Data_agu; _ } -> "data_agu"
  | Agu { agu_kind = Weight_agu; _ } -> "weight_agu"
  | Coordinator _ -> "coordinator"
  | Feature_buffer _ -> "feature_buffer"
  | Weight_buffer _ -> "weight_buffer"
  | Transpose_port _ -> "transpose_port"
  | Grad_buffer _ -> "grad_buffer"
  | Update_unit _ -> "update_unit"

(* Resource calibration.  Anchors (Table 3 of the paper): a 2-lane MLP
   accelerator lands near 2 DSP / 64 LUT / 48 FF; lane-count growth is
   DSP-linear with modest LUT/FF per lane; the connection-box crossbar is
   the quadratic term that dominates wide (DB-L, NiN-class) designs. *)
let resource t =
  let w = t.fmt.Db_fixed.Fixed.total_bits in
  let rom_cost = List.map (fun lut -> Approx_lut.resource lut ~word_bits:w) in
  match t.kind with
  | Synergy_neuron { simd } ->
      Resource.make ~dsps:simd
        ~luts:(10 + (6 * simd) + ((simd - 1) * 8))
        ~ffs:(8 + (4 * simd))
        ()
  | Accumulator { depth; _ } ->
      Resource.make ~luts:((w / 2) + 2 + (depth / 8)) ~ffs:w ()
  | Pooling_unit { window; _ } ->
      Resource.make ~luts:((4 * window) + (w / 2)) ~ffs:w ()
  | Activation_unit { roms; _ } ->
      Resource.sum (Resource.make ~luts:10 () :: rom_cost roms)
  | Lrn_unit { local_size; power } ->
      Resource.sum
        (Resource.make ~luts:(120 + (8 * local_size)) ~ffs:(3 * w) ()
        :: rom_cost (Option.to_list power))
  | Dropout_unit -> Resource.make ~luts:4 ~ffs:2 ()
  | Connection_box { in_ports; out_ports; shift_latch } ->
      Resource.make
        ~luts:((in_ports * out_ports * 2) + if shift_latch then w else 0)
        ~ffs:(out_ports * (w / 4))
        ()
  | Classifier_ksorter { k; fan_in } ->
      let log_k =
        Stdlib.max 1
          (int_of_float (Float.ceil (log (float_of_int (k + 1)) /. log 2.0)))
      in
      Resource.make ~luts:(fan_in * log_k * (w / 4)) ~ffs:(k * w) ()
  | Agu { pattern_count; addr_bits; _ } ->
      Resource.make
        ~luts:((pattern_count * addr_bits * 2) + (addr_bits * 4))
        ~ffs:((addr_bits * 3) + (pattern_count * 2))
        ()
  | Coordinator { fsm } ->
      (* one-hot state register, registered output pulses, and the
         position counter with its increment and compare *)
      let states = List.length fsm.Db_hdl.Fsm.states
      and outputs = List.length fsm.Db_hdl.Fsm.outputs
      and counter = Db_hdl.Fsm.counter_bits fsm in
      Resource.make
        ~luts:((states * 3) + (outputs * 2) + (counter * 2))
        ~ffs:(states + outputs + counter) ()
  | Feature_buffer { words; port_words } | Weight_buffer { words; port_words } ->
      Resource.make ~luts:(port_words * 8) ~ffs:(port_words * w)
        ~bram_bits:(words * w) ()
  | Transpose_port { rows; cols } ->
      (* address-swizzle multiplier/adder plus the read register; the
         memory itself belongs to the weight buffer it taps *)
      let addr_bits =
        Stdlib.max 1
          (int_of_float
             (Float.ceil (log (float_of_int (rows * cols)) /. log 2.0)))
      in
      Resource.make ~luts:(addr_bits * 6) ~ffs:w ()
  | Grad_buffer { words; port_words; acc_bits } ->
      (* read-modify-write adder in full accumulator precision *)
      Resource.make
        ~luts:(acc_bits + (port_words * 8))
        ~ffs:(port_words * acc_bits) ~bram_bits:(words * acc_bits) ()
  | Update_unit { lanes } ->
      (* two multipliers per lane (eta*g and momentum*v) plus the blend *)
      Resource.make ~dsps:(2 * lanes)
        ~luts:(lanes * 2 * w)
        ~ffs:(lanes * w) ()

let pipeline_latency t =
  match t.kind with
  | Synergy_neuron { simd } ->
      (* multiplier + ceil(log2 simd) adder-tree stages *)
      2
      + (if simd <= 1 then 0
         else int_of_float (Float.ceil (log (float_of_int simd) /. log 2.0)))
  | Accumulator _ -> 1
  | Pooling_unit _ -> 1
  | Activation_unit _ -> 2
  | Lrn_unit { local_size; _ } -> 3 + local_size
  | Dropout_unit -> 1
  | Connection_box _ -> 1
  | Classifier_ksorter { k; _ } ->
      1 + Stdlib.max 1 (int_of_float (Float.ceil (log (float_of_int (k + 1)) /. log 2.0)))
  | Agu _ -> 1
  | Coordinator _ -> 1
  | Feature_buffer _ | Weight_buffer _ -> 1
  | Transpose_port _ -> 1
  | Grad_buffer _ -> 1
  | Update_unit _ -> 2

let macs_per_cycle t =
  match t.kind with Synergy_neuron { simd } -> simd | _ -> 0

let to_module t =
  let name = t.block_name and fmt = t.fmt in
  match t.kind with
  | Synergy_neuron { simd } -> Templates.synergy_neuron ~name ~fmt ~simd
  | Accumulator { depth; acc_bits } ->
      Templates.accumulator ~name ~fmt ~depth ~acc_bits
  | Pooling_unit { window; pool } ->
      Templates.pooling_unit ~name ~fmt ~window ~average:(pool = Avg_pool)
  | Activation_unit { fn; roms } -> Templates.activation_unit ~name ~fmt ~fn ~roms
  | Lrn_unit { local_size; power } ->
      Templates.lrn_unit ~name ~fmt ~local_size ~power
  | Dropout_unit -> Templates.dropout_unit ~name ~fmt
  | Connection_box { in_ports; out_ports; shift_latch } ->
      Templates.connection_box ~name ~fmt ~in_ports ~out_ports ~shift_latch
  | Classifier_ksorter { k; fan_in } ->
      Templates.classifier_ksorter ~name ~fmt ~k ~fan_in
  | Agu { agu_kind; pattern_count; addr_bits } ->
      let kind_label =
        match agu_kind with
        | Main_agu -> "main AGU"
        | Data_agu -> "data AGU"
        | Weight_agu -> "weight AGU"
      in
      Templates.agu ~name ~kind_label ~pattern_count ~addr_bits
  | Coordinator { fsm } -> { (Db_hdl.Rtl.of_fsm fsm) with Db_hdl.Rtl.mod_name = name }
  | Feature_buffer { words; port_words } | Weight_buffer { words; port_words } ->
      Templates.buffer ~name ~fmt ~words ~port_words
  | Transpose_port { rows; cols } ->
      Templates.transpose_port ~name ~fmt ~rows ~cols
  | Grad_buffer { words; port_words; acc_bits } ->
      Templates.grad_buffer ~name ~fmt ~words ~port_words ~acc_bits
  | Update_unit { lanes } -> Templates.update_unit ~name ~fmt ~lanes

let pp fmt_ t =
  Format.fprintf fmt_ "%s<%s>" t.block_name (kind_label t.kind)
