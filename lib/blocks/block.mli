(** The NN component library (Fig. 5 of the paper).

    Each block is a reconfigurable RTL module template: the hardware
    generator fixes its parameters (bit-width, parallelism, ports) from the
    target model and constraint, queries its resource cost against the
    budget, and emits its Verilog.  The paper's blocks are all here:
    synergy neuron, accumulator, pooling unit, activation unit (a
    comparator, or backed by Approx-LUT ROMs), LRN unit, drop-out unit, connection box (with the
    shifting latch for approximate division), classifier (k-sorter after
    Beigel & Gill), AGUs, the scheduling coordinator, and the on-chip
    feature/weight buffers. *)

type pool_kind = Max_pool | Avg_pool

type agu_kind =
  | Main_agu  (** off-chip <-> on-chip buffer *)
  | Data_agu  (** feature buffer -> datapath *)
  | Weight_agu  (** weight buffer -> datapath *)

type kind =
  | Synergy_neuron of { simd : int }
      (** one neural processing element with [simd] multipliers feeding an
          adder tree; computes [simd] MACs per cycle *)
  | Accumulator of { depth : int; acc_bits : int }
      (** running partial-sum register bank over [depth] folds; [acc_bits]
          is the width of the internal register, at least the datapath
          word and normally the minimum proven by [Db_check.Range] so the
          wide sum cannot overflow before the saturating write-back *)
  | Pooling_unit of { window : int; pool : pool_kind }
  | Activation_unit of { fn : string; roms : Approx_lut.t list }
      (** the unit computing [fn]: a comparator (ReLU, Sign) holds no ROM;
          a tabulated function reads the first of its Approx-LUT [roms],
          and the reciprocal unit also holds softmax's [exp] table *)
  | Lrn_unit of { local_size : int; power : Approx_lut.t option }
      (** LRN/LCN unit; [power] is LRN's [scale ** -beta] table (LCN
          divides through the reciprocal unit, so an LCN-only design has
          none) *)
  | Dropout_unit
  | Connection_box of { in_ports : int; out_ports : int; shift_latch : bool }
  | Classifier_ksorter of { k : int; fan_in : int }
  | Agu of { agu_kind : agu_kind; pattern_count : int; addr_bits : int }
  | Coordinator of { fsm : Db_hdl.Fsm.t }
      (** the schedule's run-level machine, emitted through
          {!Db_hdl.Rtl.of_fsm} *)
  | Feature_buffer of { words : int; port_words : int }
  | Weight_buffer of { words : int; port_words : int }
  | Transpose_port of { rows : int; cols : int }
      (** transposed (column-major) read port over a shared [rows]×[cols]
          weight memory — the BP datapath reads Wᵀ through it while FF
          keeps the row-major port *)
  | Grad_buffer of { words : int; port_words : int; acc_bits : int }
      (** gradient accumulator bank: read-modify-write adds in [acc_bits]
          precision (sized by the DB-R003 range proof) so batch-summed
          gradients cannot overflow before the scaled write-back *)
  | Update_unit of { lanes : int }
      (** SGD weight-update datapath: per lane computes
          v' = momentum·v − eta·g and w' = w + v' in one pass over the
          shared weight memory *)

type t = { block_name : string; kind : kind; fmt : Db_fixed.Fixed.format }

val make : name:string -> fmt:Db_fixed.Fixed.format -> kind -> t
(** Validates the kind's parameters (positive simd/ports/windows, ...). *)

val kind_label : kind -> string
(** Short class name, e.g. ["synergy_neuron"]. *)

val resource : t -> Db_fpga.Resource.t
(** Post-configuration cost estimate; see the calibration notes in the
    implementation. *)

val pipeline_latency : t -> int
(** Cycles from input valid to output valid (fill latency; throughput is
    one result per cycle once the pipe is full). *)

val macs_per_cycle : t -> int
(** Non-zero only for synergy neurons. *)

val to_module : t -> Db_hdl.Rtl.module_decl
(** Behavioural Verilog for the configured block. *)

val pp : Format.formatter -> t -> unit
