(** Interval abstract interpretation of the fixed-point datapath.

    Propagates per-tensor value intervals from the declared input range
    through every operator of a lowered {!Db_ir.Graph.t} and proves (or
    refutes) that the constraint's {!Db_fixed.Fixed.format} cannot
    saturate, emitting the minimal accumulator width each weighted layer
    needs.  Sound w.r.t. the float interpreter: the dynamically observed
    range of every tensor is enclosed by its static interval (the
    property tests in test/test_check.ml exercise this on the zoo).

    Diagnostic codes (documented in DESIGN.md §13):
    - [DB-R001] (error): declared input interval escapes the format;
    - [DB-R002] (error): parameter magnitude beyond the representable
      range;
    - [DB-R003] (error): a layer needs an accumulator wider than the
      62-bit exact-arithmetic limit of the simulation path;
    - [DB-R004] (warning): declared input or parameter magnitude leaves
      under 1 bit of headroom;
    - [DB-R005] (info): a propagated interval escapes the format
      mid-network — saturation possible, proof lost downstream;
    - [DB-R006] (warning): calibration clamped the fraction to 0 bits. *)

val code_input_escape : string

val code_param_escape : string

val code_acc_width : string

val code_headroom : string

val code_saturation : string

val code_frac_clamp : string

val acc_bits_limit : int
(** 62: the widest accumulator whose arithmetic stays exact in OCaml
    [int]s on a 64-bit host. *)

val default_input : Interval.t
(** [[-1, 1]], the canonical normalized input range. *)

type layer_range = {
  lr_node : string;
  lr_op : string;  (** operator name, e.g. ["CONV"] *)
  lr_blob : string;  (** first output blob *)
  lr_exact : Interval.t;  (** float-semantics interval, unclamped *)
  lr_stored : Interval.t;  (** post-write-back interval, saturated *)
  lr_proven : bool;  (** no saturation possible up to and including here *)
  lr_acc_bits : int option;  (** minimal accumulator width, weighted ops *)
}

type report = {
  rp_fmt : Db_fixed.Fixed.format;
  rp_input : Interval.t;
  rp_layers : layer_range list;  (** graph order *)
  rp_min_acc_bits : int;  (** max over layers; 0 when no weighted layer *)
  rp_diags : Db_analysis.Diagnostic.t list;
}

val analyze :
  ?params:Db_nn.Params.t ->
  ?input:Interval.t ->
  fmt:Db_fixed.Fixed.format ->
  Db_ir.Graph.t ->
  report
(** Runs the analysis.  With [?params] the actual weight/bias magnitudes
    bound the dot products; without, every weight is bounded by the
    Xavier-initialisation magnitude implied by the layer's fan (a sound
    superset of what {!Db_nn.Params.init_xavier} draws), so the generator
    gate needs no materialized parameters.  [?input] defaults to
    {!default_input}. *)

val blob_interval : report -> string -> Interval.t option
(** Exact interval of a named blob. *)

val layer_acc_bits : report -> (string * int) list
(** Weighted layers with their minimal accumulator widths, graph order. *)

val min_acc_bits :
  ?params:Db_nn.Params.t ->
  ?input:Interval.t ->
  fmt:Db_fixed.Fixed.format ->
  Db_ir.Graph.t ->
  int
(** [rp_min_acc_bits] of {!analyze}. *)

val format_feasibility : Db_fixed.Fixed.format -> (unit, string) result
(** Design-space pre-filter: [Error] when the format cannot even represent
    the canonical [-1, 1] input range (used by [Config_search] to reject
    Q-format points before costing them). *)

val frac_clamp_diag : total_bits:int -> max_abs:float -> Db_analysis.Diagnostic.t
(** The [DB-R006] warning surfaced when {!Db_core.Calibration} clamps the
    fraction to 0 bits. *)
