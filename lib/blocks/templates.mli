(** Behavioural Verilog templates for the component library.

    One function per block class; the hardware generator has already fixed
    every parameter, so these produce concrete [Rtl.module_decl]s. *)

val synergy_neuron :
  name:string -> fmt:Db_fixed.Fixed.format -> simd:int -> Db_hdl.Rtl.module_decl

val accumulator :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  depth:int ->
  acc_bits:int ->
  Db_hdl.Rtl.module_decl
(** [acc_bits] fixes the internal partial-sum register width (the range
    analysis proves the minimum that cannot overflow). *)

val pooling_unit :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  window:int ->
  average:bool ->
  Db_hdl.Rtl.module_decl

val activation_unit :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  fn:string ->
  roms:Approx_lut.t list ->
  Db_hdl.Rtl.module_decl
(** With no [roms], a comparator ([fn] ["sign"] gives +-1, anything else
    ReLU).  Otherwise the first ROM drives [y] and each further table
    [t] drives its own output [y_t]; every ROM is instantiated here as
    [approx_lut_<name>]. *)

val lrn_unit :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  local_size:int ->
  power:Approx_lut.t option ->
  Db_hdl.Rtl.module_decl
(** Instantiates [approx_lut_lrn_power] when given the power table. *)

val dropout_unit : name:string -> fmt:Db_fixed.Fixed.format -> Db_hdl.Rtl.module_decl

val connection_box :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  in_ports:int ->
  out_ports:int ->
  shift_latch:bool ->
  Db_hdl.Rtl.module_decl

val classifier_ksorter :
  name:string -> fmt:Db_fixed.Fixed.format -> k:int -> fan_in:int -> Db_hdl.Rtl.module_decl

val agu :
  name:string ->
  kind_label:string ->
  pattern_count:int ->
  addr_bits:int ->
  Db_hdl.Rtl.module_decl

val buffer :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  words:int ->
  port_words:int ->
  Db_hdl.Rtl.module_decl

val transpose_port :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  rows:int ->
  cols:int ->
  Db_hdl.Rtl.module_decl
(** Transposed (column-major) read port over a shared weight memory. *)

val grad_buffer :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  words:int ->
  port_words:int ->
  acc_bits:int ->
  Db_hdl.Rtl.module_decl
(** Gradient accumulator bank with read-modify-write accumulation in
    [acc_bits] precision. *)

val update_unit :
  name:string ->
  fmt:Db_fixed.Fixed.format ->
  lanes:int ->
  Db_hdl.Rtl.module_decl
(** SGD weight-update datapath (momentum blend + eta-scaled gradient). *)
