(** Approximate Look-Up Table (Section 3.3).

    A complex function (sigmoid, tanh, reciprocal, exp, x^beta, ...) is
    approximated by a table of sampled points; inputs that miss the table
    are served by interpolating between the two adjacent keys ("super-
    linear interpolation" in the paper).  The hardware is a BRAM plus one
    multiplier's worth of interpolation logic.  Which tables a design has,
    and the Q-words they store, are decided once by the NN-Gen compiler
    ({!Db_core.Lut_set.of_graph}, from the stock functions below); this
    module only samples, evaluates, costs and emits one table. *)

type t = {
  lut_name : string;
  lo : float;  (** lowest sampled input *)
  hi : float;  (** highest sampled input *)
  keys : float array;  (** uniformly spaced, [entries] of them *)
  values : float array;
}

val build : name:string -> f:(float -> float) -> lo:float -> hi:float -> entries:int -> t
(** Samples [f] at [entries] uniform points over [lo, hi].  Requires
    [entries >= 2] and [lo < hi]. *)

val eval : t -> float -> float
(** Clamp to [lo, hi], then interpolate between the adjacent samples.
    An input exactly on a key reads the stored value. *)

val entries : t -> int

val max_error : t -> f:(float -> float) -> probes:int -> float
(** Maximum absolute deviation from [f] over a dense uniform probe grid. *)

val mean_error : t -> f:(float -> float) -> probes:int -> float

val resource : t -> word_bits:int -> Db_fpga.Resource.t
(** BRAM bits for the table plus interpolation logic. *)

val to_module : t -> fmt:Db_fixed.Fixed.format -> Db_hdl.Rtl.module_decl
(** Behavioural Verilog: a ROM initialised with the quantised samples and
    the interpolation datapath. *)

(** {2 Stock functions} *)

val sigmoid : entries:int -> t

val tanh_lut : entries:int -> t

val reciprocal : entries:int -> t
(** Tabulated over the binade [1, 2); consumers range-reduce the input by
    a power of two (see {!Db_sim.Lut_eval}), which is a shift plus a
    leading-zero count in hardware. *)

val exp_lut : entries:int -> t
(** exp over [-16, 0] (softmax uses shifted exponents). *)
