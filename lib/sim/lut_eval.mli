(** The design's Approx-LUT set ({!Db_core.Lut_set}) as the quantized
    interpreter's function evaluator: what the generated hardware computes
    for its non-linear functions, read from the Q-words its ROMs store. *)

val of_set : Db_core.Lut_set.t -> Db_nn.Quantized.function_eval
(** Sigmoid, tanh, exp, the reciprocal and LRN's power go through their
    table when the set has one (interpolated), and fall back to exact math
    otherwise; the power table serves only the exponent [-beta] it was
    sampled at, read at [scale - k].  ReLU and Sign stay exact: they are
    comparators in hardware, not tables.  The reciprocal is range-reduced
    by a power of two into the table's [1, 2) binade (a leading-zero count
    plus a shift in the RTL). *)
