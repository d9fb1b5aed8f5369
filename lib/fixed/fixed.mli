(** Signed Q-format fixed-point arithmetic.

    The generated accelerators compute in fixed point (the paper cites
    "accuracy loss due to the fixed-point operation").  A format [q] has
    [total_bits] including the sign and [frac_bits] fractional bits; values
    are stored as plain OCaml [int]s holding the scaled integer, which is
    exact because every supported width is at most 32 bits. *)

type format = { total_bits : int; frac_bits : int }

val format : total_bits:int -> frac_bits:int -> format
(** Validates [2 <= total_bits <= 32] and [0 <= frac_bits < total_bits]. *)

val q16_8 : format
(** The generator's default datapath format (16 bits, 8 fractional). *)

val q8_4 : format

val q24_12 : format

val q32_16 : format

val word_bytes : format -> int
(** Bytes one stored word occupies in DRAM: [total_bits] rounded up to
    whole bytes. *)

val max_value : format -> int
(** Largest representable scaled integer. *)

val min_value : format -> int

val resolution : format -> float
(** Value of one LSB, i.e. [2^-frac_bits]. *)

val max_float : format -> float

val min_float : format -> float

val of_float : format -> float -> int
(** Round-to-nearest with saturation. *)

val to_float : format -> int -> float

val saturate : format -> int -> int

val add : format -> int -> int -> int
(** Saturating addition. *)

val sub : format -> int -> int -> int

val mul : format -> int -> int -> int
(** Fixed-point multiply: full product rescaled by [frac_bits] with
    round-to-nearest, then saturated. *)

val shift_right_approx : format -> int -> int -> int
(** [shift_right_approx q v n] is the connection-box "shifting latch"
    approximate division by [2^n] (arithmetic shift, rounds toward
    negative infinity). *)

val quantize_tensor : format -> Db_tensor.Tensor.t -> int array
(** Element-wise {!of_float}. *)

val quantize_into : format -> Db_tensor.Tensor.t -> int array -> unit
(** [quantize_into q t out] writes {!quantize_tensor}'s words into [out],
    which must hold exactly [numel t] words ([Invalid_argument]
    otherwise). *)

val dequantize_tensor : format -> shape:Db_tensor.Shape.t -> int array -> Db_tensor.Tensor.t

val roundtrip_error_bound : format -> float
(** Worst-case |x - to_float(of_float x)| for in-range x: half an LSB. *)

val fits_float : format -> float -> bool
(** Whether the real value is representable without saturating, i.e. lies
    in [[min_float, max_float]].  NaN never fits. *)

val headroom_bits : format -> float -> float
(** [log2 (max_float q / |x|)]: how many doublings of |x| the format still
    absorbs before saturation.  [infinity] for x = 0, negative once |x|
    already saturates. *)

val signed_bits_for : float -> int
(** Minimal width of a two's-complement register holding every integer of
    the given magnitude: [1 + ceil(log2 (magnitude + 1))], and 1 for 0.
    Raises [Invalid_argument] on NaN or negative magnitudes. *)

val pp_format : Format.formatter -> format -> unit
(** e.g. ["Q16.8"]. *)
