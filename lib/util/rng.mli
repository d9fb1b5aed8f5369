(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment is reproducible bit-for-bit from a seed.  The generator is
    splitmix64, which is fast, has a 64-bit state and passes BigCrush. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** Independent copy with identical state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the continuation of [t]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> min:float -> max:float -> float
(** Uniform in [\[min, max)]. *)

val fill_uniform :
  t ->
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  min:float ->
  max:float ->
  unit
(** [fill_uniform t b ~min ~max] sets [b.{0}], [b.{1}], ... in order to
    successive {!uniform} draws: the same stream, without a boxed float
    per element. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate via Box-Muller. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.  The array must be non-empty. *)
