(** Deterministic SEU-injection campaigns over a generated design.

    A campaign sweeps single-bit upsets across the enabled {!Site} classes
    of one design, pushes each through the configured {!Protect} scheme and
    — when the corrupted word survives to the datapath — through a full
    fixed-point forward pass, then classifies the run on the output blob's
    stored words against the fault-free run.  Trial [t] draws
    everything from [Rng.create (seed + t)] and writes its result into its
    own slot, so the classification counts are bitwise identical for a
    fixed seed at any [DEEPBURNING_JOBS] setting.

    Memory: each pool task owns one private working copy of the stored
    parameter words (on [Specialized], its own bound trace and replay
    arena; on [Generic], its own parameter copy).  A trial writes its
    flipped word into that copy, runs, and writes the old word back; the
    degradation sweep writes back every flip after its pass.  The
    caller's [params] are never written, and a campaign's memory is
    O(jobs x parameters) whatever the trial count. *)

type protection = {
  weights : Protect.scheme;
  biases : Protect.scheme;
  luts : Protect.scheme;
  buffers : Protect.scheme;
  agu : Protect.scheme;
}

val unprotected : protection

val scheme_for : protection -> Site.target_class -> Protect.scheme
(** [Control_fsm] is never protected (the watchdog is its mitigation). *)

type engine =
  | Generic
      (** re-quantize and interpret per trial ({!Db_nn.Quantized.qoutput})
          over a float parameter copy, a flipped word written back as
          [Fixed.to_float] — the oracle the specialized engine is
          property-tested against *)
  | Specialized
      (** replay the design's compiled trace ({!Db_sim.Specialize}):
          parameters quantized once per working copy, a flip written
          into the bound stored words; healthy runs use the trace's own
          evaluator, so they read its activation tables *)

type config = {
  seed : int;
  trials : int;
  cycle_budget : int;  (** watchdog budget for control playback (cycles) *)
  protection : protection;
  rates : float list;
      (** fault rates for the degradation curve, each in [0, 1] *)
  targets : Site.target_class list;
  engine : engine;
      (** the oracle selector: both engines produce byte-identical results
          for a fixed seed; [Specialized] (the default, and the CLI's) is
          an order of magnitude faster *)
}

val default_config : config

type outcome =
  | Masked  (** output bit-identical to the fault-free run *)
  | Sdc  (** silent data corruption: output differs, top-1 intact *)
  | Top1_flip  (** silent corruption that flips the top-1 class *)
  | Corrected  (** ECC repaired the word in place *)
  | Retried  (** detected (parity/CRC); golden copy re-fetched *)
  | Hang  (** control never completed; cycle-budget watchdog fired *)

val outcome_name : outcome -> string

type counts = {
  injections : int;
  masked : int;
  sdc : int;
  top1_flips : int;
  corrected : int;
  retried : int;
  hangs : int;
}

val zero_counts : counts

val silent_fraction : counts -> float
(** (sdc + top1_flips) / injections — the figure protection must shrink. *)

val agu_upset_masked : Db_mem.Access_pattern.t -> Site.agu_field -> bool
(** [agu_upset_masked p f]: whether writing any other value into register
    [f] of [p] leaves the address stream unchanged, given the pattern's
    three lengths stay positive (a non-positive length is a hang).  Only a
    stride under one row ([y_length = 1]) and an offset under one block
    ([repeat = 1]) qualify.  An upset of [f] leaves the field the rule
    reads alone, so [p] may be the pattern before or after it. *)

type row = { row_label : string; row_counts : counts }

type result = {
  res_seed : int;
  res_trials : int;
  res_space_bits : int;  (** stored bits across the enabled classes *)
  res_protection : protection;
  res_total : counts;
  res_per_class : row list;  (** one row per enabled class that was hit *)
  res_per_layer : row list;  (** network node order; "(global)" catches
                                 sites owned by no layer *)
  res_degradation : (float * float) list;
      (** (raw fault rate, top-1 accuracy %) on unprotected
          weight/bias/buffer bits *)
  res_overheads : (string * string * Db_fpga.Resource.t * float) list;
      (** (class, scheme, overhead, % of the design's own usage) *)
}

val run :
  design:Db_core.Design.t ->
  params:Db_nn.Params.t ->
  input_blob:string ->
  inputs:Db_tensor.Tensor.t array ->
  config ->
  result
(** Raises {!Db_util.Error.Deepburning_error} on an empty input set, a
    non-positive trial count or cycle budget, a rate outside [0, 1]
    (including NaN and the infinities) or an empty fault space. *)

val render_text : result -> string

val render_json : result -> string
(** Stable, timing-free JSON: byte-identical for a fixed seed regardless
    of [DEEPBURNING_JOBS]. *)
