(** The DeepBurning compiler (software half of NN-Gen).

    From the fixed datapath and schedule it derives, per fold, the memory
    traffic and the AGU address patterns; globally it carries the Approx
    LUT contents ({!Lut_set}).  The patterns' FSM descriptions are what
    the hardware generator lowers into the AGU RTL. *)

type transfer = {
  stream : [ `Feature_in | `Weight_in | `Output_back ];
  words : int;
  seq_fraction : float;  (** DRAM row-buffer friendliness of this stream *)
  pattern : Db_mem.Access_pattern.t;
}

type fold_program = {
  event : string;
  fold : Db_sched.Folding.fold;
  transfers : transfer list;
      (** off-chip traffic this fold causes; empty when everything it needs
          is already resident on chip *)
  buffer_feature_reads : int;  (** words the data AGU feeds the datapath *)
  buffer_weight_reads : int;
  windows_streamed : bool;
      (** true when the layer input exceeds the feature buffer and kernel
          windows are streamed straight from DRAM (tiling decides the
          [seq_fraction] then) *)
}

type t = {
  programs : fold_program list;
  luts : Lut_set.t;  (** the Approx-LUT set, {!Lut_set.of_graph} *)
  layout : Db_mem.Layout.t;
}

val compile :
  ?tiling_enabled:bool ->
  Db_ir.Graph.t ->
  datapath:Db_sched.Datapath.t ->
  schedule:Db_sched.Schedule.t ->
  layout:Db_mem.Layout.t ->
  t
(** [tiling_enabled] (default true) switches Method-1 on; the ablation
    bench turns it off to quantify the locality loss. *)

val compile_runs :
  ?tiling_enabled:bool ->
  Db_ir.Graph.t ->
  datapath:Db_sched.Datapath.t ->
  layout:Db_mem.Layout.t ->
  Db_sched.Folding.run list ->
  (fold_program * int) list
(** The fold programs of [runs] without one record per fold: each
    [(program, n)] stands for [n] consecutive folds whose transfers equal
    [program]'s in stream, size and locality (names and addresses aside),
    so pricing [program] [n] times prices every fold that {!compile}
    would emit for the same runs.  O(runs · log folds). *)

val total_dram_words : t -> int

val agu_pattern_fsms : t -> Db_hdl.Fsm.t list
(** One FSM per distinct transfer pattern shape (deduplicated), ready for
    RTL lowering. *)
