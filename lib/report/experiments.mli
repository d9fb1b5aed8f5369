(** The paper's evaluation, experiment by experiment.

    Each function regenerates one table or figure of Section 4 and returns
    structured results; [render_*] turn them into the text the benchmark
    harness prints.  Figures are reported as tables of the same series the
    paper plots. *)

type run_config = {
  seed : int;
  benchmarks : string list;  (** subset of Table 2's names *)
  accuracy_samples : int option;
      (** [Some n] scores Fig. 10 on the first [n] eval inputs per
          benchmark; [None] replays the complete eval set *)
}

val default_config : run_config
(** seed 42, all eight benchmarks, sampled Fig. 10 sweep. *)

val full_config : run_config
(** [default_config] with the complete Fig. 10 eval sweep — the nightly
    configuration, selected by the harness's [--full] flag. *)

val quick_config : run_config
(** The small benchmarks only (skips AlexNet/NiN scale); used by tests. *)

(** {2 Table 1 — decomposition of typical neural networks} *)

type table1_row = { t1_model : string; t1_decomp : Db_nn.Model_stats.decomposition }

val table1 : unit -> table1_row list

val render_table1 : table1_row list -> string

(** {2 Table 2 — benchmark inventory} *)

type table2_row = {
  t2_name : string;
  t2_conv : bool;
  t2_fc : bool;
  t2_rec : bool;
  t2_application : string;
}

val table2 : unit -> table2_row list

val render_table2 : table2_row list -> string

(** {2 Fig. 8 / Fig. 9 — performance and energy comparison} *)

type perf_row = {
  p_name : string;
  p_cpu_s : float;
  p_custom_s : float;
  p_db_s : float;
  p_db_l_s : float;
  p_db_s_s : float;  (** DB-S *)
  p_zhang_s : float option;  (** AlexNet only *)
  e_cpu_j : float;
  e_custom_j : float;
  e_db_j : float;
  e_db_l_j : float;
  e_db_s_j : float;
  e_zhang_j : float option;
}

val fig8_fig9 : run_config -> perf_row list

val render_fig8 : perf_row list -> string

val render_fig9 : perf_row list -> string

(** {2 Fig. 10 — accuracy comparison} *)

type accuracy_row = { a_name : string; a_cpu : float; a_db : float }

val fig10 : run_config -> accuracy_row list

val render_fig10 : accuracy_row list -> string

(** {2 Table 3 — hardware resource occupation} *)

type resource_row = {
  r_name : string;
  r_custom : Db_fpga.Resource.t;
  r_db : Db_fpga.Resource.t;
}

val table3 : run_config -> resource_row list
(** Includes the Alexnet-L row when AlexNet is in the benchmark list. *)

val render_table3 : resource_row list -> string

(** {2 Training acceleration (Section 1's "Why FPGA?" claim)} *)

type training_row = {
  tr_name : string;
  tr_cpu_sps : float;  (** CPU SGD iterations per second *)
  tr_db_sps : float;
  tr_db_l_sps : float;
}

val training : run_config -> training_row list
(** Training-iteration throughput of the CPU baseline vs the DB and DB-L
    training accelerators ({!Db_core.Train_builder.build}, one SGD step
    priced by {!Db_sim.Train_sim.compile_trace}), per benchmark — the
    model-search/training use-case the paper motivates FPGAs with. *)

val render_training : training_row list -> string

(** {2 Batch throughput (pipelined input set)} *)

type throughput_row = {
  th_name : string;
  th_single_ms : float;
  th_batch_ips : float;  (** images/s at batch 32 *)
  th_pipeline_gain : float;
}

val throughput : run_config -> throughput_row list
(** Pipelined batch-32 processing per benchmark: the "input set" mode the
    paper measures a round of forward propagation over. *)

val render_throughput : throughput_row list -> string

(** {2 Headline summary} *)

type summary = {
  max_speedup_vs_cpu : float;
  geomean_speedup_vs_cpu : float;
  avg_energy_saving_vs_cpu : float;  (** as a ratio, paper: ~ >10x (90%) *)
  db_l_speedup_over_db : float;  (** paper: ~3.5x *)
  db_energy_vs_custom : float;  (** paper: ~1.8x *)
  mean_accuracy_delta : float;  (** |CPU - DB|, paper: ~1.5% *)
}

val summarise : perf_row list -> accuracy_row list -> summary

val render_summary : summary -> string

(** {2 Ablations (design choices called out in DESIGN.md)} *)

val ablation_tiling : run_config -> (string * float * float) list
(** (benchmark, DRAM-busy cycles with Method-1, without).  Benchmarks whose
    working sets never spill the on-chip buffers are omitted. *)

val render_ablation_tiling : (string * float * float) list -> string

val ablation_lut : entries_list:int list -> (int * float * float) list
(** (entries, sigmoid max error, tanh max error). *)

val render_ablation_lut : (int * float * float) list -> string

val ablation_lanes :
  benchmark:string -> lanes_list:int list -> (int * float * int) list
(** (lanes, forward seconds, LUT cost). *)

val render_ablation_lanes : (int * float * int) list -> string

val ablation_fixed_point :
  run_config -> widths:(int * int) list -> (string * (int * float) list) list
(** Per benchmark: (total bits, accuracy %) for each (total, frac) format. *)

val render_ablation_fixed_point : (string * (int * float) list) list -> string

(** {2 Shared plumbing} *)

val constraints_for :
  budget:[ `Db | `Db_l | `Db_s ] ->
  Db_workloads.Benchmarks.t ->
  Db_core.Constraints.t
(** The constraints of one of the paper's three budget points for a
    benchmark (per-application DSP caps applied, as in Table 3). *)

val design_for :
  ?budget:[ `Db | `Db_l | `Db_s ] -> Db_workloads.Benchmarks.t -> Db_core.Design.t
(** Generate the accelerator for a benchmark at {!constraints_for}
    (default [`Db]). *)
