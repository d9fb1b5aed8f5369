(** Everything NN-Gen produces for one (model, constraint) pair: the scaled
    datapath, the folded schedule, the data layout, the AGU programs and
    LUT contents, the block inventory with its cost, and the RTL. *)

type t = {
  network : Db_nn.Network.t;
  ir : Db_ir.Graph.t;  (** the annotated IR the hardware was generated from *)
  constraints : Constraints.t;
  datapath : Db_sched.Datapath.t;
  schedule : Db_sched.Schedule.t;
  layout : Db_mem.Layout.t;
  block_set : Block_set.t;
  program : Compiler.t;
  rtl : Db_hdl.Rtl.design;
}

val resource_usage : t -> Db_fpga.Resource.t

val lanes : t -> int

val verilog : t -> string
(** The full Verilog text of the generated accelerator. *)

val analyze : t -> Db_analysis.Diagnostic.t list
(** Run the semantic static analyzer ({!Db_analysis.Analyze}) over the RTL.
    Every machine of the design, the coordinator and each AGU pattern
    FSM, is a [Machine] module of it and is checked there, once.  Sorted
    errors-first; empty for a healthy design. *)

val power : t -> Db_fpga.Power.t
(** Board power while the accelerator runs (device static + dynamic of the
    occupied resources at the constraint's clock). *)

val pp_summary : Format.formatter -> t -> unit
