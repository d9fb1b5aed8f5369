(** Instantiation of the component library for a (network, datapath) pair:
    which blocks the generated accelerator contains, and what they cost.

    This is the resource model the configuration search optimises against
    and the skeleton the RTL builder instantiates. *)

type t = {
  blocks : Db_blocks.Block.t list;
  total : Db_fpga.Resource.t;
}

val build :
  ?acc_bits:int ->
  Db_ir.Graph.t ->
  Db_sched.Datapath.t ->
  schedule:Db_sched.Schedule.t ->
  layout:Db_mem.Layout.t ->
  t
(** Chooses the block inventory from the op classes present in the IR
    graph (Section 3.2's layer -> building-block mapping) scaled by the
    datapath, puts each table of the graph's {!Lut_set} into the unit
    that reads it as a ROM, sizes the AGUs from the layout's address space and the
    schedule's pattern count, and sums the cost.  [?acc_bits] is the
    minimal accumulator width proven by the range analysis; the
    accumulators are sized to [max (word + 8) acc_bits]. *)

val find : t -> kind_label:string -> Db_blocks.Block.t list
(** All blocks of one class. *)

val lane_blocks : t -> Db_blocks.Block.t list
(** The synergy neurons. *)

val pp : Format.formatter -> t -> unit
