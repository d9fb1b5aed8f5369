(** Whole-network DRAM data layout.

    The compiler assigns every feature blob and every weight tensor a base
    address in the off-chip memory and, where a convolution consumes the
    blob, a Method-1 tile plan (so the host — the ARM core in the paper's
    setup — can reorganise the data before the run).  Addresses are in
    datapath words. *)

type entry = {
  entry_name : string;
      (** ["feature:<blob>"] or ["weights:<node>:<index>"] *)
  base : int;
  words : int;
  tile_plan : Tiling.plan option;
}

type t = {
  entries : entry list;
  total_words : int;
  bytes_per_word : int;
  port_width : int;
}

val build : bytes_per_word:int -> port_width:int -> Db_ir.Graph.t -> t
(** Walks the IR graph in topological order; every blob gets a region
    sized by its annotated shape, weight tensors follow the node's
    annotated parameter shapes.  A blob consumed by a convolution gets the Method-1 plan for
    that convolution's kernel/stride.  [bytes_per_word] is the datapath
    format's {!Db_fixed.Fixed.word_bytes}. *)

val find : t -> string -> entry
(** Raises [Not_found]. *)

val feature_entry : t -> blob:string -> entry

val weight_entries : t -> node:string -> entry list

val total_bytes : t -> int

val pp : Format.formatter -> t -> unit
