(** The design's Approx-LUT set (Section 3.3): which non-linear functions
    get a table, and the Q-words each table's ROM stores.  This is the
    compiler's fourth output, and it is decided here once:

    - {!Compiler.t}'s [luts] is the set;
    - {!Block_set} builds one ROM per table into the unit that reads it,
      and costs it;
    - {!Generator.build_rtl} declares exactly these ROMs;
    - {!Db_sim.Lut_eval} evaluates them, and {!Db_fault.Site} and
      {!Db_fault.Campaign} inject into their words.

    ReLU and Sign are comparators in hardware and get no table.  Softmax
    reads [exp] and [reciprocal]; average pooling and LCN read
    [reciprocal]; LRN reads one power table, sampled at the graph's
    (beta, k). *)

type fn =
  | Sigmoid
  | Tanh  (** standalone or the recurrent unit's *)
  | Exp  (** softmax's shifted exponent, over [-16, 0] *)
  | Reciprocal  (** one binade [1, 2), range-reduced by the reader *)
  | Lrn_power of { beta : float; k : float }
      (** LRN's [scale ** -beta], sampled over [u = scale - k] in [0, 64] *)

type table = {
  fn : fn;
  lut : Db_blocks.Approx_lut.t;
      (** the ROM's contents: every [values] entry is exactly
          [Fixed.to_float fmt w] of the Q-word [w] the ROM stores *)
}

type t = {
  fmt : Db_fixed.Fixed.format;  (** the stored words' format *)
  tables : table list;  (** first use in graph order; names are distinct *)
}

val of_graph : Db_sched.Datapath.t -> Db_ir.Graph.t -> t
(** The tables the graph's ops read, sampled at the datapath's
    [lut_entries] and quantized to its format.  Raises a validation
    error (component ["lut-set"]) when the graph's LRN layers use more
    than one (beta, k): the accelerator has one LRN unit with one power
    table. *)

val of_activation : Db_ir.Op.activation -> fn option
(** The table an activation reads; [None] for the comparators. *)

val find : t -> fn -> Db_blocks.Approx_lut.t option
(** The table of one function (for [Lrn_power], at that beta and k). *)

val lrn_power : t -> (float * float * Db_blocks.Approx_lut.t) option
(** The power table with the (beta, k) it was sampled at. *)

val names : t -> string list
(** The tables' names, in set order: the [approx_lut_<name>] ROMs. *)

val word : t -> name:string -> int -> int
(** The stored Q-word at one index of the named table. *)

val with_word : t -> name:string -> int -> int -> t
(** The set with one stored word of the named table replaced (a fault);
    the other tables are shared. *)
