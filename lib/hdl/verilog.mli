(** Verilog-2001 text emission for {!Rtl.design} values.

    The output is what would be handed to Vivado for FPGA burning; in this
    reproduction it is written to disk and checked for structural
    well-formedness by the tests. *)

val emit_module : Rtl.module_decl -> string

val emit_design : Rtl.design -> string
(** All modules, top last, preceded by a generated-by header comment. *)
