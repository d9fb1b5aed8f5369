(** Semantic static analysis over RTL designs and FSMs.

    Structural modules get a bit-precise driver/reader model; [Machine]
    modules are checked as graphs ({!fsm}); behavioral leaf templates get
    textual checks over a comment-stripped body.  Diagnostic codes
    (documented in DESIGN.md, "RTL static analysis"):

    Errors:
    - [DB-E001] — net with overlapping drivers (assign / instance output)
    - [DB-E002] — assign width mismatch
    - [DB-E003] — instance connection width mismatch
    - [DB-E004] — combinational loop
    - [DB-E005] — parameter override the callee does not declare
    - [DB-E006] — net redeclared (or shadows a port)
    - [DB-E007] — FSM failed validation
    - [DB-E008] — the emitted Verilog fails {!Db_hdl.Lint.check}
      (unbalanced construct, instance of an undeclared module, module
      other than the top never instantiated); reported by {!verilog}

    Warnings:
    - [DB-W101] — net read but never driven
    - [DB-W102] — net driven but never read (or fully dangling)
    - [DB-W103] — output port never driven
    - [DB-W104] — incomplete [case] under [always @*] (latch inference)
    - [DB-W105] — unreachable FSM state
    - [DB-W106] — reachable FSM state with no outgoing transition
    - [DB-W107] — reference to an undeclared identifier (implicit net)

    Info:
    - [DB-I201] — input port never read *)

val code_multi_driver : string
val code_width_mismatch : string
val code_port_width_mismatch : string
val code_comb_loop : string
val code_param_unknown : string
val code_redeclared : string
val code_fsm_invalid : string
val code_verilog_lint : string
val code_undriven_net : string
val code_unused_net : string
val code_undriven_output : string
val code_latch : string
val code_fsm_unreachable : string
val code_fsm_sink : string
val code_implicit_net : string
val code_unused_input : string

val design : Db_hdl.Rtl.design -> Diagnostic.t list
(** Analyze every module of a design; [Machine] modules are checked as
    graphs ({!fsm}).  Each template leaf is stripped and tokenised once.
    Diagnostics come back sorted errors-first. *)

val verilog : Db_hdl.Rtl.design -> Diagnostic.t list
(** [DB-E008] findings: {!Db_hdl.Lint.check} over the emitted Verilog.
    Kept out of {!design} because emitting and scanning the text costs
    more than the rest of the analysis; the [lint] command runs both. *)

val fsm : Db_hdl.Fsm.t -> Diagnostic.t list
(** Analyze a single FSM: validation, unreachable states, sink states. *)

val assert_no_errors : ?strict:bool -> Db_hdl.Rtl.design -> unit
(** Raise [Deepburning_error] if the design has any error-severity finding
    ([?strict] promotes warnings first). *)
