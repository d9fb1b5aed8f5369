(** Static verification of a generated design.

    Bridges {!Design.t} to the analyses in [Db_check]: interval range
    analysis of the fixed-point datapath ([DB-R0xx] codes) and the
    memory-safety proof of the compiled schedule ([DB-M1xx] codes).  Both
    run as a hard gate inside {!Generator.generate} and behind the
    [deepburning check] CLI command. *)

type report = {
  ck_range : Db_check.Range.report;
  ck_mem : Db_analysis.Diagnostic.t list;
  ck_diags : Db_analysis.Diagnostic.t list;  (** both analyses, sorted *)
}

val check :
  ?params:Db_nn.Params.t ->
  ?input:Db_check.Interval.t ->
  Design.t ->
  report
(** Runs both analyses.  Without [?params] the range analysis bounds
    weights by the Xavier-initialisation magnitude (see
    {!Db_check.Range.analyze}); [?input] defaults to [[-1, 1]]. *)

val errors : report -> Db_analysis.Diagnostic.t list

val ok : report -> bool
(** No errors (warnings and info allowed). *)

val to_json : design:string -> report -> string
(** One JSON object per design, as printed by [deepburning check --json]:
    the name, Q-format, accumulator widths and [ck_diags]. *)

val gate : Design.t -> unit
(** Raises a [check]-component {!Db_util.Error.Deepburning_error} when the
    report contains errors — the generator-side hard stop. *)

val plant_of_design : Design.t -> Db_check.Mem_safety.plant

val steps_of_design : Design.t -> Db_check.Mem_safety.step list
(** The extraction is exposed for the tamper tests, which perturb the
    plant/steps to provoke each [DB-M1xx] diagnostic. *)
