(** Control-path playback: execute the generated run-time control end to
    end and verify its memory safety.

    The coordinator FSM is stepped through every fold in schedule order,
    and the fold each pulse leaves it at (its run's state and the position
    within the run) must be the schedule's next fold; for each fold, every compiled AGU transfer is replayed on the
    cycle-accurate {!Db_mem.Agu_sim} machine, and each issued address is
    checked against the DRAM layout region it is supposed to touch
    (feature fetches inside the input blob, weight streams inside the
    node's weight entries, write-backs inside the output blob).

    This is the strongest check the repository makes on the compiler's
    output: a wrong stride, cursor or offset in any generated pattern
    shows up as a violation here. *)

type result = {
  folds_executed : int;
  addresses_issued : int;
  agu_cycles : int;  (** total address-issue cycles across all transfers *)
  violations : string list;  (** human-readable, empty when safe *)
}

val playback : Db_core.Design.t -> result

val verify : Db_core.Design.t -> unit
(** Raises {!Db_util.Error.Deepburning_error} listing the first violation
    if any address escapes its region or the coordinator trace diverges
    from the schedule. *)
