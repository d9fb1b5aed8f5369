(** Cycle-accurate AGU execution.

    The template AGU of Fig. 6 is three counters (column, row, block) and a
    base register driven by the pattern FSM.  This module executes that
    machine one clock at a time, so the compiler-generated patterns can be
    verified against their closed-form address streams and the simulator
    can account for per-cycle address issue.

    One address is issued per cycle while the FSM is in its burst state;
    row/block turnarounds each cost one bubble cycle (the counter reload),
    matching the lowered RTL. *)

type t
(** Mutable AGU state bound to one pattern. *)

type cycle_output = {
  addr : int option;  (** address issued this cycle, if any *)
  busy : bool;  (** the AGU still has addresses to produce *)
  done_pulse : bool;  (** asserted on the cycle the pattern completes *)
}

val create : Access_pattern.t -> t
(** Validates the pattern and loads it; the AGU is idle until {!trigger}. *)

val trigger : t -> unit
(** Fire the pattern-trigger event (from the context buffer). *)

val step : t -> cycle_output
(** Advance one clock. *)

val run_to_completion : ?max_cycles:int -> t -> int list * int
(** Trigger (if idle) and clock until [done_pulse]; returns the issued
    address stream and the cycle count.  Raises {!Db_util.Error.Timeout}
    if [max_cycles] (default 10x the word count plus turnarounds) elapses
    first — a liveness check on the generated control. *)

val cycles_estimate : Access_pattern.t -> int
(** Closed-form cycle count: words + row turnarounds + block turnarounds
    (a one-word pattern costs 1 cycle).  The trigger takes no cycle of
    its own and the done pulse rides the last word's cycle, so this is
    exactly the count [run_to_completion] returns and the budget its
    watchdog compares against. *)
