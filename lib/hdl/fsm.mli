(** Finite-state machines.

    The DeepBurning compiler describes AGU address patterns and the
    coordinator's dynamic control flow as FSMs, then hands them to the
    hardware generator which lowers them to RTL (Section 3.3).  This module
    is that shared currency: a validated, simulatable FSM.  A design holds
    a machine as an [Rtl.Machine] body; {!lower} turns it into Verilog text
    only when the design is emitted. *)

type transition = {
  from_state : string;
  guard : string option;
      (** name of a boolean input; [None] is an unconditional epsilon
          taken when no guarded transition fires *)
  to_state : string;
  actions : string list;  (** output pulse signals asserted on this edge *)
}

type t = {
  fsm_name : string;
  states : string list;
  initial : string;
  inputs : string list;
  outputs : string list;
  transitions : transition list;
}

val validate : t -> unit
(** Checks: non-empty state list, no duplicate state names, no duplicate
    input/output declarations (and no name declared as both), initial state
    declared, transition endpoints declared, guards declared as inputs,
    actions declared as outputs, and determinism (at most one transition per
    (state, guard) and at most one unguarded transition per state). *)

val chain :
  name:string -> advance:string -> output_prefix:string -> string list -> t
(** The sequencer [idle → s_l1 → … → s_ln → idle] over [labels]: the first
    step fires on input [start], every later one on [advance], and
    entering [s_l] pulses output [output_prefix ^ l].  Validated. *)

val step : t -> state:string -> asserted:string list -> string * string list
(** One clock edge of the machine: the first transition out of [state]
    whose guard is asserted fires, otherwise the unguarded transition,
    otherwise the machine stays put with no actions.  Returns the next
    state and the asserted output pulses. *)

val run : t -> asserted:string list list -> (string * string list) list
(** Fold {!step} from the initial state over a list of per-cycle input
    assertions; returns the trace of (state, actions). *)

val reachable_states : t -> string list
(** States reachable from the initial state. *)

val clock : string
(** ["clk"]: the clock input of every lowered machine. *)

val reset : string
(** ["rst"]: its synchronous reset input. *)

val lower : t -> string list
(** The machine's Verilog body, one statement per line: one-hot state
    register, synchronous reset on {!reset}, registered Moore/Mealy
    outputs, all clocked on {!clock}.  Validates first. *)
