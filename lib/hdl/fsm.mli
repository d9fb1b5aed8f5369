(** Finite-state machines.

    The DeepBurning compiler describes AGU address patterns and the
    coordinator's dynamic control flow as FSMs, and the hardware generator
    lowers each of them to RTL (Section 3.3).  This module is that shared
    currency: a validated, simulatable FSM.  A design holds a machine as
    an [Rtl.Machine] body; {!lower} turns it into Verilog text only when
    the design is emitted.

    A counted state holds for [n] firings of its outgoing transitions:
    the first [n - 1] keep the machine in the state and advance its
    position, the [n]-th leaves.  The coordinator spends one counted state
    on each fold run, so its size follows the runs, not the folds. *)

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
  counts : (string * int) list;
      (** counted states with their count; an unlisted state counts 1 *)
}

val validate : t -> unit
(** Checks: non-empty state list, no duplicate state names, no duplicate
    input/output declarations (and no name declared as both), initial state
    declared, transition endpoints declared, guards declared as inputs,
    actions declared as outputs, determinism (at most one transition per
    (state, guard) and at most one unguarded transition per state), and
    counts that are positive, one per declared state. *)

val counter_bits : t -> int
(** Width of the position register: enough bits for the largest count's
    positions, 0 when no state counts more than 1. *)

val chain :
  name:string -> advance:string -> output_prefix:string -> (string * int) list -> t
(** The sequencer [idle → s_l1 → … → s_ln → idle] over [(label, count)]
    pairs: the first step fires on input [start], every later one on
    [advance], entering [s_l] pulses output [output_prefix ^ l], and
    [s_l] holds for [count] [advance] pulses.  Validated. *)

val step :
  t -> state:string * int -> asserted:string list -> (string * int) * string list
(** One clock edge of the machine at [(state, position)]: the first
    transition out of [state] whose guard is asserted fires, otherwise the
    unguarded transition, otherwise the machine stays put with no actions.
    A firing that a counted state holds for advances the position and
    asserts nothing; one that leaves moves to position 0 of the target and
    asserts the transition's actions.  Returns the next (state, position)
    and the asserted output pulses. *)

val run :
  t -> asserted:string list list -> ((string * int) * string list) list
(** Fold {!step} from position 0 of the initial state over a list of
    per-cycle input assertions; returns the trace of
    ((state, position), actions). *)

val reachable_states : t -> string list
(** States reachable from the initial state. *)

val clock : string
(** ["clk"]: the clock input of every lowered machine. *)

val reset : string
(** ["rst"]: its synchronous reset input. *)

val lower : t -> string list
(** The machine's Verilog body, one statement per line: one-hot state
    register, a [position] register of {!counter_bits} bits when some
    state counts more than 1, synchronous reset on {!reset}, registered
    Moore/Mealy outputs, all clocked on {!clock}.  Validates first. *)
