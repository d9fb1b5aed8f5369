(** Error reporting shared by the parser, the generator and the simulator. *)

exception Deepburning_error of string
(** Carried message already includes the failing component's context. *)

exception
  Timeout of {
    component : string;
    cycles : int;  (** cycles spent when the watchdog fired *)
    budget : int;  (** the cycle budget that was exceeded *)
  }
(** Structured watchdog error: a simulated machine (AGU, coordinator, the
    whole control path) failed to reach its done state within its cycle
    budget — the liveness failure a corrupted FSM or configuration
    register produces on real fabric. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Deepburning_error} with a formatted message. *)

val failf_at : component:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Like {!fail} but prefixes the component name, e.g. ["nn-gen: ..."]. *)

val timeout : component:string -> cycles:int -> budget:int -> 'a
(** Raise {!Timeout}. *)

val protect_io : component:string -> (unit -> 'a) -> 'a
(** [protect_io ~component f] runs [f], rewrapping any raw [Sys_error] or
    [End_of_file] it raises into a classified {!Deepburning_error} under
    [component] (use an [io-*] component so the error lands in {!Io}).
    File reads/writes across the repository run under this guard so that
    bare file-system exceptions never leak past the classification
    layer. *)

(** {2 Failure classes}

    Every {!Deepburning_error} belongs to one coarse class, derived from
    the [~component] prefix of its message.  The CLI maps each class to a
    distinct exit code so scripts can tell a malformed model from a
    resource-infeasible constraint or a simulation liveness failure. *)

type failure_class =
  | Parse  (** malformed prototxt / constraint script *)
  | Validation  (** well-formed input that violates a semantic rule *)
  | Resource  (** constraint infeasible, budget exceeded *)
  | Simulation  (** runtime failure inside a simulated machine *)
  | Watchdog  (** cycle-budget timeout ({!Timeout}) *)
  | Io  (** file-system problems ([Sys_error]) *)
  | Memory  (** the OCaml runtime ran out of memory ([Out_of_memory]) *)
  | Internal  (** anything unclassified *)

val register_component : string -> failure_class -> unit
(** Bind a component prefix (the [~component] of {!failf_at}) to a class.
    Later registrations override earlier ones. *)

val classify_message : string -> failure_class
(** Class of a {!Deepburning_error} message from its ["component: ..."]
    prefix; [Internal] when the prefix is unknown. *)

val classify_exn : exn -> failure_class option
(** Classify the repository's own exceptions ({!Deepburning_error},
    {!Timeout}, [Sys_error]) and [Out_of_memory]; [None] for foreign
    exceptions. *)

val exit_code : failure_class -> int
(** Stable per-class process exit codes: Internal 1, Parse 3,
    Validation 4, Resource 5, Simulation 6, Watchdog 7, Io 8, Memory 9.
    (0–2 stay with the CLI: success, unclassified failures and
    lint/verify findings.) *)

val class_name : failure_class -> string
(** Lower-case label, e.g. ["parse"]. *)

val message_of_exn : exn -> string option
(** Printable message for the exceptions {!classify_exn} understands. *)
