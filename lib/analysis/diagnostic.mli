(** Structured diagnostics produced by the RTL static analyzer.

    Every finding carries a stable code (e.g. ["DB-E001"]), a severity, the
    module (or FSM) it was found in, an optional net/port/state name and a
    human-readable message.  The codes are documented in DESIGN.md under
    "RTL static analysis". *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable diagnostic code, e.g. ["DB-E001"] *)
  severity : severity;
  scope : string;  (** module or FSM the finding belongs to *)
  item : string option;  (** net / port / state name, when applicable *)
  message : string;
}

val v :
  code:string -> severity:severity -> scope:string -> ?item:string -> string -> t

val errors : t list -> t list

val warnings : t list -> t list

val infos : t list -> t list

val strictify : t list -> t list
(** Promote every warning to an error ([--strict] mode); info is untouched. *)

val sort : t list -> t list
(** Stable sort: errors first, then warnings, then info. *)

val summary : t list -> string
(** ["2 error(s), 1 warning(s), 3 info"]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val to_json : t -> string

val json_of_list : t list -> string
(** A JSON array of diagnostic objects with [code], [severity], [module],
    [item] and [message] fields. *)
