(** A minimal JSON reader, and the one string escaper, for the
    repository's own machine-readable outputs (BENCH.json, campaign JSON, Chrome traces).  Not a general
    parser: no streaming, integers and floats both land in [Number], and
    input must be a single complete value.  Parse errors raise
    [Db_util.Error.Deepburning_error] with component ["json"]. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in source order *)

val parse : string -> t

val escape : string -> string
(** The body of a JSON string literal holding [s], without the quotes.
    The double quote, backslash, newline, carriage return and tab get
    their two-character escapes, every other control character a six-
    character [u00XX] escape; all other bytes pass through. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_number : t -> float
(** Raises on non-numbers. *)

val to_string : t -> string
(** Raises on non-strings. *)

val to_list : t -> t list
(** Raises on non-arrays. *)
