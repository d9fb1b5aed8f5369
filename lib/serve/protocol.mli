(** The daemon's wire protocol: a hand-rolled HTTP/1.1 subset (one
    request per connection, [Connection: close] on every response) plus
    the JSON helpers for its bodies and a minimal blocking client used
    by the tests, the bench harness and the smoke job. *)

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;  (** names lower-cased *)
  body : string;
}

type read_result =
  | Request of request
  | Malformed of string  (** answer 400; never an exception *)
  | Too_large of string  (** declared body over the cap; answer 413 *)

val max_header_bytes : int

val read_request : max_body:int -> Unix.file_descr -> read_result
(** Read and parse one request.  Bounded: headers at
    {!max_header_bytes}, body at [max_body] (checked against
    [Content-Length] {e before} reading the body, so an oversized upload
    is rejected without buffering it). *)

val header : string -> request -> string option
(** Case-insensitive header lookup (pass the name lower-cased). *)

val write_response :
  Unix.file_descr -> status:int -> ?headers:(string * string) list ->
  body:string -> unit -> unit
(** Write a complete response; swallows [EPIPE]-class errors from peers
    that hung up. *)

val status_text : int -> string

val json_escape : string -> string
(** {!Db_util.Minijson.escape}. *)

val error_body : cls:string -> message:string -> string
(** [{"status":"error","class":cls,"message":...}] *)

val shed_body : retry_after_s:int -> string
(** [{"status":"shed","retry_after_s":n}] — the backpressure response. *)

val request :
  ?host:string -> port:int -> meth:string -> path:string ->
  ?headers:(string * string) list -> ?body:string -> unit -> int * string
(** Blocking one-shot client: send one request, read to EOF, return
    [(status, body)]. *)
