(** Supervised accelerator-generation daemon: [deepburning serve].

    One accept domain feeds a bounded queue drained by a fixed pool of
    worker domains.  Admission control is explicit — a full queue sheds
    new connections with [503 + Retry-After] instead of buffering without
    bound, per-client concurrency is capped ([429]), and work that waited
    past its queue deadline is shed rather than processed late.  Requests
    run through {!Db_core.Design_cache} (and, when configured, the
    persistent {!Db_store.Disk_store} beneath it), so repeated models are
    served from cache across requests and restarts.

    Every error response carries the request's
    {!Db_util.Error.failure_class}; a corrupt store entry is regenerated
    instead of reported.  Endpoints: [GET /health], [GET /metrics]
    (request, store, cache and [gc.*] collector counters),
    [POST /generate], [POST /simulate]. *)

type config = {
  port : int;  (** 0 picks an ephemeral port (tests) *)
  host : string;
  workers : int;  (** worker domains *)
  queue_capacity : int;  (** queued connections beyond this are shed *)
  per_client_quota : int;
      (** concurrently processed requests per client ([x-client] header,
          falling back to the peer address) *)
  queue_deadline_s : float;  (** shed work that waited longer than this *)
  cycle_budget : int;  (** default simulation watchdog budget *)
  max_body : int;  (** request-body cap; larger uploads answer 413 *)
  store_dir : string option;  (** persistent design store root *)
  store_max_bytes : int option;
      (** size-bound the store: every write-through LRU-compacts it
          ([serve.store.evicted] counts the sweeps) *)
}

val default_config : config
(** Port 8317 on loopback, 4 workers, queue of 64, quota 8, 30 s
    deadline, 4 MiB bodies, no persistent store. *)

type t

val start : config -> t
(** Bind, spawn the accept and worker domains, and (if [store_dir] is
    set) open and {!Db_store.Disk_store.attach} the persistent store.
    Raises a classified [io-serve] error when the address cannot be
    bound. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain every queued and in-flight
    request, join all domains, detach the store. *)

val stats : t -> int * int * int * int
(** [(requests, ok, errors, shed)] since {!start}. *)

val run : ?on_ready:(int -> unit) -> config -> unit
(** {!start}, then block until SIGTERM/SIGINT, then {!stop} — the drain
    semantics the CLI's [serve] subcommand relies on.  [on_ready] is
    called with the bound port once the daemon is accepting. *)

val status_of_class : Db_util.Error.failure_class -> int
(** HTTP status of a classified failure: parse 400; validation, resource
    and simulation 422; watchdog 504; io and internal 500; memory 507. *)

val default_constraint_script : string
(** Constraint script assumed when a request omits ["constraint"]. *)
