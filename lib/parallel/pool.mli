(** A lazily-created OCaml 5 domain pool with deterministic work splitting.

    The pool is sized from [Domain.recommended_domain_count], overridable
    with the [DEEPBURNING_JOBS] environment variable (read once, at first
    use).  Worker domains are spawned on the first parallel call and live
    for the rest of the process.

    Every entry point is safe to nest: the calling domain always executes
    tasks of its own batch, so a parallel section submitted from inside a
    worker completes even when every other worker is busy.

    Determinism contract: callers must split work so that tasks write to
    disjoint locations; under that contract results are bitwise-identical
    for every [DEEPBURNING_JOBS] value, because task boundaries never feed
    back into the values computed.  Cross-task reductions must go through
    {!reduce}, whose chunking is caller-fixed and whose combine runs
    sequentially in ascending chunk order. *)

val job_count : unit -> int
(** Pool width in effect: 1 inside {!with_sequential}, otherwise
    [DEEPBURNING_JOBS] if set (must be >= 1), otherwise
    [Domain.recommended_domain_count ()].  Raises [Invalid_argument] on a
    malformed override. *)

val parallel_for :
  ?chunk:int -> ?work:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for ~lo ~hi f] runs [f i] for every [i] in [\[lo, hi)] (upper
    bound exclusive), split into chunks executed by the pool.  The body
    must only write locations owned by its index.  [chunk] overrides the
    scheduling granularity and [work] estimates the total scalar operation
    count (ranges too small to be worth a batch run inline); neither ever
    affects results.  Exceptions raised by [f] are re-raised in the caller
    (first one wins). *)

val reduce :
  chunk:int ->
  lo:int ->
  hi:int ->
  init:'a ->
  map:(int -> int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  'a
(** [reduce ~chunk ~lo ~hi ~init ~map ~combine] evaluates
    [map s e] on consecutive index ranges [\[s, e)] of fixed width [chunk]
    (the last may be short) and folds the partial results with [combine] in
    ascending chunk order: [combine (combine init r0) r1 ...].  Because the
    chunk width is caller-supplied and the fold is ordered, the result is
    bitwise-deterministic for any pool width — including floating-point
    accumulation. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map]; each element is mapped as one
    task. *)

val with_sequential : (unit -> 'a) -> 'a
(** [with_sequential f] forces every parallel entry point reached during
    [f] to degrade to plain sequential loops on the calling domain
    (process-wide flag; intended for determinism tests). *)
