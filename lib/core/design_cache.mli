(** Content-keyed memoisation of {!Generator.generate}.

    The cache key is the dump ({!Db_ir.Print.to_string}) of the
    {!Db_ir.Lower.lower}ed graph — exactly the graph {!Generator} consumes —
    plus every field of the constraint config and the tiling/lanes options.
    Two networks share an entry only when they lower to the same graph, so
    a hit always returns the design {!Generator.generate} would build.
    Safe to call from pool workers; generation itself runs outside the
    cache lock. *)

val generate :
  ?tiling_enabled:bool -> Constraints.t -> Db_nn.Network.t -> Design.t
(** Memoised {!Generator.generate} (same defaults). *)

val generate_with_lanes :
  ?tiling_enabled:bool -> Constraints.t -> Db_nn.Network.t -> lanes:int -> Design.t
(** Memoised {!Generator.generate_with_lanes}. *)

val stats : unit -> int * int
(** [(hits, misses)] since start or the last {!clear}. *)

val cache_key :
  ?lanes:int -> ?tiling_enabled:bool -> Constraints.t -> Db_nn.Network.t -> string
(** The exact memoisation key {!generate} (or, with [lanes],
    {!generate_with_lanes}) uses for this request — what a persistent
    second level addresses its entries by. *)

(** {2 Second level}

    An optional persistent layer consulted on in-memory misses and
    written through on generation — in practice [Db_store.Disk_store],
    which depends on this library and therefore registers itself as a
    pair of closures.  Both operations are best-effort: an exception
    from the second level is absorbed (lookup behaves as a miss, the
    write is dropped), because a cache must never fail a request the
    generator can serve. *)

type second_level = {
  sl_lookup : string -> Design.t option;
  sl_store : string -> Design.t -> unit;
}

val set_second_level : second_level option -> unit
(** Install or remove the second level (process-wide). *)

(** Per-design derived-artifact cache (compiled simulation traces, memoised
    timing reports, ...).  Each instantiation owns an identity-keyed store:
    entries are keyed on the physical {!Design.t} value, which is canonical
    because {!generate} memoises, so [==] is both cheap and correct.  The
    store registers itself with {!clear} and is dropped alongside the
    design table.  Generative: instantiate once per artifact kind at module
    level, not per call. *)
module Artifact (V : sig
  type t
end) : sig
  val find : Design.t -> compile:(Design.t -> V.t) -> V.t
  (** Return the cached artifact for this exact design value, compiling and
      inserting it on first use.  [compile] runs outside the store lock;
      concurrent racers on the same design both compile and the first
      insert wins.  Safe to call from pool workers. *)
end

val clear : unit -> unit
(** Drop every cached design (and every registered {!Artifact} store) and
    reset {!stats}. *)
