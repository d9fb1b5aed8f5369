(** On-chip BRAM buffer model.

    The generated accelerator has (at least) a feature buffer and a weight
    buffer (Fig. 2).  The memory-safety checker holds every fold's
    resident working set to the buffer's capacity; port widths and cycle
    costs belong to {!Db_sim.Perf_model}. *)

type t = { capacity_words : int }

val make : capacity_words:int -> t
(** Raises a [buffer-model] error unless the capacity is positive. *)

val holds : t -> words:int -> bool
(** Whether a working set fits entirely. *)
