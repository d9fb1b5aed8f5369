(** Off-chip DDR3 model.

    The board's 2 GB DDR3 is reached through AXI; what the accelerator
    observes is a peak word rate plus a penalty for non-sequential access
    (row-buffer misses).  Transfer-time estimation is in accelerator clock
    cycles so it composes directly with the compute model. *)

type t = {
  dram_name : string;
  peak_bytes_per_cycle : float;
      (** at the accelerator clock; e.g. ~ 32 B/cycle for a 64-bit DDR3-1066
          behind AXI at 100 MHz *)
  sequential_efficiency : float;  (** fraction of peak for unit-stride bursts *)
  random_efficiency : float;  (** fraction of peak for isolated accesses *)
  base_latency_cycles : int;  (** fixed request latency *)
}

val zynq_ddr3 : t

val transfer_cycles : t -> bytes:int -> sequential_fraction:float -> int
(** Cycles to move [bytes] with the given access locality (linear
    interpolation between random and sequential efficiency). *)
