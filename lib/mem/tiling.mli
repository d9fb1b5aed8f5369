(** Hardware-aware data tiling and partitioning — Method-1 of the paper
    (Section 3.4, Fig. 7).

    Given a convolution kernel [k x k] at stride [s], an on-chip memory
    port of [d] words per row, and [t] feature maps, choose how the 2-D
    feature maps are decomposed into tiles in DRAM so that fetching a
    kernel window streams sequentially:

    + if [k = d]: [k x k] tiles, maps one after the other;
    + else if [s] divides both [k] and [d]: [s x s] tiles within one map
      continuously;
    + otherwise: [f x f] tiles for [f = gcd(k, d, s)], tiles of the [t]
      maps interleaved one by one.

    A plan also knows how to produce the exact pixel permutation, so the
    tests can verify the layout is a bijection and the AGUs can translate
    (map, y, x) coordinates into stream addresses. *)

type case =
  | Kernel_tiles  (** case 1: k x k tiles *)
  | Stride_tiles  (** case 2: s x s tiles *)
  | Gcd_tiles  (** case 3: f x f tiles, maps interleaved *)
  | Row_major  (** no tiling (ablation baseline) *)

type spec = { kernel : int; stride : int; port_width : int; map_count : int }

type plan = {
  plan_case : case;
  tile : int;  (** tile edge length in pixels *)
  interleave_maps : bool;
  plan_spec : spec;
}

val decide : spec -> plan
(** Method-1.  Raises {!Db_util.Error.Deepburning_error} on non-positive spec fields. *)

val row_major : spec -> plan
(** The untiled baseline used by the tiling ablation. *)

val pixel_order : plan -> height:int -> width:int -> (int * int * int) array
(** The DRAM storage order as a sequence of (map, y, x) coordinates
    covering all [map_count * height * width] pixels exactly once.  Edge
    tiles are clipped when the image is not a multiple of the tile size. *)

val address_table : plan -> height:int -> width:int -> int array
(** Inverse view: flat array indexed by [((map * height) + y) * width + x]
    giving the stream address of each pixel, a permutation of
    [0 .. map_count * height * width - 1]. *)

val window_sequential_fraction : plan -> height:int -> width:int -> float
(** Average fraction of address-stream steps that are sequential when
    fetching every kernel window of a convolution sweep, each window's
    words in sorted address order (the quantity the DRAM model consumes).
    1.0 means perfectly streaming.  O(windows x window words), no sort. *)
