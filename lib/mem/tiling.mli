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

    A plan also knows how to produce the exact pixel permutation and its
    closed-form inverse, so the tests can verify the layout is a bijection
    and (map, y, x) coordinates translate into stream addresses. *)

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

val address :
  plan -> height:int -> width:int -> map:int -> y:int -> x:int -> int
(** Inverse view, in closed form: the stream address of pixel (map, y, x),
    i.e. its index in {!pixel_order}.  Over all pixels it is a permutation
    of [0 .. map_count * height * width - 1].  O(1). *)

val window_sequential_fraction : plan -> height:int -> width:int -> float
(** Average fraction of address-stream steps that are sequential when
    fetching every kernel window of a convolution sweep, each window's
    words in sorted address order (the quantity the DRAM model consumes).
    1.0 means perfectly streaming.  Closed form, no sort and no address
    table: O(1) per window on map-interleaved 1x1 tiles (the NHWC layout),
    O(k^2) per window when maps are stored apart (independent of
    [map_count]), O(k^2 x map_count) per window on map-interleaved tiles
    larger than one pixel.  At most 24 x 24 windows are swept. *)
