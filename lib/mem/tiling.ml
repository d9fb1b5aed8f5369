type case = Kernel_tiles | Stride_tiles | Gcd_tiles | Row_major

type spec = { kernel : int; stride : int; port_width : int; map_count : int }

type plan = {
  plan_case : case;
  tile : int;
  interleave_maps : bool;
  plan_spec : spec;
}

let fail fmt = Db_util.Error.failf_at ~component:"tiling" fmt

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let check spec =
  if spec.kernel <= 0 || spec.stride <= 0 || spec.port_width <= 0
     || spec.map_count <= 0
  then fail "spec fields must be positive (kernel %d, stride %d, port %d, maps %d)" spec.kernel spec.stride spec.port_width spec.map_count

let decide spec =
  check spec;
  if spec.kernel = spec.port_width then
    { plan_case = Kernel_tiles; tile = spec.kernel; interleave_maps = false; plan_spec = spec }
  else if
    spec.stride > 1
    && spec.kernel mod spec.stride = 0
    && spec.port_width mod spec.stride = 0
  then
    { plan_case = Stride_tiles; tile = spec.stride; interleave_maps = false; plan_spec = spec }
  else begin
    let f = gcd (gcd spec.kernel spec.port_width) spec.stride in
    { plan_case = Gcd_tiles; tile = Stdlib.max 1 f; interleave_maps = true; plan_spec = spec }
  end

let row_major spec =
  check spec;
  { plan_case = Row_major; tile = 1; interleave_maps = false; plan_spec = spec }

let div_ceil a b = (a + b - 1) / b

(* Enumerate map [m]'s pixels of one tile at tile-grid position (ty, tx),
   clipped at the image edge. *)
let tile_pixels ~tile ~height ~width ~ty ~tx f m =
  let y0 = ty * tile and x0 = tx * tile in
  for y = y0 to Stdlib.min height (y0 + tile) - 1 do
    for x = x0 to Stdlib.min width (x0 + tile) - 1 do
      f m y x
    done
  done

(* Visit every pixel once, in DRAM storage order, as [f addr m y x].  An
   untiled plan is the tiled walk with 1x1 tiles, maps one after another. *)
let iter_order plan ~height ~width f =
  let maps = plan.plan_spec.map_count and tile = plan.tile in
  let addr = ref 0 in
  let visit m y x =
    f !addr m y x;
    incr addr
  in
  let tiles_y = div_ceil height tile and tiles_x = div_ceil width tile in
  if plan.interleave_maps then
    for ty = 0 to tiles_y - 1 do
      for tx = 0 to tiles_x - 1 do
        for m = 0 to maps - 1 do
          tile_pixels ~tile ~height ~width ~ty ~tx visit m
        done
      done
    done
  else
    for m = 0 to maps - 1 do
      for ty = 0 to tiles_y - 1 do
        for tx = 0 to tiles_x - 1 do
          tile_pixels ~tile ~height ~width ~ty ~tx visit m
        done
      done
    done;
  assert (!addr = maps * height * width)

let pixel_order plan ~height ~width =
  let out = Array.make (plan.plan_spec.map_count * height * width) (0, 0, 0) in
  iter_order plan ~height ~width (fun addr m y x -> out.(addr) <- (m, y, x));
  out

(* Pixel (m, y, x) lives at [base + m * stride]: [base] is the address of
   map 0's copy of (y, x) and [stride] the distance between maps.  A tile
   (ty, tx) clipped to th x tw pixels starts [ty*t*W + tx*t*th] pixels into
   a map (full tile rows above it, then the tiles to its left in its row),
   and its pixels are row-major with width tw.  Maps one after another sit
   H*W apart; interleaved maps multiply the tile's start by [maps] and sit
   th*tw apart inside it. *)
let base_stride plan ~height ~width ~y ~x =
  let t = plan.tile in
  let ty = y / t and tx = x / t in
  let th = Int.min t (height - (ty * t)) in
  let tw = Int.min t (width - (tx * t)) in
  let start = (ty * t * width) + (tx * t * th) in
  let inner = ((y - (ty * t)) * tw) + (x - (tx * t)) in
  if plan.interleave_maps then
    ((start * plan.plan_spec.map_count) + inner, th * tw)
  else (start + inner, height * width)

let address plan ~height ~width ~map ~y ~x =
  let base, stride = base_stride plan ~height ~width ~y ~x in
  base + (map * stride)

(* Walk every kernel window in raster order; a window spans all input maps
   (a convolution consumes every channel at each output position).  The AGU
   fetches a window's words in stream-address order (its pattern follows
   the layout), so a step is sequential when the next address in sorted
   order is one more than the last — this is where Method-1's partitioning
   pays off, including the map-interleaved case-3 layout whose f=1
   degenerate form is channel interleaving (NHWC).

   No sort and no address table.  Addresses are a bijection, so a window's
   addresses are distinct, and its in-window sequential steps are those
   addresses [a] whose [a - 1] is also in the window.  Pixel (m, y, x)
   lives at [A + m * S] ([base_stride]), and the count takes one of three
   closed forms:

   - Map-interleaved 1x1 tiles (NHWC, [S = 1]): a window row is one run of
     [k * maps] words, and two rows touch only when [k = W], so a window
     holds [k^2 * maps - runs] steps, [runs = 1] if [k = W] else [k].
     O(1) per window.
   - Maps stored apart (every plan that does not interleave them,
     [S = H * W]): the window is [B + m * S] over the k^2 cell bases [B] of
     map 0's plane, all in [0, S).  Word [b + m * S] follows another window
     word when [b - 1] is in [B], or at [b = 0], [m > 0] when [S - 1] is, so
     the window holds [maps * seq(B) + (maps - 1)] steps if [B] spans
     [0 .. S - 1], else [maps * seq(B)].  O(k^2) per window, whatever
     [maps].
   - Interleaved tiles with t > 1 (no zoo layer reaches it): [S = th * tw]
     shrinks at clipped edge tiles, and a tile's maps sit between its
     neighbours, so every word of the window is counted: O(k^2 * maps).

   [seq(B)] and the last case share one stamp array: [stamp.(a - lo + 1)]
   holds the last window that contained the counted word [a], [lo] being
   the least one; window indices never repeat, so it needs no clearing and
   only spans one window's counted range.  The step between windows joins
   the previous window's max to this window's min. *)
let window_sequential_fraction plan ~height ~width =
  let spec = plan.plan_spec in
  let k = spec.kernel and s = spec.stride and maps = spec.map_count in
  if height < k || width < k then 1.0
  else begin
    let oy_max = (height - k) / s and ox_max = (width - k) / s in
    (* Cap the sweep for very large maps: locality statistics converge after
       a few hundred windows. *)
    let oy_max = Stdlib.min oy_max 23 and ox_max = Stdlib.min ox_max 23 in
    let cells = k * k and plane = height * width in
    let nhwc = plan.interleave_maps && plan.tile = 1 in
    (* Counted words per cell: map 0's alone when maps are stored apart. *)
    let copies = if plan.interleave_maps then maps else 1 in
    let bases = Array.make cells 0 and strides = Array.make cells 0 in
    let stamp = ref [||] in
    let seq = ref 0 and prev_max = ref 0 in
    for oy = 0 to oy_max do
      for ox = 0 to ox_max do
        let w = (oy * (ox_max + 1)) + ox in
        let y0 = oy * s and x0 = ox * s in
        let lo = ref max_int and hi = ref (-1) in
        if nhwc then begin
          seq := !seq + (cells * maps) - (if k = width then 1 else k);
          lo := ((y0 * width) + x0) * maps;
          hi := ((((y0 + k - 1) * width) + x0 + k) * maps) - 1
        end
        else begin
          for ky = 0 to k - 1 do
            for kx = 0 to k - 1 do
              let base, stride =
                base_stride plan ~height ~width ~y:(y0 + ky) ~x:(x0 + kx)
              in
              let c = (ky * k) + kx in
              bases.(c) <- base;
              strides.(c) <- stride;
              if base < !lo then lo := base;
              hi := Int.max !hi (base + ((copies - 1) * stride))
            done
          done;
          let least = !lo in
          if !hi - least + 2 > Array.length !stamp then
            stamp := Array.make (!hi - least + 2) (-1);
          let stamp = !stamp in
          for c = 0 to cells - 1 do
            for m = 0 to copies - 1 do
              stamp.(bases.(c) - least + (m * strides.(c)) + 1) <- w
            done
          done;
          let counted = ref 0 in
          for c = 0 to cells - 1 do
            for m = 0 to copies - 1 do
              if stamp.(bases.(c) - least + (m * strides.(c))) = w then
                incr counted
            done
          done;
          if plan.interleave_maps then seq := !seq + !counted
          else begin
            seq := !seq + (maps * !counted);
            if least = 0 && !hi = plane - 1 then seq := !seq + maps - 1;
            hi := !hi + ((maps - 1) * plane)
          end
        end;
        if w > 0 && !lo = !prev_max + 1 then incr seq;
        prev_max := !hi
      done
    done;
    (* Every word after the very first is one step. *)
    let steps = ((oy_max + 1) * (ox_max + 1) * cells * maps) - 1 in
    if steps = 0 then 1.0 else float_of_int !seq /. float_of_int steps
  end
