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

(* Visit every pixel once, in DRAM storage order, as [f addr m y x]. *)
let iter_order plan ~height ~width f =
  let spec = plan.plan_spec in
  let addr = ref 0 in
  let visit m y x =
    f !addr m y x;
    incr addr
  in
  (match plan.plan_case with
  | Row_major ->
      for m = 0 to spec.map_count - 1 do
        for y = 0 to height - 1 do
          for x = 0 to width - 1 do
            visit m y x
          done
        done
      done
  | Kernel_tiles | Stride_tiles | Gcd_tiles ->
      let tile = plan.tile in
      let tiles_y = div_ceil height tile and tiles_x = div_ceil width tile in
      if plan.interleave_maps then
        for ty = 0 to tiles_y - 1 do
          for tx = 0 to tiles_x - 1 do
            for m = 0 to spec.map_count - 1 do
              tile_pixels ~tile ~height ~width ~ty ~tx visit m
            done
          done
        done
      else
        for m = 0 to spec.map_count - 1 do
          for ty = 0 to tiles_y - 1 do
            for tx = 0 to tiles_x - 1 do
              tile_pixels ~tile ~height ~width ~ty ~tx visit m
            done
          done
        done);
  assert (!addr = spec.map_count * height * width)

let pixel_order plan ~height ~width =
  let out = Array.make (plan.plan_spec.map_count * height * width) (0, 0, 0) in
  iter_order plan ~height ~width (fun addr m y x -> out.(addr) <- (m, y, x));
  out

let address_table plan ~height ~width =
  let table = Array.make (plan.plan_spec.map_count * height * width) (-1) in
  iter_order plan ~height ~width (fun addr m y x ->
      table.(((m * height) + y) * width + x) <- addr);
  table

(* Walk every kernel window in raster order; a window spans all input maps
   (a convolution consumes every channel at each output position).  The AGU
   fetches a window's words in stream-address order (its pattern follows
   the layout), so a step is sequential when the next address in sorted
   order is one more than the last — this is where Method-1's partitioning
   pays off, including the map-interleaved case-3 layout whose f=1
   degenerate form is channel interleaving (NHWC).

   No sort is needed.  The address table is a bijection, so a window's
   addresses are distinct, and its in-window sequential steps are those
   addresses [a] whose [a - 1] is also in the window.  [stamp.(a + 1)] holds
   the last window that contained [a], so it never needs clearing.  The
   step between windows joins the previous window's max to this window's
   min.  Cost: O(windows x window words). *)
let window_sequential_fraction plan ~height ~width =
  let spec = plan.plan_spec in
  let k = spec.kernel and s = spec.stride and maps = spec.map_count in
  if height < k || width < k then 1.0
  else begin
    let table = address_table plan ~height ~width in
    let stamp = Array.make (Array.length table + 1) (-1) in
    let oy_max = (height - k) / s and ox_max = (width - k) / s in
    (* Cap the sweep for very large maps: locality statistics converge after
       a few hundred windows. *)
    let oy_max = Stdlib.min oy_max 23 and ox_max = Stdlib.min ox_max 23 in
    let wlen = k * k * maps in
    let window = Array.make wlen 0 in
    let seq = ref 0 and prev_max = ref 0 in
    for oy = 0 to oy_max do
      for ox = 0 to ox_max do
        let w = (oy * (ox_max + 1)) + ox in
        let pos = ref 0 and lo = ref max_int and hi = ref (-1) in
        for m = 0 to maps - 1 do
          for ky = 0 to k - 1 do
            let row = (((m * height) + (oy * s) + ky) * width) + (ox * s) in
            for kx = 0 to k - 1 do
              let a = table.(row + kx) in
              window.(!pos) <- a;
              stamp.(a + 1) <- w;
              if a < !lo then lo := a;
              if a > !hi then hi := a;
              incr pos
            done
          done
        done;
        Array.iter (fun a -> if stamp.(a) = w then incr seq) window;
        if w > 0 && !lo = !prev_max + 1 then incr seq;
        prev_max := !hi
      done
    done;
    (* Every word after the very first is one step. *)
    let steps = ((oy_max + 1) * (ox_max + 1) * wlen) - 1 in
    if steps = 0 then 1.0 else float_of_int !seq /. float_of_int steps
  end
