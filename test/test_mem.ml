(* Tests for db_mem: AGU access patterns, the DRAM model, buffers, Method-1
   tiling and the network layout. *)

module Access_pattern = Db_mem.Access_pattern
module Dram = Db_mem.Dram
module Buffer_model = Db_mem.Buffer_model
module Tiling = Db_mem.Tiling
module Layout = Db_mem.Layout

let test_pattern_contiguous () =
  let p = Access_pattern.contiguous ~name:"c" ~start:10 ~length:5 in
  Alcotest.(check (list int)) "addresses" [ 10; 11; 12; 13; 14 ]
    (Access_pattern.addresses_list p);
  Alcotest.(check (float 1e-9)) "fully sequential" 1.0
    (Access_pattern.sequential_fraction p)

let test_pattern_rows () =
  let p = Access_pattern.rows ~name:"r" ~start:0 ~x_length:3 ~y_length:2 ~stride:10 in
  Alcotest.(check (list int)) "addresses" [ 0; 1; 2; 10; 11; 12 ]
    (Access_pattern.addresses_list p);
  Alcotest.(check int) "word count" 6 (Access_pattern.word_count p)

let test_pattern_blocks () =
  let p =
    {
      Access_pattern.pattern_name = "b";
      start = 0;
      footprint = 100;
      x_length = 2;
      y_length = 2;
      stride = 4;
      offset = 20;
      repeat = 2;
    }
  in
  Alcotest.(check (list int)) "two displaced blocks"
    [ 0; 1; 4; 5; 20; 21; 24; 25 ]
    (Access_pattern.addresses_list p)

(* Property: the closed-form address stream equals the naive nested loop. *)
let prop_pattern_matches_nested_loops =
  QCheck.Test.make ~name:"AGU stream = naive nested loops" ~count:100
    QCheck.(
      quad (int_range 1 6) (int_range 1 5) (int_range 0 12) (int_range 1 3))
    (fun (x_length, y_length, extra_stride, repeat) ->
      let stride = x_length + extra_stride in
      let block_span = ((y_length - 1) * stride) + x_length in
      let p =
        {
          Access_pattern.pattern_name = "prop";
          start = 3;
          footprint = (repeat * block_span) + (repeat * block_span) + 8;
          x_length;
          y_length;
          stride;
          offset = block_span;
          repeat;
        }
      in
      let naive = ref [] in
      for b = 0 to repeat - 1 do
        for y = 0 to y_length - 1 do
          for x = 0 to x_length - 1 do
            naive := (3 + (b * block_span) + (y * stride) + x) :: !naive
          done
        done
      done;
      Access_pattern.addresses_list p = List.rev !naive)

let test_pattern_validation () =
  let bad =
    {
      Access_pattern.pattern_name = "escape";
      start = 0;
      footprint = 4;
      x_length = 10;
      y_length = 1;
      stride = 0;
      offset = 0;
      repeat = 1;
    }
  in
  match Access_pattern.validate bad with
  | () -> Alcotest.fail "expected footprint escape"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_pattern_fsm () =
  let p = Access_pattern.rows ~name:"f" ~start:0 ~x_length:4 ~y_length:3 ~stride:8 in
  let fsm = Access_pattern.to_fsm p in
  Db_hdl.Fsm.validate fsm;
  Alcotest.(check bool) "has burst state" true (List.mem "burst_row" fsm.Db_hdl.Fsm.states);
  Alcotest.(check bool) "has next_row" true (List.mem "next_row" fsm.Db_hdl.Fsm.states);
  (* trigger -> burst -> ... -> done *)
  let state, actions = Db_hdl.Fsm.step fsm ~state:"idle" ~asserted:[ "trigger" ] in
  Alcotest.(check string) "starts bursting" "burst_row" state;
  Alcotest.(check (list string)) "asserts addr_valid" [ "addr_valid" ] actions

let test_pattern_fsm_single_row () =
  let p = Access_pattern.contiguous ~name:"s" ~start:0 ~length:8 in
  let fsm = Access_pattern.to_fsm p in
  let state, actions = Db_hdl.Fsm.step fsm ~state:"burst_row" ~asserted:[ "row_done" ] in
  Alcotest.(check string) "returns to idle" "idle" state;
  Alcotest.(check (list string)) "done pulse" [ "done_pulse" ] actions

let test_dram_sequential_faster () =
  let d = Dram.zynq_ddr3 in
  let seq = Dram.transfer_cycles d ~bytes:65536 ~sequential_fraction:1.0 in
  let rnd = Dram.transfer_cycles d ~bytes:65536 ~sequential_fraction:0.0 in
  Alcotest.(check bool) "random much slower" true (rnd > 3 * seq);
  Alcotest.(check int) "zero bytes free" 0 (Dram.transfer_cycles d ~bytes:0 ~sequential_fraction:1.0)

let test_dram_latency_floor () =
  let d = Dram.zynq_ddr3 in
  Alcotest.(check bool) "one byte pays latency" true
    (Dram.transfer_cycles d ~bytes:1 ~sequential_fraction:1.0 > d.Dram.base_latency_cycles)

let test_dram_pattern_cycles () =
  let d = Dram.zynq_ddr3 in
  let p = Access_pattern.contiguous ~name:"x" ~start:0 ~length:1000 in
  let cycles = Dram.pattern_cycles d ~bytes_per_word:2 p in
  Alcotest.(check int) "matches transfer"
    (Dram.transfer_cycles d ~bytes:2000 ~sequential_fraction:1.0)
    cycles

let test_buffer_model () =
  let b = Buffer_model.make ~name:"f" ~capacity_words:1024 ~read_words_per_cycle:4 () in
  Alcotest.(check int) "read cycles" 25 (Buffer_model.read_cycles b ~words:100);
  Alcotest.(check int) "write width defaults" 25 (Buffer_model.write_cycles b ~words:100);
  Alcotest.(check bool) "holds" true (Buffer_model.holds b ~words:1024);
  Alcotest.(check bool) "does not hold" false (Buffer_model.holds b ~words:1025);
  Alcotest.(check int) "bram bits" (1024 * 16) (Buffer_model.bram_bits b ~bytes_per_word:2)

let test_method1_case1 () =
  (* k = d: kernel tiles. *)
  let plan = Tiling.decide { Tiling.kernel = 4; stride = 1; port_width = 4; map_count = 2 } in
  Alcotest.(check bool) "case 1" true (plan.Tiling.plan_case = Tiling.Kernel_tiles);
  Alcotest.(check int) "tile = k" 4 plan.Tiling.tile;
  Alcotest.(check bool) "maps not interleaved" false plan.Tiling.interleave_maps

let test_method1_case2 () =
  (* s divides k and d: stride tiles (the paper's 12x12 / stride 4 example
     with a 4-pixel port row). *)
  let plan = Tiling.decide { Tiling.kernel = 12; stride = 4; port_width = 4; map_count = 1 } in
  Alcotest.(check bool) "case 2" true (plan.Tiling.plan_case = Tiling.Stride_tiles);
  Alcotest.(check int) "tile = s" 4 plan.Tiling.tile

let test_method1_case3 () =
  let plan = Tiling.decide { Tiling.kernel = 5; stride = 2; port_width = 4; map_count = 3 } in
  Alcotest.(check bool) "case 3" true (plan.Tiling.plan_case = Tiling.Gcd_tiles);
  Alcotest.(check bool) "interleaved" true plan.Tiling.interleave_maps;
  Alcotest.(check int) "tile = gcd" 1 plan.Tiling.tile

(* Property: any plan's pixel order is a bijection over all pixels. *)
let prop_tiling_partition =
  QCheck.Test.make ~name:"Method-1 tiles partition the image" ~count:100
    QCheck.(
      quad (int_range 1 6) (int_range 1 4) (int_range 1 6) (int_range 1 3))
    (fun (kernel, stride, port_width, map_count) ->
      let plan = Tiling.decide { Tiling.kernel; stride; port_width; map_count } in
      let height = 7 and width = 9 in
      let order = Tiling.pixel_order plan ~height ~width in
      let seen = Hashtbl.create 97 in
      Array.iter (fun pix -> Hashtbl.replace seen pix ()) order;
      Array.length order = map_count * height * width
      && Hashtbl.length seen = Array.length order)

(* Random Method-1 plans over random images: kernel 1-12, stride 1-5, port
   1-16, maps 1-6 and images up to 40x40, so clipped edge tiles and the
   24x24 window cap are both reached; tiled ([decide]) or [row_major]. *)
let arb_plan_image =
  QCheck.(
    pair
      (quad (int_range 1 12) (int_range 1 5) (int_range 1 16) (int_range 1 6))
      (triple (int_range 1 40) (int_range 1 40) bool))

let plan_of (kernel, stride, port_width, map_count) tiled =
  let spec = { Tiling.kernel; stride; port_width; map_count } in
  if tiled then Tiling.decide spec else Tiling.row_major spec

(* Property: the address table is a permutation of 0 .. n-1 that inverts
   the pixel order.  The sort-free locality count relies on it: a window's
   addresses are then distinct. *)
let prop_address_table_inverse =
  QCheck.Test.make ~name:"address table inverts pixel order" ~count:200
    arb_plan_image
    (fun (spec, (height, width, tiled)) ->
      let plan = plan_of spec tiled in
      let order = Tiling.pixel_order plan ~height ~width in
      let table = Tiling.address_table plan ~height ~width in
      let n = Array.length table in
      let hit = Array.make n false in
      Array.iter (fun a -> if a >= 0 && a < n then hit.(a) <- true) table;
      let inverts = ref true in
      Array.iteri
        (fun addr (m, y, x) ->
          if table.(((m * height) + y) * width + x) <> addr then inverts := false)
        order;
      n = Array.length order && Array.for_all Fun.id hit && !inverts)

(* The original locality count, kept here as the oracle: invert the
   materialised pixel order, then sort each window's addresses and count
   the unit steps. *)
let sorted_window_fraction plan ~height ~width =
  let spec = plan.Tiling.plan_spec in
  let k = spec.Tiling.kernel and s = spec.Tiling.stride in
  let maps = spec.Tiling.map_count in
  if height < k || width < k then 1.0
  else begin
    let table = Array.make (maps * height * width) (-1) in
    Array.iteri
      (fun addr (m, y, x) -> table.(((m * height) + y) * width + x) <- addr)
      (Tiling.pixel_order plan ~height ~width);
    let seq = ref 0 and steps = ref 0 in
    let oy_max = Stdlib.min ((height - k) / s) 23 in
    let ox_max = Stdlib.min ((width - k) / s) 23 in
    let window = Array.make (k * k * maps) 0 in
    let prev = ref (-2) in
    for oy = 0 to oy_max do
      for ox = 0 to ox_max do
        let pos = ref 0 in
        for m = 0 to maps - 1 do
          for ky = 0 to k - 1 do
            for kx = 0 to k - 1 do
              window.(!pos) <-
                table.(((m * height) + (oy * s) + ky) * width + (ox * s) + kx);
              incr pos
            done
          done
        done;
        Array.sort compare window;
        Array.iter
          (fun a ->
            if !prev >= 0 then begin
              incr steps;
              if a = !prev + 1 then incr seq
            end;
            prev := a)
          window
      done
    done;
    if !steps = 0 then 1.0 else float_of_int !seq /. float_of_int !steps
  end

(* Property: the sort-free count is bit-identical to the sorting oracle. *)
let prop_window_fraction_matches_sort =
  QCheck.Test.make ~name:"sort-free locality = sorted oracle" ~count:200
    arb_plan_image
    (fun (spec, (height, width, tiled)) ->
      let plan = plan_of spec tiled in
      Int64.equal
        (Int64.bits_of_float
           (Tiling.window_sequential_fraction plan ~height ~width))
        (Int64.bits_of_float (sorted_window_fraction plan ~height ~width)))

let test_tiling_improves_window_locality () =
  (* The paper's example: 12x12 kernel at stride 4, port width 4. *)
  let spec = { Tiling.kernel = 12; stride = 4; port_width = 4; map_count = 1 } in
  let tiled = Tiling.decide spec and flat = Tiling.row_major spec in
  let height = 57 and width = 57 in
  let f_tiled = Tiling.window_sequential_fraction tiled ~height ~width in
  let f_flat = Tiling.window_sequential_fraction flat ~height ~width in
  Alcotest.(check bool)
    (Printf.sprintf "tiled %.3f > flat %.3f" f_tiled f_flat)
    true (f_tiled > f_flat)

let mnist_net () =
  Db_ir.Lower.lower
    (Db_workloads.Model_zoo.build Db_workloads.Model_zoo.mnist_prototxt)

let test_layout_covers_everything () =
  let net = mnist_net () in
  let layout = Layout.build ~port_width:4 net in
  (* Every blob and every weight tensor has an entry; regions are disjoint
     and contiguous from zero. *)
  let sorted =
    List.sort (fun a b -> compare a.Layout.base b.Layout.base) layout.Layout.entries
  in
  let next = ref 0 in
  List.iter
    (fun e ->
      Alcotest.(check int) ("contiguous at " ^ e.Layout.entry_name) !next e.Layout.base;
      next := !next + e.Layout.words)
    sorted;
  Alcotest.(check int) "total" layout.Layout.total_words !next

let test_layout_weight_entries () =
  let net = mnist_net () in
  let layout = Layout.build ~port_width:4 net in
  let conv1 = Layout.weight_entries layout ~node:"conv1" in
  Alcotest.(check int) "conv1 has weight+bias" 2 (List.length conv1);
  (match conv1 with
  | w :: _ -> Alcotest.(check int) "conv1 weights" (8 * 1 * 5 * 5) w.Layout.words
  | [] -> Alcotest.fail "no entries");
  let feature = Layout.feature_entry layout ~blob:"data" in
  Alcotest.(check int) "input words" 256 feature.Layout.words

let test_layout_conv_input_tiled () =
  let net = mnist_net () in
  let layout = Layout.build ~port_width:4 net in
  let entry = Layout.feature_entry layout ~blob:"data" in
  Alcotest.(check bool) "conv-consumed blob gets a plan" true
    (entry.Layout.tile_plan <> None);
  (* The FC input is not convolved: no plan. *)
  let pool2 = Layout.feature_entry layout ~blob:"pool2" in
  Alcotest.(check bool) "fc input untiled" true (pool2.Layout.tile_plan = None)

let suite =
  [
    ( "mem.access_pattern",
      [
        Alcotest.test_case "contiguous" `Quick test_pattern_contiguous;
        Alcotest.test_case "rows" `Quick test_pattern_rows;
        Alcotest.test_case "blocks" `Quick test_pattern_blocks;
        Alcotest.test_case "validation" `Quick test_pattern_validation;
        Alcotest.test_case "fsm" `Quick test_pattern_fsm;
        Alcotest.test_case "fsm single row" `Quick test_pattern_fsm_single_row;
        QCheck_alcotest.to_alcotest prop_pattern_matches_nested_loops;
      ] );
    ( "mem.dram",
      [
        Alcotest.test_case "sequential faster" `Quick test_dram_sequential_faster;
        Alcotest.test_case "latency floor" `Quick test_dram_latency_floor;
        Alcotest.test_case "pattern cycles" `Quick test_dram_pattern_cycles;
      ] );
    ( "mem.buffer", [ Alcotest.test_case "model" `Quick test_buffer_model ] );
    ( "mem.tiling",
      [
        Alcotest.test_case "Method-1 case 1" `Quick test_method1_case1;
        Alcotest.test_case "Method-1 case 2" `Quick test_method1_case2;
        Alcotest.test_case "Method-1 case 3" `Quick test_method1_case3;
        Alcotest.test_case "locality win" `Quick test_tiling_improves_window_locality;
        QCheck_alcotest.to_alcotest prop_tiling_partition;
        QCheck_alcotest.to_alcotest prop_address_table_inverse;
        QCheck_alcotest.to_alcotest prop_window_fraction_matches_sort;
      ] );
    ( "mem.layout",
      [
        Alcotest.test_case "covers everything" `Quick test_layout_covers_everything;
        Alcotest.test_case "weight entries" `Quick test_layout_weight_entries;
        Alcotest.test_case "tile plans" `Quick test_layout_conv_input_tiled;
      ] );
  ]
