(* Tests for db_blocks: the Approx LUT and the component library's resource
   model, latency model and Verilog templates. *)

module Approx_lut = Db_blocks.Approx_lut
module Block = Db_blocks.Block
module Resource = Db_fpga.Resource

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let fmt = Db_fixed.Fixed.q16_8

let test_lut_exact_on_keys () =
  let lut = Approx_lut.build ~name:"sq" ~f:(fun x -> x *. x) ~lo:0.0 ~hi:4.0 ~entries:5 in
  (* Keys are 0,1,2,3,4; values exact there. *)
  List.iter
    (fun k -> Alcotest.(check (float 1e-12)) "key value" (k *. k) (Approx_lut.eval lut k))
    [ 0.0; 1.0; 2.0; 3.0; 4.0 ]

let test_lut_interpolates () =
  let lut = Approx_lut.build ~name:"lin" ~f:(fun x -> 2.0 *. x) ~lo:0.0 ~hi:1.0 ~entries:2 in
  (* A linear function is reproduced exactly by interpolation. *)
  Alcotest.(check (float 1e-12)) "midpoint" 1.0 (Approx_lut.eval lut 0.5);
  Alcotest.(check (float 1e-12)) "quarter" 0.5 (Approx_lut.eval lut 0.25)

let test_lut_clamps () =
  let lut = Approx_lut.sigmoid ~entries:64 in
  Alcotest.(check (float 1e-3)) "below range" (Approx_lut.eval lut (-8.0))
    (Approx_lut.eval lut (-100.0));
  Alcotest.(check (float 1e-3)) "above range" (Approx_lut.eval lut 8.0)
    (Approx_lut.eval lut 100.0)

let test_lut_error_shrinks_with_entries () =
  let f x = 1.0 /. (1.0 +. exp (-.x)) in
  let err n = Approx_lut.max_error (Approx_lut.sigmoid ~entries:n) ~f ~probes:2048 in
  let e16 = err 16 and e64 = err 64 and e256 = err 256 in
  Alcotest.(check bool) "16 > 64" true (e16 > e64);
  Alcotest.(check bool) "64 > 256" true (e64 > e256);
  Alcotest.(check bool) "256 entries are accurate" true (e256 < 2e-3)

let test_lut_mean_le_max () =
  let f = Float.tanh in
  let lut = Approx_lut.tanh_lut ~entries:32 in
  Alcotest.(check bool) "mean <= max" true
    (Approx_lut.mean_error lut ~f ~probes:1000 <= Approx_lut.max_error lut ~f ~probes:1000)

let test_lut_verilog_rom () =
  let lut = Approx_lut.sigmoid ~entries:16 in
  let m = Approx_lut.to_module lut ~fmt in
  let text = Db_hdl.Verilog.emit_module m in
  Alcotest.(check bool) "rom array" true (contains text "reg signed [15:0] rom [0:15];");
  Alcotest.(check bool) "interpolation" true (contains text "super-linear")

let test_block_validation () =
  Alcotest.check_raises "zero simd"
    (Db_util.Error.Deepburning_error "block: synergy neuron needs simd >= 1")
    (fun () -> ignore (Block.make ~name:"n" ~fmt (Block.Synergy_neuron { simd = 0 })));
  Alcotest.check_raises "bad ksorter"
    (Db_util.Error.Deepburning_error "block: k-sorter needs 0 < k <= fan_in")
    (fun () ->
      ignore (Block.make ~name:"k" ~fmt (Block.Classifier_ksorter { k = 5; fan_in = 3 })))

let test_neuron_resources_scale () =
  let r simd =
    Block.resource (Block.make ~name:"n" ~fmt (Block.Synergy_neuron { simd }))
  in
  Alcotest.(check int) "1 DSP per multiplier" 1 (r 1).Resource.dsps;
  Alcotest.(check int) "4 DSPs" 4 (r 4).Resource.dsps;
  Alcotest.(check bool) "luts grow" true ((r 4).Resource.luts > (r 1).Resource.luts)

let test_connection_box_quadratic () =
  let r p =
    Block.resource
      (Block.make ~name:"cb" ~fmt
         (Block.Connection_box { in_ports = p; out_ports = p; shift_latch = false }))
  in
  let r4 = (r 4).Resource.luts and r8 = (r 8).Resource.luts in
  (* Crossbar cost is quadratic in port count. *)
  Alcotest.(check bool) "4x growth" true (r8 >= 3 * r4)

let test_buffer_is_bram () =
  let r =
    Block.resource
      (Block.make ~name:"b" ~fmt (Block.Feature_buffer { words = 1024; port_words = 4 }))
  in
  Alcotest.(check int) "bram bits" (1024 * 16) r.Resource.bram_bits;
  Alcotest.(check int) "no DSPs" 0 r.Resource.dsps

let test_latency_model () =
  let l kind = Block.pipeline_latency (Block.make ~name:"x" ~fmt kind) in
  Alcotest.(check int) "simd-1 neuron" 2 (l (Block.Synergy_neuron { simd = 1 }));
  Alcotest.(check int) "simd-8 neuron has tree stages" 5 (l (Block.Synergy_neuron { simd = 8 }));
  Alcotest.(check bool) "ksorter depth grows" true
    (l (Block.Classifier_ksorter { k = 8; fan_in = 100 })
     > l (Block.Classifier_ksorter { k = 1; fan_in = 100 }))

let test_macs_per_cycle () =
  Alcotest.(check int) "neuron" 3
    (Block.macs_per_cycle (Block.make ~name:"n" ~fmt (Block.Synergy_neuron { simd = 3 })));
  Alcotest.(check int) "non-compute block" 0
    (Block.macs_per_cycle (Block.make ~name:"d" ~fmt Block.Dropout_unit))

let test_templates_emit () =
  let blocks =
    [
      Block.make ~name:"neuron" ~fmt (Block.Synergy_neuron { simd = 2 });
      Block.make ~name:"acc" ~fmt (Block.Accumulator { depth = 8; acc_bits = 24 });
      Block.make ~name:"poolmax" ~fmt (Block.Pooling_unit { window = 2; pool = Block.Max_pool });
      Block.make ~name:"poolavg" ~fmt (Block.Pooling_unit { window = 3; pool = Block.Avg_pool });
      Block.make ~name:"act" ~fmt
        (Block.Activation_unit
           { fn = "sigmoid"; roms = [ Approx_lut.sigmoid ~entries:32 ] });
      Block.make ~name:"relu" ~fmt
        (Block.Activation_unit { fn = "relu"; roms = [] });
      Block.make ~name:"lrn" ~fmt (Block.Lrn_unit { local_size = 5; power = None });
      Block.make ~name:"drop" ~fmt Block.Dropout_unit;
      Block.make ~name:"cb" ~fmt
        (Block.Connection_box { in_ports = 4; out_ports = 4; shift_latch = true });
      Block.make ~name:"sorter" ~fmt (Block.Classifier_ksorter { k = 2; fan_in = 10 });
      Block.make ~name:"agu" ~fmt
        (Block.Agu { agu_kind = Block.Main_agu; pattern_count = 4; addr_bits = 16 });
      Block.make ~name:"coord" ~fmt
        (Block.Coordinator
           {
             fsm =
               Db_hdl.Fsm.chain ~name:"coord" ~advance:"fold_done"
                 ~output_prefix:"ev_" [ ("a", 1); ("b", 4) ];
           });
      Block.make ~name:"fbuf" ~fmt (Block.Feature_buffer { words = 256; port_words = 4 });
    ]
  in
  List.iter
    (fun b ->
      let text = Db_hdl.Verilog.emit_module (Block.to_module b) in
      Alcotest.(check bool)
        (Block.kind_label b.Block.kind ^ " emits a module")
        true
        (contains text "module " && contains text "endmodule"))
    blocks

let test_shift_latch_port () =
  let with_latch =
    Block.to_module
      (Block.make ~name:"cb" ~fmt
         (Block.Connection_box { in_ports = 2; out_ports = 2; shift_latch = true }))
  in
  Alcotest.(check bool) "shifted port present" true
    (List.exists (fun (p : Db_hdl.Rtl.port) -> p.Db_hdl.Rtl.port_name = "shifted")
       with_latch.Db_hdl.Rtl.ports)

(* Property: interpolation error of any smooth monotone function halves
   (at least improves) as entries double. *)
let prop_lut_monotone_error =
  QCheck.Test.make ~name:"LUT error non-increasing in entries" ~count:20
    (QCheck.int_range 3 7)
    (fun log_n ->
      let n = 1 lsl log_n in
      let f x = exp x in
      let build n = Approx_lut.build ~name:"e" ~f ~lo:(-2.0) ~hi:2.0 ~entries:n in
      Approx_lut.max_error (build (2 * n)) ~f ~probes:512
      <= Approx_lut.max_error (build n) ~f ~probes:512 +. 1e-12)

let suite =
  [
    ( "blocks.approx_lut",
      [
        Alcotest.test_case "exact on keys" `Quick test_lut_exact_on_keys;
        Alcotest.test_case "interpolates" `Quick test_lut_interpolates;
        Alcotest.test_case "clamps" `Quick test_lut_clamps;
        Alcotest.test_case "error vs entries" `Quick test_lut_error_shrinks_with_entries;
        Alcotest.test_case "mean <= max" `Quick test_lut_mean_le_max;
        Alcotest.test_case "verilog rom" `Quick test_lut_verilog_rom;
        QCheck_alcotest.to_alcotest prop_lut_monotone_error;
      ] );
    ( "blocks.library",
      [
        Alcotest.test_case "validation" `Quick test_block_validation;
        Alcotest.test_case "neuron resources" `Quick test_neuron_resources_scale;
        Alcotest.test_case "crossbar quadratic" `Quick test_connection_box_quadratic;
        Alcotest.test_case "buffer bram" `Quick test_buffer_is_bram;
        Alcotest.test_case "latency" `Quick test_latency_model;
        Alcotest.test_case "macs per cycle" `Quick test_macs_per_cycle;
        Alcotest.test_case "templates emit" `Quick test_templates_emit;
        Alcotest.test_case "shift latch" `Quick test_shift_latch_port;
      ] );
  ]
