(* Tests for db_check and the generator-side checker: interval-domain
   unit tests, tamper tests provoking every DB-R0xx / DB-M1xx diagnostic,
   and the soundness property tests — dynamic interpreter values enclosed
   by the static intervals, and replayed AGU address streams enclosed by
   the static address bounds — across the model zoo. *)

module I = Db_check.Interval
module Range = Db_check.Range
module Mem = Db_check.Mem_safety
module Checker = Db_core.Checker
module D = Db_analysis.Diagnostic
module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Fixed = Db_fixed.Fixed
module Layer = Db_nn.Layer

let zoo_models = Db_workloads.Model_zoo.named

let build name = Db_workloads.Model_zoo.build (List.assoc name zoo_models)

let lower name = Db_ir.Lower.lower (build name)

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)

let has_code code diags = List.exists (fun d -> d.D.code = code) diags

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* Designs are reused across the memory-safety, enclosure and RTL tests;
   generate each one once. *)
let constraint_script =
  {|constraint { device: "zynq-7045" dsps: 16 luts: 60000 ffs: 40000 bram_kb: 1024 }|}

let design_cache : (string, Db_core.Design.t) Hashtbl.t = Hashtbl.create 8

let design_of name =
  match Hashtbl.find_opt design_cache name with
  | Some d -> d
  | None ->
      let d =
        Db_core.Generator.generate_from_script
          ~model:(List.assoc name zoo_models)
          ~constraint_script ()
      in
      Hashtbl.add design_cache name d;
      d

(* --- interval domain ----------------------------------------------------- *)

let feq = Alcotest.(check (float 1e-9))

let test_interval_construction () =
  (match I.make ~lo:Float.nan ~hi:1.0 with
  | (_ : I.t) -> Alcotest.fail "NaN endpoint accepted"
  | exception Db_util.Error.Deepburning_error _ -> ());
  (match I.make ~lo:2.0 ~hi:1.0 with
  | (_ : I.t) -> Alcotest.fail "empty interval accepted"
  | exception Db_util.Error.Deepburning_error _ -> ());
  Alcotest.(check bool) "top is top" true (I.is_top I.top);
  Alcotest.(check bool) "top infinite" false (I.is_finite I.top);
  Alcotest.(check bool) "top contains" true (I.contains I.top 1e300);
  Alcotest.(check bool) "point finite" true (I.is_finite (I.point 3.0))

let test_interval_lattice () =
  let j = I.join (I.make ~lo:(-1.0) ~hi:2.0) (I.make ~lo:0.0 ~hi:5.0) in
  feq "join lo" (-1.0) j.I.lo;
  feq "join hi" 5.0 j.I.hi;
  let h = I.hull [ I.point 1.0; I.point (-4.0); I.point 2.5 ] in
  feq "hull lo" (-4.0) h.I.lo;
  feq "hull hi" 2.5 h.I.hi;
  Alcotest.(check bool) "subset yes" true
    (I.subset (I.make ~lo:0.0 ~hi:1.0) ~of_:(I.make ~lo:(-1.0) ~hi:2.0));
  Alcotest.(check bool) "subset no" false
    (I.subset (I.make ~lo:0.0 ~hi:3.0) ~of_:(I.make ~lo:(-1.0) ~hi:2.0))

let test_interval_arith () =
  let a = I.add (I.make ~lo:1.0 ~hi:2.0) (I.make ~lo:10.0 ~hi:20.0) in
  feq "add lo" 11.0 a.I.lo;
  feq "add hi" 22.0 a.I.hi;
  let s = I.scale (I.make ~lo:1.0 ~hi:2.0) (-3.0) in
  feq "scale flips lo" (-6.0) s.I.lo;
  feq "scale flips hi" (-3.0) s.I.hi;
  feq "abs_max" 5.0 (I.abs_max (I.make ~lo:(-5.0) ~hi:2.0));
  feq "term_hi negative weight" 8.0 (I.term_hi (I.make ~lo:(-2.0) ~hi:3.0) (-4.0));
  feq "term_lo negative weight" (-12.0)
    (I.term_lo (I.make ~lo:(-2.0) ~hi:3.0) (-4.0));
  let c = I.clamp (I.make ~lo:5.0 ~hi:9.0) ~lo:0.0 ~hi:3.0 in
  feq "disjoint clamp collapses lo" 3.0 c.I.lo;
  feq "disjoint clamp collapses hi" 3.0 c.I.hi;
  let n = I.neg (I.make ~lo:(-1.0) ~hi:4.0) in
  feq "neg lo" (-4.0) n.I.lo;
  feq "neg hi" 1.0 n.I.hi;
  let w = I.widen (I.point 1.0) in
  Alcotest.(check bool) "widen encloses" true
    (I.subset (I.point 1.0) ~of_:w);
  Alcotest.(check bool) "widen is strict" true (I.width w > 0.0)

(* Soundness of the domain operations: a concrete point inside the input
   interval always lands inside the abstract image. *)
let prop_interval_sound =
  QCheck.Test.make ~name:"interval ops enclose concrete points" ~count:300
    QCheck.(
      quad (float_range (-100.0) 100.0) (float_range 0.0 50.0)
        (float_range (-10.0) 10.0) (float_range 0.0 1.0))
    (fun (lo, width, w, frac) ->
      let t = I.make ~lo ~hi:(lo +. width) in
      let x = lo +. (frac *. width) in
      let scaled = I.scale t w in
      I.contains scaled (w *. x)
      && w *. x <= I.term_hi t w
      && w *. x >= I.term_lo t w
      && I.contains (I.join t (I.point 0.0)) x
      && I.contains (I.clamp t ~lo:(-5.0) ~hi:5.0)
           (Float.min 5.0 (Float.max (-5.0) x)))

(* --- range analysis: feasibility and tampering --------------------------- *)

let test_format_feasibility () =
  (match Range.format_feasibility Fixed.q16_8 with
  | Ok () -> ()
  | Error why -> Alcotest.fail ("q16_8 judged infeasible: " ^ why));
  match Range.format_feasibility (Fixed.format ~total_bits:8 ~frac_bits:7) with
  | Ok () -> Alcotest.fail "Q1.7 cannot hold the canonical input range"
  | Error _ -> ()

let test_tamper_input_escape () =
  let report =
    Range.analyze ~input:(I.make ~lo:(-1e6) ~hi:1e6) ~fmt:Fixed.q16_8
      (lower "mlp")
  in
  Alcotest.(check bool) "DB-R001 error" true
    (has_code Range.code_input_escape (D.errors report.Range.rp_diags))

let test_tamper_input_headroom () =
  (* 100.0 fits Q8.8 (max ~127.996) but with under one bit of headroom. *)
  let report =
    Range.analyze
      ~input:(I.make ~lo:(-100.0) ~hi:100.0)
      ~fmt:Fixed.q16_8 (lower "mlp")
  in
  Alcotest.(check bool) "no error" true (D.errors report.Range.rp_diags = []);
  Alcotest.(check bool) "DB-R004 warning" true
    (has_code Range.code_headroom (D.warnings report.Range.rp_diags))

(* Replace every trained tensor of one weighted layer with a constant. *)
let poison_params net ~value =
  let rng = Db_util.Rng.create 11 in
  let params = Db_nn.Params.init_xavier rng net in
  let names = ref [] in
  Db_nn.Params.iter params (fun name _ -> names := name :: !names);
  (match List.sort compare !names with
  | first :: _ ->
      let ts = Db_nn.Params.get params first in
      Db_nn.Params.set params first (List.map (Tensor.map (fun _ -> value)) ts)
  | [] -> Alcotest.fail "network has no weighted layer");
  params

let test_tamper_param_escape () =
  let net = build "mlp" in
  let params = poison_params net ~value:1e6 in
  let report =
    Range.analyze ~params ~fmt:Fixed.q16_8 (Db_ir.Lower.lower net)
  in
  Alcotest.(check bool) "DB-R002 error" true
    (has_code Range.code_param_escape (D.errors report.Range.rp_diags))

let test_tamper_acc_width () =
  let net = build "mlp" in
  let params = poison_params net ~value:1e18 in
  let report =
    Range.analyze ~params ~fmt:Fixed.q16_8 (Db_ir.Lower.lower net)
  in
  Alcotest.(check bool) "DB-R003 error" true
    (has_code Range.code_acc_width (D.errors report.Range.rp_diags))

let test_saturation_info () =
  (* In assumed-weights mode the deep zoo nets lose the saturation proof
     mid-network: an info diagnostic, never an error, and strict mode
     must not promote it. *)
  let report = Range.analyze ~fmt:Fixed.q16_8 (lower "mnist") in
  Alcotest.(check bool) "DB-R005 info" true
    (has_code Range.code_saturation (D.infos report.Range.rp_diags));
  Alcotest.(check bool) "not an error" false
    (has_code Range.code_saturation (D.errors report.Range.rp_diags));
  Alcotest.(check bool) "strictify leaves info" false
    (has_code Range.code_saturation
       (D.errors (D.strictify report.Range.rp_diags)))

let test_frac_clamp_diag () =
  let fmt, diags =
    Db_core.Calibration.choose_format_report ~total_bits:8 ~max_abs:1e6 ()
  in
  Alcotest.(check int) "clamped to integer resolution" 0 fmt.Fixed.frac_bits;
  Alcotest.(check (list string)) "DB-R006 surfaced"
    [ Range.code_frac_clamp ]
    (codes diags);
  Alcotest.(check bool) "as warning" true (has_code Range.code_frac_clamp (D.warnings diags));
  (* A representable magnitude keeps the report silent. *)
  let _, clean =
    Db_core.Calibration.choose_format_report ~total_bits:16 ~max_abs:0.9 ()
  in
  Alcotest.(check (list string)) "no diag when frac survives" [] (codes clean)

let test_acc_bits_reported () =
  let report = Range.analyze ~fmt:Fixed.q16_8 (lower "mlp") in
  let per_layer = Range.layer_acc_bits report in
  Alcotest.(check bool) "weighted layers present" true (per_layer <> []);
  List.iter
    (fun (_, bits) ->
      Alcotest.(check bool) "wider than the word" true
        (bits > Fixed.q16_8.Fixed.total_bits);
      Alcotest.(check bool) "within the exact-int limit" true
        (bits <= Range.acc_bits_limit))
    per_layer;
  Alcotest.(check int) "min_acc_bits is the max over layers"
    (List.fold_left (fun acc (_, b) -> Stdlib.max acc b) 0 per_layer)
    report.Range.rp_min_acc_bits

(* --- enclosure: dynamic interpreter within static intervals -------------- *)

let interp_models =
  [ "mlp"; "cmac"; "mnist"; "cifar"; "cifar-lite"; "hopfield"; "lenet5"; "ann0" ]

let test_interp_enclosure name () =
  let net = build name in
  let g = Db_ir.Lower.lower net in
  let rng = Db_util.Rng.create 7 in
  let params = Db_nn.Params.init_xavier rng net in
  let input_node = List.hd (Db_nn.Network.input_nodes net) in
  let blob = List.hd input_node.Db_nn.Network.tops in
  let shape =
    match input_node.Db_nn.Network.layer with
    | Layer.Input { shape } -> shape
    | _ -> Alcotest.fail "input node carries no shape"
  in
  let report = Range.analyze ~params ~fmt:Fixed.q16_8 g in
  (* Several draws per model; the static intervals must enclose them all. *)
  for _ = 1 to 3 do
    let input = Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0 in
    let env = Db_ir.Interp.forward g params ~inputs:[ (blob, input) ] in
    List.iter
      (fun (top, tensor) ->
        match Range.blob_interval report top with
        | None -> Alcotest.fail (name ^ ": no static interval for " ^ top)
        | Some iv ->
            Tensor.iteri
              (fun i v ->
                if not (I.contains iv v) then
                  Alcotest.fail
                    (Printf.sprintf
                       "%s: blob %s element %d = %.9g escapes static %s" name
                       top i v (I.to_string iv)))
              tensor)
      env
  done

(* --- enclosure: AGU replay within static address bounds ------------------ *)

let test_agu_enclosure name () =
  let design = design_of name in
  let steps = Checker.steps_of_design design in
  Alcotest.(check bool) "design has transfer steps" true (steps <> []);
  List.iter
    (fun (step : Mem.step) ->
      List.iter
        (fun (access : Mem.access) ->
          let lo, hi = Mem.address_bounds access.Mem.ac_pattern in
          let agu = Db_mem.Agu_sim.create access.Mem.ac_pattern in
          let addrs, _cycles = Db_mem.Agu_sim.run_to_completion agu in
          List.iter
            (fun a ->
              if a < lo || a > hi then
                Alcotest.fail
                  (Printf.sprintf
                     "%s: %s address %d outside static bounds [%d, %d]" name
                     access.Mem.ac_name a lo hi))
            addrs)
        step.Mem.st_accesses)
    steps

(* --- memory-safety tamper tests ------------------------------------------ *)

let mem_fixture () =
  let design = design_of "mlp" in
  (Checker.plant_of_design design, Checker.steps_of_design design)

let test_mem_clean_baseline () =
  let plant, steps = mem_fixture () in
  Alcotest.(check (list string)) "mlp schedule proves safe" []
    (codes (Mem.check plant steps))

let test_tamper_region_escape () =
  let plant, steps = mem_fixture () in
  let rogue =
    {
      Mem.st_event = "tamper";
      st_layer = "tamper";
      st_accesses =
        [
          {
            Mem.ac_name = "rogue_rd";
            ac_dir = Mem.Read;
            ac_pattern =
              Db_mem.Access_pattern.contiguous ~name:"rogue_rd"
                ~start:plant.Mem.pl_total_words ~length:16;
          };
        ];
      st_feature_words = 0;
      st_weight_words = 0;
    }
  in
  Alcotest.(check bool) "DB-M101" true
    (has_code Mem.code_region_escape (Mem.check plant (rogue :: steps)))

let test_tamper_feature_overflow () =
  let plant, steps = mem_fixture () in
  let cap = plant.Mem.pl_feature_buffer.Db_mem.Buffer_model.capacity_words in
  let steps =
    match steps with
    | s :: rest -> { s with Mem.st_feature_words = cap + 1 } :: rest
    | [] -> Alcotest.fail "no steps"
  in
  Alcotest.(check bool) "DB-M102" true
    (has_code Mem.code_feature_overflow (Mem.check plant steps))

let test_tamper_weight_overflow () =
  let plant, steps = mem_fixture () in
  let cap = plant.Mem.pl_weight_buffer.Db_mem.Buffer_model.capacity_words in
  let steps =
    match steps with
    | s :: rest -> { s with Mem.st_weight_words = cap + 1 } :: rest
    | [] -> Alcotest.fail "no steps"
  in
  Alcotest.(check bool) "DB-M103" true
    (has_code Mem.code_weight_overflow (Mem.check plant steps))

let test_tamper_rw_overlap () =
  let plant, steps = mem_fixture () in
  (* Overlapping read and write inside the first layout region, so only
     the hazard (not a region escape) fires. *)
  let region = List.hd plant.Mem.pl_regions in
  let len = Stdlib.min 8 region.Mem.rg_words in
  let pat name =
    Db_mem.Access_pattern.contiguous ~name ~start:region.Mem.rg_base ~length:len
  in
  let hazard =
    {
      Mem.st_event = "tamper";
      st_layer = "tamper";
      st_accesses =
        [
          { Mem.ac_name = "in_place_rd"; ac_dir = Mem.Read; ac_pattern = pat "in_place_rd" };
          { Mem.ac_name = "in_place_wr"; ac_dir = Mem.Write; ac_pattern = pat "in_place_wr" };
        ];
      st_feature_words = 0;
      st_weight_words = 0;
    }
  in
  let diags = Mem.check plant (hazard :: steps) in
  Alcotest.(check bool) "DB-M104" true (has_code Mem.code_rw_overlap diags);
  Alcotest.(check bool) "no region escape" false
    (has_code Mem.code_region_escape diags)

let test_tamper_addr_wrap () =
  let plant, steps = mem_fixture () in
  let narrow = { plant with Mem.pl_addr_bits = 2 } in
  Alcotest.(check bool) "DB-M105" true
    (has_code Mem.code_addr_wrap (Mem.check narrow steps))

(* --- whole-design checking ----------------------------------------------- *)

let test_zoo_check_clean name () =
  let report = Checker.check (design_of name) in
  Alcotest.(check (list string))
    (name ^ ": no errors") [] (codes (Checker.errors report));
  Alcotest.(check (list string))
    (name ^ ": strict-clean") []
    (codes (D.errors (D.strictify report.Checker.ck_diags)))

let test_config_search_rejects_infeasible_format () =
  let bad = Fixed.format ~total_bits:8 ~frac_bits:7 in
  let cons = { Db_core.Constraints.db_medium with Db_core.Constraints.fmt = bad } in
  match Db_core.Config_search.search cons (lower "mlp") with
  | (_ : Db_core.Config_search.result) ->
      Alcotest.fail "infeasible format accepted"
  | exception Db_util.Error.Deepburning_error msg ->
      Alcotest.(check bool) "config-search component" true
        (String.length msg >= 13 && String.sub msg 0 13 = "config-search");
      Alcotest.(check bool) "names the reason" true
        (contains_substring msg "infeasible")

let test_accumulator_width_in_rtl () =
  let design = design_of "mlp" in
  let fmt = design.Db_core.Design.constraints.Db_core.Constraints.fmt in
  let acc_bits =
    Stdlib.max
      (fmt.Fixed.total_bits + 8)
      (Range.min_acc_bits ~fmt design.Db_core.Design.ir)
  in
  let v = Db_core.Design.verilog design in
  let contains needle = contains_substring v needle in
  Alcotest.(check bool)
    (Printf.sprintf "accumulator module named for %d bits" acc_bits)
    true
    (contains (Printf.sprintf "accumulator_d16_w%d" acc_bits));
  Alcotest.(check bool) "register sized by the proof" true
    (contains (Printf.sprintf "reg signed [%d:0] acc;" (acc_bits - 1)))

let test_accumulator_block_validation () =
  match
    Db_blocks.Block.make ~name:"acc" ~fmt:Fixed.q16_8
      (Db_blocks.Block.Accumulator { depth = 8; acc_bits = 8 })
  with
  | (_ : Db_blocks.Block.t) -> Alcotest.fail "narrow accumulator accepted"
  | exception Db_util.Error.Deepburning_error _ -> ()

(* --- error classification of the converted components -------------------- *)

let test_component_error_classes () =
  List.iter
    (fun msg ->
      Alcotest.(check bool)
        (msg ^ " classifies as validation")
        true
        (Db_util.Error.classify_message msg = Db_util.Error.Validation))
    [
      "datapath: make: lanes must be positive";
      "timing: at_mhz: non-positive frequency";
      "testbench: generate: word_bits out of range";
      "axbench: dct2: wrong length";
      "interval: make: empty interval";
      "range-check: internal";
      "mem-check: internal";
      "check: generated design failed static checking";
    ]

(* --- suite ---------------------------------------------------------------- *)

let quick_zoo = [ "mlp"; "cmac"; "hopfield"; "ann0"; "mnist" ]

let slow_zoo =
  List.filter (fun (n, _) -> not (List.mem n quick_zoo)) zoo_models
  |> List.map fst

let suite =
  [
    ( "check.interval",
      [
        Alcotest.test_case "construction" `Quick test_interval_construction;
        Alcotest.test_case "lattice" `Quick test_interval_lattice;
        Alcotest.test_case "arithmetic" `Quick test_interval_arith;
        QCheck_alcotest.to_alcotest prop_interval_sound;
      ] );
    ( "check.range",
      [
        Alcotest.test_case "format feasibility" `Quick test_format_feasibility;
        Alcotest.test_case "tamper: input escape" `Quick
          test_tamper_input_escape;
        Alcotest.test_case "tamper: input headroom" `Quick
          test_tamper_input_headroom;
        Alcotest.test_case "tamper: param escape" `Quick
          test_tamper_param_escape;
        Alcotest.test_case "tamper: accumulator width" `Quick
          test_tamper_acc_width;
        Alcotest.test_case "saturation stays info" `Quick test_saturation_info;
        Alcotest.test_case "calibration frac clamp" `Quick
          test_frac_clamp_diag;
        Alcotest.test_case "accumulator widths" `Quick test_acc_bits_reported;
      ] );
    ( "check.enclosure",
      List.map
        (fun name ->
          Alcotest.test_case ("ranges: " ^ name) `Quick
            (test_interp_enclosure name))
        interp_models
      @ List.map
          (fun name ->
            Alcotest.test_case ("agu: " ^ name) `Quick (test_agu_enclosure name))
          quick_zoo
      @ List.map
          (fun name ->
            Alcotest.test_case ("agu: " ^ name) `Slow (test_agu_enclosure name))
          slow_zoo );
    ( "check.mem",
      [
        Alcotest.test_case "clean baseline" `Quick test_mem_clean_baseline;
        Alcotest.test_case "tamper: region escape" `Quick
          test_tamper_region_escape;
        Alcotest.test_case "tamper: feature overflow" `Quick
          test_tamper_feature_overflow;
        Alcotest.test_case "tamper: weight overflow" `Quick
          test_tamper_weight_overflow;
        Alcotest.test_case "tamper: rw overlap" `Quick test_tamper_rw_overlap;
        Alcotest.test_case "tamper: address wrap" `Quick test_tamper_addr_wrap;
      ] );
    ( "check.design",
      List.map
        (fun name ->
          Alcotest.test_case ("zoo clean: " ^ name) `Quick
            (test_zoo_check_clean name))
        quick_zoo
      @ List.map
          (fun name ->
            Alcotest.test_case ("zoo clean: " ^ name) `Slow
              (test_zoo_check_clean name))
          slow_zoo
      @ [
          Alcotest.test_case "config search rejects format" `Quick
            test_config_search_rejects_infeasible_format;
          Alcotest.test_case "accumulator width in RTL" `Quick
            test_accumulator_width_in_rtl;
          Alcotest.test_case "accumulator block validation" `Quick
            test_accumulator_block_validation;
          Alcotest.test_case "component error classes" `Quick
            test_component_error_classes;
        ] );
  ]
