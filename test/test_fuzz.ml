(* End-to-end fuzzing: random (but valid) sequential topologies are pushed
   through the whole flow — generate, fold, compile, emit RTL, simulate,
   and play back the control path — and the invariants that must hold for
   *every* network are checked.  This is the failure-injection net that
   catches generator regressions no hand-written test anticipates. *)

module Shape = Db_tensor.Shape
module Tensor = Db_tensor.Tensor
module Layer = Db_nn.Layer
module Network = Db_nn.Network

(* A random valid sequential CNN/MLP: layer choices are constrained by the
   running shape so every generated network shape-infers. *)
let random_network rng =
  let module R = Db_util.Rng in
  let channels = 1 + R.int rng 3 in
  let size = 6 + (2 * R.int rng 4) in
  let nodes = ref [] in
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let push name layer bottom top =
    nodes := { Network.node_name = name; layer; bottoms = [ bottom ]; tops = [ top ] } :: !nodes
  in
  let input_blob = "data" in
  nodes :=
    [
      {
        Network.node_name = "in";
        layer = Layer.Input { shape = Shape.chw ~channels ~height:size ~width:size };
        bottoms = [];
        tops = [ input_blob ];
      };
    ];
  let blob = ref input_blob and c = ref channels and hw = ref size in
  (* One (alpha, beta) per network, k = 1: the accelerator has one LRN
     unit with one power table. *)
  let lrn =
    lazy (R.uniform rng ~min:1e-4 ~max:3.0, R.uniform rng ~min:0.25 ~max:2.0)
  in
  let stages = 1 + R.int rng 4 in
  let flat = ref false in
  for _ = 1 to stages do
    if not !flat then begin
      match R.int rng 6 with
      | 0 ->
          let nout = 1 + R.int rng 8 in
          let k = if R.bool rng then 3 else 1 in
          let name = fresh "conv" in
          push name
            (Layer.Conv
               { num_output = nout; kernel_size = k; stride = 1; pad = k / 2;
                 group = 1; bias = R.bool rng })
            !blob name;
          blob := name;
          c := nout
      | 1 when !hw >= 4 && !hw mod 2 = 0 ->
          let name = fresh "pool" in
          let method_ = if R.bool rng then Layer.Max_pool else Layer.Avg_pool in
          push name (Layer.Pool { method_; kernel_size = 2; stride = 2 }) !blob name;
          blob := name;
          hw := !hw / 2
      | 2 ->
          let name = fresh "act" in
          let act = R.pick rng [| Layer.Relu; Layer.Sigmoid; Layer.Tanh |] in
          push name (Layer.Act act) !blob name;
          blob := name
      | 3 ->
          let name = fresh "lrn" in
          let alpha, beta = Lazy.force lrn in
          push name (Layer.Lrn { local_size = 3; alpha; beta; k = 1.0 }) !blob name;
          blob := name
      | 4 ->
          let name = fresh "lcn" in
          push name (Layer.Lcn { window = 3; epsilon = 0.05 }) !blob name;
          blob := name
      | _ ->
          let name = fresh "fc" in
          let nout = 2 + R.int rng 12 in
          push name (Layer.Fc { num_output = nout; bias = R.bool rng }) !blob name;
          blob := name;
          flat := true;
          c := nout
    end
    else begin
      match R.int rng 2 with
      | 0 ->
          let name = fresh "act" in
          push name (Layer.Act (R.pick rng [| Layer.Relu; Layer.Sigmoid; Layer.Tanh |])) !blob name;
          blob := name
      | _ ->
          let name = fresh "fc" in
          let nout = 2 + R.int rng 12 in
          push name (Layer.Fc { num_output = nout; bias = R.bool rng }) !blob name;
          blob := name;
          c := nout
    end
  done;
  (* Always end with an FC head so the output is a small vector. *)
  let head = fresh "head" in
  push head (Layer.Fc { num_output = 4; bias = true }) !blob head;
  ( Network.create ~name:(Printf.sprintf "fuzz-%d" (R.int rng 100000))
      (List.rev !nodes),
    Shape.chw ~channels ~height:size ~width:size )

(* The four views of a design's Approx-LUT set, as sorted name lists: the
   tables the simulator evaluates, the [approx_lut_*] ROMs the RTL
   declares, the ROMs its units instantiate, and the fault sites'
   [lut/*] labels. *)
let lut_views (design : Db_core.Design.t) =
  let module Rtl = Db_hdl.Rtl in
  let after prefix s =
    if String.starts_with ~prefix s then
      Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
    else None
  in
  let modules = design.Db_core.Design.rtl.Rtl.modules in
  let declared =
    List.filter_map (fun (m : Rtl.module_decl) -> after "approx_lut_" m.Rtl.mod_name) modules
  in
  let instantiated =
    List.concat_map
      (fun (m : Rtl.module_decl) ->
        match m.Rtl.body with
        | Rtl.Behavioral lines ->
            List.filter_map
              (fun line ->
                match String.split_on_char ' ' (String.trim line) with
                | first :: _ -> after "approx_lut_" first
                | [] -> None)
              lines
        | Rtl.Structural _ | Rtl.Machine _ -> [])
      modules
  in
  let space =
    Db_fault.Site.enumerate ~design ~params:(Db_nn.Params.create ())
      ~input_blob:"data" ~input_words:1
      ~stored_bits:(fun _ ~word_bits -> word_bits)
      (* AGU registers keep the space non-empty without tables *)
      ~targets:[ Db_fault.Site.Lut_tables; Db_fault.Site.Agu_config ] ()
  in
  let sites =
    List.filter_map
      (fun (g : Db_fault.Site.group) -> after "lut/" g.Db_fault.Site.g_label)
      (Array.to_list space.Db_fault.Site.groups)
  in
  List.map
    (List.sort_uniq String.compare)
    [ Db_core.Lut_set.names design.Db_core.Design.program.Db_core.Compiler.luts;
      declared; instantiated; sites ]

let luts_agree design =
  match lut_views design with
  | sim :: rest -> List.for_all (( = ) sim) rest
  | [] -> true

let flow_invariants seed =
  let rng = Db_util.Rng.create seed in
  let net, input_shape = random_network rng in
  let dsp_cap = 1 + Db_util.Rng.int rng 8 in
  let cons = Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium dsp_cap in
  let design = Db_core.Generator.generate cons net in
  (* 1. Budget respected. *)
  let fits =
    Db_fpga.Resource.fits
      (Db_core.Design.resource_usage design)
      ~within:cons.Db_core.Constraints.budget
  in
  (* 2. Folding conserves the model's MACs. *)
  let stats = Db_nn.Model_stats.compute net in
  let macs_ok =
    Db_sched.Folding.total_macs design.Db_core.Design.schedule.Db_sched.Schedule.runs
    = stats.Db_nn.Model_stats.total_macs
  in
  (* 3. The RTL validates and emits. *)
  let rtl_ok = String.length (Db_core.Design.verilog design) > 0 in
  (* 4. The simulator produces cycles. *)
  let report = Db_sim.Simulator.timing design in
  let sim_ok = report.Db_sim.Simulator.total_cycles > 0 in
  (* 5. Control playback is memory-safe. *)
  let playback = Db_sim.Control_playback.playback design in
  let safe = playback.Db_sim.Control_playback.violations = [] in
  (* 6. The accelerator's arithmetic matches the quantized interpreter
     (same saturation, same rounding; only the Approx-LUT interpolation
     differs), and tracks the float reference whenever the float pass
     stays inside the representable range (saturation on adversarial
     random nets is expected fixed-point behaviour, not a bug). *)
  let params = Db_nn.Params.init_xavier rng net in
  let input = Tensor.random_uniform rng input_shape ~min:0.0 ~max:1.0 in
  let accel =
    Db_sim.Simulator.functional_output design params ~inputs:[ ("data", input) ]
  in
  (* 7. The specialized engine is the generic one, bit for bit. *)
  let generic =
    Generic_engine.functional_output design params
      ~inputs:[ ("data", input) ]
  in
  let fmt = design.Db_core.Design.datapath.Db_sched.Datapath.fmt in
  let quantized = Db_nn.Quantized.output ~fmt net params ~inputs:[ ("data", input) ] in
  let reference = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("data", input) ] in
  let close_to_quantized = Tensor.l2_distance accel quantized < 0.3 in
  let in_range =
    Tensor.fold (fun acc v -> acc && Float.abs v < 0.5 *. Db_fixed.Fixed.max_float fmt)
      true reference
  in
  let close = close_to_quantized && ((not in_range) || Tensor.l2_distance accel reference < 1.5) in
  if not fits then QCheck.Test.fail_report "budget violated";
  if not macs_ok then QCheck.Test.fail_report "folding lost MACs";
  if not rtl_ok then QCheck.Test.fail_report "no RTL";
  if not sim_ok then QCheck.Test.fail_report "no cycles";
  if not safe then
    QCheck.Test.fail_report
      (String.concat "; " playback.Db_sim.Control_playback.violations);
  if not close then
    QCheck.Test.fail_report
      (Printf.sprintf "accelerator diverges from float reference (l2 %g)"
         (Tensor.l2_distance accel reference));
  if not (luts_agree design) then
    QCheck.Test.fail_report
      (String.concat " / "
         (List.map (String.concat ",") (lut_views design)));
  if not (Tensor.equal_bits accel generic) then
    QCheck.Test.fail_report
      (Printf.sprintf "specialized engine differs from generic (l2 %g)"
         (Tensor.l2_distance accel generic));
  true

let prop_random_network_flow =
  QCheck.Test.make ~name:"random topology survives the whole flow" ~count:40
    QCheck.small_int (fun seed -> flow_invariants (abs seed + 1))

(* Pricing a random design's schedule run by run, one
   [Compiler.compile_runs] segment at a time, equals pricing every fold
   [Compiler.compile] emits for it on its own. *)
let prop_run_pricing =
  QCheck.Test.make ~name:"run segments price like per-fold programs" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Db_util.Rng.create (abs seed + 1) in
      let net, _ = random_network rng in
      let cons =
        Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium
          (1 + Db_util.Rng.int rng 8)
      in
      let d = Db_core.Generator.generate cons net in
      let dp = d.Db_core.Design.datapath in
      let figures segments =
        List.fold_left
          (fun acc ((p : Db_core.Compiler.fold_program), n) ->
            let c = Db_sim.Perf_model.fold_cost dp p in
            List.map2 ( + ) acc
              (List.map (( * ) n)
                 [
                   c.Db_sim.Perf_model.fold_cycles;
                   c.Db_sim.Perf_model.compute_cycles;
                   c.Db_sim.Perf_model.memory_cycles;
                   c.Db_sim.Perf_model.dram_bytes;
                   1;
                 ]))
          [ 0; 0; 0; 0; 0 ] segments
      in
      let segments =
        Db_core.Compiler.compile_runs d.Db_core.Design.ir ~datapath:dp
          ~layout:d.Db_core.Design.layout
          d.Db_core.Design.schedule.Db_sched.Schedule.runs
      in
      let per_fold =
        List.map
          (fun p -> (p, 1))
          d.Db_core.Design.program.Db_core.Compiler.programs
      in
      figures segments = figures per_fold
      && Db_sim.Perf_model.segments_cost dp segments
         = Db_sim.Perf_model.segments_cost dp per_fold)

let test_specific_seeds () =
  (* A few fixed seeds run on every CI pass regardless of qcheck's draws. *)
  List.iter (fun seed -> ignore (flow_invariants seed)) [ 1; 7; 13; 99; 1234 ]

(* Every zoo design's four views of its Approx-LUT set agree. *)
let test_zoo_luts_agree () =
  let cons = Db_core.Constraints.db_medium in
  List.iter
    (fun (name, model) ->
      let design = Db_core.Generator.generate cons (Db_nn.Caffe.import_string model) in
      Alcotest.(check (list (list string)))
        (name ^ ": simulator = declared ROMs = instantiated ROMs = fault sites")
        (let sim = List.hd (lut_views design) in [ sim; sim; sim; sim ])
        (lut_views design))
    Db_workloads.Model_zoo.named

(* --- LRN exponent -------------------------------------------------------- *)

(* A 4x4x4 input through one LRN (local_size 3, k = 1) and an FC head:
   the worst output error over eight random inputs.  One input's error is
   a few Q-format LSBs whose rounding cancels or adds by chance, so it
   moves by 2x between neighbouring betas; the worst of eight does not. *)
let lrn_probe_error ~alpha ~beta =
  let shape = Shape.chw ~channels:4 ~height:4 ~width:4 in
  let net =
    Network.create ~name:"lrn-probe"
      [
        { Network.node_name = "in"; layer = Layer.Input { shape }; bottoms = [];
          tops = [ "data" ] };
        { Network.node_name = "lrn";
          layer = Layer.Lrn { local_size = 3; alpha; beta; k = 1.0 };
          bottoms = [ "data" ]; tops = [ "lrn" ] };
        { Network.node_name = "fc";
          layer = Layer.Fc { num_output = 4; bias = true };
          bottoms = [ "lrn" ]; tops = [ "fc" ] };
      ]
  in
  let design = Db_core.Generator.generate Db_core.Constraints.db_medium net in
  let rng = Db_util.Rng.create 7 in
  let params = Db_nn.Params.init_xavier rng net in
  let graph = Db_ir.Lower.lower net in
  let worst = ref 0.0 in
  for _ = 1 to 8 do
    let input = Tensor.random_uniform rng shape ~min:0.0 ~max:1.0 in
    let inputs = [ ("data", input) ] in
    let accel = Db_sim.Simulator.functional_output design params ~inputs in
    let reference = Db_ir.Interp.output graph params ~inputs in
    for i = 0 to Tensor.numel accel - 1 do
      worst := Float.max !worst (Float.abs (Tensor.get accel i -. Tensor.get reference i))
    done
  done;
  !worst

(* The bound is derived from the same probe at beta = 0.75, where the
   table's error is the 256-entry interpolation plus Q-format rounding.
   Linear interpolation errs by h^2/8 * f'', and f'' of (k + u)^-beta
   scales with beta (beta + 1), so the beta = 0.75 error is scaled by that
   factor (never below 1) with a factor 2 of headroom.  A power table
   sampled at the wrong exponent errs by 0.23 at beta = 0.5 and 0.64 at
   beta = 2, alpha = 3, against bounds of 0.016 and 0.072 there. *)
let prop_lrn_beta_bound =
  QCheck.Test.make ~name:"LRN at any beta stays within quantization of Interp"
    ~count:30
    QCheck.(pair (float_range 0.25 2.0) (float_range 1e-4 3.0))
    (fun (beta, alpha) ->
      let curvature b = b *. (b +. 1.0) in
      let bound =
        2.0
        *. lrn_probe_error ~alpha ~beta:0.75
        *. Float.max 1.0 (curvature beta /. curvature 0.75)
      in
      let err = lrn_probe_error ~alpha ~beta in
      err <= bound
      || QCheck.Test.fail_reportf "beta %g alpha %g: error %g > bound %g" beta
           alpha err bound)

(* --- hostile inputs ------------------------------------------------------ *)

(* The frontends' robustness contract: for ANY byte string — truncated,
   bit-flipped, garbage, adversarially nested — the prototxt and
   constraint parsers either succeed or raise a *classified* error
   (Parse/Validation/Io), promptly.  Never an unclassified exception,
   never a crash, never a hang. *)

let classified_or_ok name f =
  match f () with
  | _ -> ()
  | exception e -> (
      match Db_util.Error.classify_exn e with
      | Some (Db_util.Error.Parse | Db_util.Error.Validation | Db_util.Error.Io)
        ->
          ()
      | Some cls ->
          Alcotest.failf "%s: wrong failure class %s" name
            (Db_util.Error.class_name cls)
      | None ->
          Alcotest.failf "%s: unclassified exception %s" name
            (Printexc.to_string e))

let hostile_corpus () =
  let base = Db_workloads.Model_zoo.mlp_prototxt in
  let n = String.length base in
  let truncations =
    List.map
      (fun k -> ("truncate@" ^ string_of_int k, String.sub base 0 k))
      [ 0; 1; n / 4; n / 2; n - 1 ]
  in
  let flips =
    List.map
      (fun (i, bit) ->
        let b = Bytes.of_string base in
        let i = i mod n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
        (Printf.sprintf "bitflip@%d^%02x" i bit, Bytes.to_string b))
      [ (10, 0x01); (50, 0x80); (n / 2, 0x20); (n - 2, 0x04) ]
  in
  let garbage =
    [
      ("binary", "\x00\x01\x02\xff\xfe prototxt?");
      ("unterminated string", "name: \"never closed");
      ("lone colon", ":::::");
      ("huge number", "layer { num_output: 999999999999999999999999 }");
      ("unbalanced close", "layer { } } } }");
      ("nul in ident", "la\x00yer { }");
    ]
  in
  (* Nesting far past the parser's depth bound: must be a classified
     error, not a stack overflow. *)
  let deep =
    [
      ( "deep nesting",
        String.concat "" (List.init 20_000 (fun _ -> "a { ")) );
    ]
  in
  truncations @ flips @ garbage @ deep

let test_hostile_prototxt () =
  List.iter
    (fun (name, src) ->
      classified_or_ok ("model " ^ name) (fun () ->
          Db_nn.Caffe.import_string src))
    (hostile_corpus ())

(* Out-of-range layer parameters parse (the grammar has no ranges) but
   must fail shape inference with a classified validation error, never an
   arithmetic exception or a nonsense shape. *)
let layer_param_corpus =
  let one_layer type_ param =
    Printf.sprintf
      {|name: "bad"
layers { name: "data" type: INPUT top: "data" input_param { dim: 2 dim: 8 dim: 8 } }
layers { name: "l" type: %s bottom: "data" top: "l" %s }|}
      type_ param
  in
  [
    ( "conv group 0",
      one_layer "CONVOLUTION"
        "convolution_param { num_output: 4 kernel_size: 3 group: 0 }" );
    ( "pool kernel_size 0",
      one_layer "POOLING" "pooling_param { pool: MAX kernel_size: 0 stride: 1 }"
    );
    ( "conv pad -1",
      one_layer "CONVOLUTION"
        "convolution_param { num_output: 4 kernel_size: 3 pad: -1 }" );
  ]

let test_layer_param_corpus () =
  List.iter
    (fun (name, src) ->
      let net = Db_nn.Caffe.import_string src in
      match Db_ir.Lower.lower net with
      | _ -> Alcotest.failf "%s: accepted" name
      | exception (Db_util.Error.Deepburning_error msg as e) ->
          Alcotest.(check bool)
            (name ^ " is a shape-infer error: " ^ msg)
            true
            (String.starts_with ~prefix:"shape-infer: " msg
            && Db_util.Error.classify_exn e = Some Db_util.Error.Validation))
    layer_param_corpus

let test_hostile_constraints () =
  let base =
    {|constraint { device: "zynq-7045" dsps: 16 luts: 60000 ffs: 40000 bram_kb: 1024 }|}
  in
  let n = String.length base in
  let corpus =
    List.map (fun k -> ("truncate@" ^ string_of_int k, String.sub base 0 k))
      [ 0; 5; n / 2; n - 1 ]
    @ [
        ("wrong block", "layer { name: \"x\" }");
        ("negative budget", "constraint { dsps: -4 }");
        ("string budget", "constraint { dsps: \"many\" }");
        ("garbage", "\xde\xad\xbe\xef");
      ]
  in
  List.iter
    (fun (name, src) ->
      classified_or_ok ("constraint " ^ name) (fun () ->
          Db_core.Constraints.parse src))
    corpus

(* Random mutations on top of the fixed corpus: qcheck picks an offset
   and a mutation kind; the parser must stay inside its contract. *)
let prop_mutated_prototxt =
  QCheck.Test.make ~name:"mutated prototxt never escapes classification"
    ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (off, kind) ->
      let base = Db_workloads.Model_zoo.cmac_prototxt in
      let n = String.length base in
      let src =
        match kind mod 4 with
        | 0 -> String.sub base 0 (off mod n)
        | 1 ->
            let b = Bytes.of_string base in
            Bytes.set b (off mod n) (Char.chr (off * 31 mod 256));
            Bytes.to_string b
        | 2 ->
            String.sub base 0 (off mod n)
            ^ "{" ^ String.sub base (off mod n) (n - (off mod n))
        | _ -> String.init (off mod 64) (fun i -> Char.chr (i * 7 mod 256))
      in
      match Db_nn.Caffe.import_string src with
      | _ -> true
      | exception e -> (
          match Db_util.Error.classify_exn e with
          | Some
              ( Db_util.Error.Parse | Db_util.Error.Validation
              | Db_util.Error.Io ) ->
              true
          | _ ->
              QCheck.Test.fail_report
                ("escaped classification: " ^ Printexc.to_string e)))

let suite =
  [
    ( "fuzz.flow",
      [
        QCheck_alcotest.to_alcotest prop_random_network_flow;
        Alcotest.test_case "pinned seeds" `Quick test_specific_seeds;
        Alcotest.test_case "zoo LUT names agree" `Quick test_zoo_luts_agree;
        QCheck_alcotest.to_alcotest prop_lrn_beta_bound;
        QCheck_alcotest.to_alcotest prop_run_pricing;
      ] );
    ( "fuzz.hostile",
      [
        Alcotest.test_case "hostile prototxt corpus" `Quick
          test_hostile_prototxt;
        Alcotest.test_case "layer parameter corpus" `Quick
          test_layer_param_corpus;
        Alcotest.test_case "hostile constraint corpus" `Quick
          test_hostile_constraints;
        QCheck_alcotest.to_alcotest prop_mutated_prototxt;
      ] );
  ]

(* debug helper: dump distances for a seed when run directly *)
let () =
  match Sys.getenv_opt "FUZZ_DEBUG_SEED" with
  | None -> ()
  | Some s ->
      let seed = int_of_string s in
      let rng = Db_util.Rng.create seed in
      let net, input_shape = random_network rng in
      Format.printf "%a@." Db_nn.Network.pp net;
      let cons = Db_core.Constraints.with_dsp_cap Db_core.Constraints.db_medium (1 + Db_util.Rng.int rng 8) in
      let design = Db_core.Generator.generate cons net in
      let params = Db_nn.Params.init_xavier rng net in
      let input = Tensor.random_uniform rng input_shape ~min:0.0 ~max:1.0 in
      let accel = Db_sim.Simulator.functional_output design params ~inputs:[ ("data", input) ] in
      let fmt = design.Db_core.Design.datapath.Db_sched.Datapath.fmt in
      let q = Db_nn.Quantized.output ~fmt net params ~inputs:[ ("data", input) ] in
      let r = Db_ir.Interp.output (Db_ir.Lower.lower net) params ~inputs:[ ("data", input) ] in
      Format.printf "accel=%a@.quant=%a@.float=%a@." Tensor.pp accel Tensor.pp q Tensor.pp r;
      Printf.printf "accel-quant %g accel-float %g\n" (Tensor.l2_distance accel q) (Tensor.l2_distance accel r)
