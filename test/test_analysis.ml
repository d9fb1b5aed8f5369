(* Tests for db_analysis: seeded-defect fixtures asserting exact diagnostic
   codes, and a clean run over every model-zoo generated design. *)

module Rtl = Db_hdl.Rtl
module Fsm = Db_hdl.Fsm
module A = Db_analysis.Analyze
module D = Db_analysis.Diagnostic

let codes diags = List.map (fun (d : D.t) -> d.D.code) diags

let has_code code diags = List.mem code (codes diags)

let check_code name code diags =
  Alcotest.(check bool) (name ^ " flags " ^ code) true (has_code code diags)

let check_no_code name code diags =
  Alcotest.(check bool) (name ^ " avoids " ^ code) false (has_code code diags)

(* A single structural module wrapped as a full design, with an 8-bit input
   [a4]-style net vocabulary declared per fixture. *)
let structural ?(ports = []) ?(nets = []) ?(instances = []) assigns =
  {
    Rtl.top = "fixture";
    modules =
      [
        {
          Rtl.mod_name = "fixture";
          ports =
            { Rtl.port_name = "clk"; direction = Rtl.Input; width = 1 }
            :: ports;
          localparams = [];
          body = Rtl.Structural { nets; instances; assigns };
        };
      ];
  }

let out name width = { Rtl.port_name = name; direction = Rtl.Output; width }
let inp name width = { Rtl.port_name = name; direction = Rtl.Input; width }
let net name width = { Rtl.net_name = name; net_width = width }

(* --- drivers ------------------------------------------------------------- *)

let test_multi_driver () =
  let d =
    structural
      ~ports:[ inp "a" 8; inp "b" 8; out "y" 8 ]
      [ ("y", "a"); ("y", "b") ]
  in
  check_code "double assign" A.code_multi_driver (A.design d)

let test_multi_driver_overlapping_slices () =
  let d =
    structural
      ~ports:[ inp "a" 4; out "y" 8 ]
      [ ("y[3:0]", "a"); ("y[2:1]", "a[1:0]") ]
  in
  check_code "overlapping slices" A.code_multi_driver (A.design d)

let test_disjoint_slices_ok () =
  let d =
    structural
      ~ports:[ inp "a" 4; out "y" 8 ]
      [ ("y[7:4]", "a"); ("y[3:0]", "a") ]
  in
  let diags = A.design d in
  check_no_code "disjoint slices" A.code_multi_driver diags;
  Alcotest.(check (list string)) "fully clean" [] (codes (D.errors diags))

(* --- widths -------------------------------------------------------------- *)

let test_assign_width_mismatch () =
  let d = structural ~ports:[ inp "a" 4; out "y" 8 ] [ ("y", "a") ] in
  check_code "4 into 8" A.code_width_mismatch (A.design d)

let test_assign_width_ok_with_expr () =
  let d =
    structural
      ~ports:[ inp "a" 4; out "y" 8 ]
      [ ("y", "{{4{1'b0}}, a}") ]
  in
  check_no_code "zero-extended" A.code_width_mismatch (A.design d)

let leaf_callee =
  {
    Rtl.mod_name = "leaf";
    ports = [ inp "clk" 1; inp "d" 8; out "q" 8 ];
    localparams = [];
    body = Rtl.Behavioral [ "assign q = d;" ];
  }

let with_callee (design : Rtl.design) =
  { design with Rtl.modules = leaf_callee :: design.Rtl.modules }

let test_port_width_mismatch () =
  let d =
    with_callee
      (structural
         ~nets:[ net "narrow" 4; net "qq" 8 ]
         ~ports:[ out "y" 8 ]
         ~instances:
           [
             {
               Rtl.inst_name = "u0";
               module_ref = "leaf";
               parameters = [];
               connections =
                 [ ("clk", "clk"); ("d", "narrow"); ("q", "qq") ];
             };
           ]
         [ ("y", "qq"); ("narrow", "4'd0") ])
  in
  check_code "narrow actual on 8-bit port" A.code_port_width_mismatch
    (A.design d)

let test_unknown_param_override () =
  let d =
    with_callee
      (structural
         ~nets:[ net "d8" 8; net "q8" 8 ]
         ~ports:[ out "y" 8 ]
         ~instances:
           [
             {
               Rtl.inst_name = "u0";
               module_ref = "leaf";
               parameters = [ ("BOGUS", 3) ];
               connections = [ ("clk", "clk"); ("d", "d8"); ("q", "q8") ];
             };
           ]
         [ ("y", "q8"); ("d8", "8'd1") ])
  in
  check_code "undeclared parameter" A.code_param_unknown (A.design d)

(* --- combinational loops -------------------------------------------------- *)

let test_comb_loop () =
  let d =
    structural
      ~nets:[ net "a" 1; net "b" 1 ]
      ~ports:[ out "y" 1 ]
      [ ("a", "b"); ("b", "a"); ("y", "a") ]
  in
  check_code "a=b, b=a" A.code_comb_loop (A.design d)

(* --- net liveness --------------------------------------------------------- *)

let test_undriven_and_unused () =
  let d =
    structural
      ~nets:[ net "floating_src" 8; net "dead_end" 8 ]
      ~ports:[ out "y" 8 ]
      [ ("y", "floating_src"); ("dead_end", "8'd5") ]
  in
  let diags = A.design d in
  check_code "read but undriven" A.code_undriven_net diags;
  check_code "driven but unread" A.code_unused_net diags

let test_redeclared_net () =
  let d =
    structural
      ~nets:[ net "x" 8; net "x" 8 ]
      ~ports:[ out "y" 8 ]
      [ ("x", "8'd1"); ("y", "x") ]
  in
  check_code "net declared twice" A.code_redeclared (A.design d)

let test_implicit_net () =
  let d = structural ~ports:[ out "y" 8 ] [ ("y", "ghost") ] in
  check_code "undeclared identifier" A.code_implicit_net (A.design d)

(* --- latch inference ------------------------------------------------------ *)

let test_latch_inference () =
  let d =
    {
      Rtl.top = "latchy";
      modules =
        [
          {
            Rtl.mod_name = "latchy";
            ports = [ inp "sel" 2; inp "a" 1; out "q" 1 ];
            localparams = [];
            body =
              Rtl.Behavioral
                [
                  "reg q;";
                  "always @* begin";
                  "  case (sel)";
                  "    2'd0: q = a;";
                  "    2'd1: q = ~a;";
                  "  endcase";
                  "end";
                ];
          };
        ];
    }
  in
  check_code "case without default" A.code_latch (A.design d)

let test_no_latch_with_default () =
  let d =
    {
      Rtl.top = "clean";
      modules =
        [
          {
            Rtl.mod_name = "clean";
            ports = [ inp "sel" 2; inp "a" 1; out "q" 1 ];
            localparams = [];
            body =
              Rtl.Behavioral
                [
                  "reg q;";
                  "always @* begin";
                  "  case (sel)";
                  "    2'd0: q = a;";
                  "    default: q = ~a;";
                  "  endcase";
                  "end";
                ];
          };
        ];
    }
  in
  check_no_code "default arm present" A.code_latch (A.design d)

(* --- FSM checks ----------------------------------------------------------- *)

let base_fsm =
  {
    Fsm.fsm_name = "f";
    states = [ "idle"; "run" ];
    initial = "idle";
    inputs = [ "go" ];
    outputs = [ "busy" ];
    transitions =
      [
        {
          Fsm.from_state = "idle";
          guard = Some "go";
          to_state = "run";
          actions = [ "busy" ];
        };
        { Fsm.from_state = "run"; guard = None; to_state = "idle"; actions = [] };
      ];
    counts = [];
  }

let test_fsm_unreachable_state () =
  let f = { base_fsm with Fsm.states = base_fsm.Fsm.states @ [ "limbo" ] } in
  check_code "limbo" A.code_fsm_unreachable (A.fsm f)

let test_fsm_sink_state () =
  let f =
    {
      base_fsm with
      Fsm.states = base_fsm.Fsm.states @ [ "stuck" ];
      transitions =
        base_fsm.Fsm.transitions
        @ [
            {
              Fsm.from_state = "idle";
              guard = None;
              to_state = "stuck";
              actions = [];
            };
          ];
    }
  in
  check_code "stuck has no exit" A.code_fsm_sink (A.fsm f)

let test_fsm_invalid () =
  let f = { base_fsm with Fsm.states = [ "idle"; "run"; "idle" ] } in
  check_code "duplicate state name" A.code_fsm_invalid (A.fsm f)

let test_fsm_clean () =
  Alcotest.(check (list string)) "healthy fsm" [] (codes (A.fsm base_fsm))

(* --- machines held in the RTL ---------------------------------------------- *)

let machine_design (f : Fsm.t) =
  { Rtl.top = f.Fsm.fsm_name; modules = [ Rtl.of_fsm f ] }

let count code diags = List.length (List.filter (String.equal code) (codes diags))

let test_machine_unguarded_input () =
  let f = { base_fsm with Fsm.inputs = base_fsm.Fsm.inputs @ [ "spare" ] } in
  let diags = A.design (machine_design f) in
  Alcotest.(check int) "one DB-I201" 1 (count A.code_unused_input diags);
  Alcotest.(check (list (option string)))
    "on the unguarded input" [ Some "spare" ]
    (List.map (fun (d : D.t) -> d.D.item) (D.infos diags))

let test_machine_unreachable_once () =
  let f = { base_fsm with Fsm.states = base_fsm.Fsm.states @ [ "limbo" ] } in
  Alcotest.(check int) "one DB-W105" 1
    (count A.code_fsm_unreachable (A.design (machine_design f)))

(* --- rendering & policy --------------------------------------------------- *)

let test_strictify () =
  let d = structural ~ports:[ out "y" 8 ] [ ("y", "ghost") ] in
  let diags = A.design d in
  Alcotest.(check bool) "warnings before" true (D.warnings diags <> []);
  Alcotest.(check (list string)) "no errors before" [] (codes (D.errors diags));
  let strict = D.strictify diags in
  Alcotest.(check (list string)) "no warnings after" []
    (codes (D.warnings strict));
  Alcotest.(check bool) "errors after" true (D.errors strict <> [])

let test_assert_no_errors () =
  let bad =
    structural ~ports:[ inp "a" 8; inp "b" 8; out "y" 8 ]
      [ ("y", "a"); ("y", "b") ]
  in
  (match A.assert_no_errors bad with
  | () -> Alcotest.fail "expected multi-driver rejection"
  | exception Db_util.Error.Deepburning_error _ -> ());
  let warn_only = structural ~ports:[ out "y" 8 ] [ ("y", "ghost") ] in
  A.assert_no_errors warn_only;
  match A.assert_no_errors ~strict:true warn_only with
  | () -> Alcotest.fail "expected strict promotion"
  | exception Db_util.Error.Deepburning_error _ -> ()

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_json_rendering () =
  let d = structural ~ports:[ out "y" 8 ] [ ("y", "ghost") ] in
  let json = D.json_of_list (A.design d) in
  Alcotest.(check bool) "array" true
    (String.length json > 1 && json.[0] = '[');
  Alcotest.(check bool) "code field" true (contains json "\"code\"");
  Alcotest.(check bool) "severity field" true (contains json "\"severity\"");
  Alcotest.(check bool) "module field" true (contains json "\"module\"");
  Alcotest.(check bool) "W107 present" true (contains json A.code_implicit_net)

let test_to_string_format () =
  let diag =
    D.v ~code:"DB-E001" ~severity:D.Error ~scope:"m" ~item:"x" "boom"
  in
  Alcotest.(check string) "rendering"
    "error DB-E001 [m] 'x': boom" (D.to_string diag)

(* --- the generator's own designs are clean -------------------------------- *)

let constraint_script = Db_serve.Serve.default_constraint_script

(* Every zoo model under the default constraint script, as [lint --zoo] and
   [check --zoo] generate them. *)
let zoo_designs =
  lazy
    (List.map
       (fun (name, model) ->
         (name, Db_core.Generator.generate_from_script ~model ~constraint_script ()))
       Db_workloads.Model_zoo.named)

let test_model_zoo_designs_clean () =
  List.iter
    (fun (name, design) ->
      let diags = Db_core.Design.analyze design in
      Alcotest.(check (list string))
        (name ^ ": no errors") [] (codes (D.errors diags));
      Alcotest.(check (list string))
        (name ^ ": no warnings") [] (codes (D.warnings diags)))
    (List.filter (fun (name, _) -> name <> "ann0") (Lazy.force zoo_designs))

(* Every zoo design's emitted Verilog closes its module graph: each ROM a
   unit instantiates is declared, and each declared ROM is read. *)
let test_zoo_verilog_lint_clean () =
  List.iter
    (fun (name, design) ->
      Alcotest.(check (list string))
        (name ^ ": Lint.check") []
        (List.map
           (fun i -> i.Db_hdl.Lint.message)
           (Db_hdl.Lint.check (Db_core.Design.verilog design))))
    (Lazy.force zoo_designs)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The full non-strict findings, info lines included, digested per model:
   the [lint --zoo --json] line and the [check --zoo --json] line.  Any
   change to what the analyzer or the checker reports on a shipped design
   moves one of these. *)
let test_zoo_diagnostics_pinned () =
  let golden =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ name; lint; check ] -> Some (name, (lint, check))
        | _ -> None)
      (String.split_on_char '\n'
         (read_file (Filename.concat "golden_ir" "zoo_lint.md5")))
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, design) ->
      match List.assoc_opt name golden with
      | None -> Alcotest.failf "%s missing from golden_ir/zoo_lint.md5" name
      | Some (lint, check) ->
          Alcotest.(check string) (name ^ " lint digest") lint
            (md5 (D.json_of_list (Db_core.Design.analyze design)));
          Alcotest.(check string) (name ^ " check digest") check
            (md5
               (Db_core.Checker.to_json ~design:name
                  (Db_core.Checker.check design))))
    (Lazy.force zoo_designs)

(* Every machine of a design is a [Machine] module of its RTL, checked in
   place: the coordinator, which the top instantiates, and each AGU
   pattern FSM. *)
let test_machines_are_modules name () =
  let design = List.assoc name (Lazy.force zoo_designs) in
  let rtl = design.Db_core.Design.rtl in
  let bodies = List.map (fun (m : Rtl.module_decl) -> m.Rtl.body) rtl.Rtl.modules in
  let coordinator =
    Db_sched.Schedule.coordinator_fsm design.Db_core.Design.schedule
  in
  List.iter
    (fun (f : Fsm.t) ->
      Alcotest.(check bool)
        (name ^ ": " ^ f.Fsm.fsm_name ^ " is a module") true
        (List.mem (Rtl.Machine f) bodies))
    (coordinator
    :: Db_core.Compiler.agu_pattern_fsms design.Db_core.Design.program);
  let top = Rtl.find_module rtl rtl.Rtl.top in
  let instantiated =
    match top.Rtl.body with
    | Rtl.Structural { instances; _ } ->
        List.map (fun (i : Rtl.instance) -> i.Rtl.module_ref) instances
    | Rtl.Behavioral _ | Rtl.Machine _ -> []
  in
  Alcotest.(check bool) (name ^ ": top instantiates the coordinator") true
    (List.mem coordinator.Fsm.fsm_name instantiated);
  Alcotest.(check int) (name ^ ": one state per run")
    (1 + List.length design.Db_core.Design.schedule.Db_sched.Schedule.runs)
    (List.length coordinator.Fsm.states)

(* The coordinator driven by one [fold_done] per fold of the schedule:
   pulse [j] leaves it at the run holding fold [j], at that fold's place
   in the run, so the replay can map pulse [j] to [Schedule.events]'s
   [j]-th event.  Only a run's first fold pulses its output, the walk
   ends idle, and the emitted module holds a position register exactly
   when some run counts more than one fold. *)
let test_coordinator_walks_folds name () =
  let module S = Db_sched.Schedule in
  let module F = Db_sched.Folding in
  let design = List.assoc name (Lazy.force zoo_designs) in
  let schedule = design.Db_core.Design.schedule in
  let coordinator = S.coordinator_fsm schedule in
  let n = S.fold_count schedule in
  let trace =
    Fsm.run coordinator
      ~asserted:([ "start" ] :: List.init n (fun _ -> [ "fold_done" ]))
  in
  let expected =
    List.concat_map
      (fun (r : F.run) ->
        let label = Rtl.identifier r.F.fold.F.event in
        List.init r.F.count (fun p ->
            ( (F.nth_fold r p).F.event,
              (("s_" ^ label, p), if p = 0 then [ "ev_" ^ label ] else []) )))
      schedule.S.runs
  in
  Alcotest.(check (list string)) (name ^ ": fold events") (S.events schedule)
    (List.map fst expected);
  Alcotest.(check (list (pair (pair string int) (list string))))
    (name ^ ": trace")
    (List.map snd expected @ [ (("idle", 0), []) ])
    trace;
  let longest =
    List.fold_left (fun m (r : F.run) -> max m r.F.count) 1 schedule.S.runs
  in
  Alcotest.(check bool) (name ^ ": position register fits the longest run") true
    (1 lsl Fsm.counter_bits coordinator >= longest);
  Alcotest.(check bool) (name ^ ": position register emitted") (longest > 1)
    (contains
       (Db_hdl.Verilog.emit_module (Rtl.of_fsm coordinator))
       "position")

(* The one name sanitizer maps every zoo network name as the generator's
   old '-' and ' ' mapping did, and every module of the emitted RTL is a
   Verilog identifier that [Rtl.validate] accepts. *)
let test_module_names name () =
  let design = List.assoc name (Lazy.force zoo_designs) in
  let rtl = design.Db_core.Design.rtl in
  Rtl.validate rtl;
  let net =
    String.map
      (function '-' | ' ' -> '_' | c -> c)
      design.Db_core.Design.network.Db_nn.Network.net_name
  in
  Alcotest.(check string) (name ^ ": top") ("accelerator_" ^ net) rtl.Rtl.top;
  let names = List.map (fun (m : Rtl.module_decl) -> m.Rtl.mod_name) rtl.Rtl.modules in
  Alcotest.(check bool) (name ^ ": coordinator") true
    (List.mem ("coordinator_" ^ net) names);
  List.iter
    (fun m -> Alcotest.(check string) (name ^ ": identifier") m (Rtl.identifier m))
    names

(* One case per zoo design, so a failure names its design. *)
let per_design label test =
  List.map
    (fun (name, _) ->
      Alcotest.test_case (label ^ " " ^ name) `Slow (test name))
    Db_workloads.Model_zoo.named

let suite =
  [
    ( "analysis.drivers",
      [
        Alcotest.test_case "multi-driver" `Quick test_multi_driver;
        Alcotest.test_case "overlapping slices" `Quick
          test_multi_driver_overlapping_slices;
        Alcotest.test_case "disjoint slices ok" `Quick test_disjoint_slices_ok;
      ] );
    ( "analysis.widths",
      [
        Alcotest.test_case "assign mismatch" `Quick test_assign_width_mismatch;
        Alcotest.test_case "zero-extend ok" `Quick test_assign_width_ok_with_expr;
        Alcotest.test_case "port mismatch" `Quick test_port_width_mismatch;
        Alcotest.test_case "unknown param" `Quick test_unknown_param_override;
      ] );
    ( "analysis.structure",
      [
        Alcotest.test_case "comb loop" `Quick test_comb_loop;
        Alcotest.test_case "undriven/unused" `Quick test_undriven_and_unused;
        Alcotest.test_case "redeclared" `Quick test_redeclared_net;
        Alcotest.test_case "implicit net" `Quick test_implicit_net;
        Alcotest.test_case "latch" `Quick test_latch_inference;
        Alcotest.test_case "no latch with default" `Quick
          test_no_latch_with_default;
      ] );
    ( "analysis.fsm",
      [
        Alcotest.test_case "unreachable" `Quick test_fsm_unreachable_state;
        Alcotest.test_case "sink" `Quick test_fsm_sink_state;
        Alcotest.test_case "invalid" `Quick test_fsm_invalid;
        Alcotest.test_case "clean" `Quick test_fsm_clean;
      ] );
    ( "analysis.machine",
      [
        Alcotest.test_case "unguarded input" `Quick test_machine_unguarded_input;
        Alcotest.test_case "unreachable once" `Quick
          test_machine_unreachable_once;
      ] );
    ( "analysis.policy",
      [
        Alcotest.test_case "strictify" `Quick test_strictify;
        Alcotest.test_case "assert_no_errors" `Quick test_assert_no_errors;
        Alcotest.test_case "json" `Quick test_json_rendering;
        Alcotest.test_case "to_string" `Quick test_to_string_format;
      ] );
    ( "analysis.zoo",
      [
        Alcotest.test_case "every zoo design clean" `Slow
          test_model_zoo_designs_clean;
        Alcotest.test_case "zoo diagnostics pinned" `Slow
          test_zoo_diagnostics_pinned;
        Alcotest.test_case "zoo verilog lint clean" `Slow
          test_zoo_verilog_lint_clean;
      ]
      @ per_design "machines are modules" test_machines_are_modules
      @ per_design "coordinator walks every fold" test_coordinator_walks_folds
      @ per_design "module names" test_module_names );
  ]
