(* Tests for db_hdl: RTL validation, FSM semantics and Verilog emission. *)

module Rtl = Db_hdl.Rtl
module Fsm = Db_hdl.Fsm
module Verilog = Db_hdl.Verilog

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let leaf =
  {
    Rtl.mod_name = "leaf";
    ports =
      [
        { Rtl.port_name = "clk"; direction = Rtl.Input; width = 1 };
        { Rtl.port_name = "d"; direction = Rtl.Input; width = 8 };
        { Rtl.port_name = "q"; direction = Rtl.Output; width = 8 };
      ];
    localparams = [];
    body = Rtl.Behavioral [ "assign q = d;" ];
  }

let top_with instances nets =
  {
    Rtl.mod_name = "top";
    ports = [ { Rtl.port_name = "clk"; direction = Rtl.Input; width = 1 } ];
    localparams = [];
    body = Rtl.Structural { nets; instances; assigns = [] };
  }

let good_design =
  {
    Rtl.top = "top";
    modules =
      [
        leaf;
        top_with
          [
            {
              Rtl.inst_name = "u0";
              module_ref = "leaf";
              parameters = [];
              connections = [ ("clk", "clk"); ("d", "bus"); ("q", "bus2") ];
            };
          ]
          [
            { Rtl.net_name = "bus"; net_width = 8 };
            { Rtl.net_name = "bus2"; net_width = 8 };
          ];
      ];
  }

let test_validate_good () = Rtl.validate good_design

let expect_invalid design fragment =
  match Rtl.validate design with
  | () -> Alcotest.failf "expected validation failure (%s)" fragment
  | exception Db_util.Error.Deepburning_error msg ->
      Alcotest.(check bool) ("mentions " ^ fragment) true (contains msg fragment)

let test_validate_missing_module () =
  expect_invalid
    {
      Rtl.top = "top";
      modules =
        [
          top_with
            [
              {
                Rtl.inst_name = "u0";
                module_ref = "ghost";
                parameters = [];
                connections = [];
              };
            ]
            [];
        ];
    }
    "undeclared module"

let test_validate_unknown_port () =
  expect_invalid
    {
      good_design with
      Rtl.modules =
        [
          leaf;
          top_with
            [
              {
                Rtl.inst_name = "u0";
                module_ref = "leaf";
                parameters = [];
                connections = [ ("nonexistent", "clk") ];
              };
            ]
            [];
        ];
    }
    "no port"

let test_validate_unknown_net () =
  expect_invalid
    {
      good_design with
      Rtl.modules =
        [
          leaf;
          top_with
            [
              {
                Rtl.inst_name = "u0";
                module_ref = "leaf";
                parameters = [];
                connections = [ ("d", "missing_net") ];
              };
            ]
            [];
        ];
    }
    "unknown net"

let test_validate_missing_top () =
  expect_invalid { Rtl.top = "nope"; modules = [ leaf ] } "top module"

let test_validate_module_name () =
  expect_invalid
    { Rtl.top = "ann.0+x"; modules = [ { leaf with Rtl.mod_name = "ann.0+x" } ] }
    "not a Verilog identifier";
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) name want (Rtl.identifier name))
    [
      ("accelerator_vgg-16", "accelerator_vgg_16");
      ("accelerator_ann.0+x", "accelerator_ann_0_x");
      ("train_phases_ann0:train", "train_phases_ann0_train");
      ("0ops", "_0ops");
      ("", "_");
      ("already_ok9", "already_ok9");
    ]

let test_verilog_emission () =
  let text = Verilog.emit_design good_design in
  Alcotest.(check bool) "has leaf module" true (contains text "module leaf (");
  Alcotest.(check bool) "has top module" true (contains text "module top (");
  Alcotest.(check bool) "top comes last" true
    (String.length text - String.index text 't' > 0);
  Alcotest.(check bool) "instance" true (contains text "leaf u0 (");
  Alcotest.(check bool) "wire decl" true (contains text "wire [7:0] bus;");
  Alcotest.(check bool) "endmodule per module" true
    (List.length (String.split_on_char 'e' text) > 0)

let counter_fsm =
  {
    Fsm.fsm_name = "counter";
    states = [ "idle"; "run"; "done" ];
    initial = "idle";
    inputs = [ "go"; "stop" ];
    outputs = [ "tick"; "finished" ];
    transitions =
      [
        { Fsm.from_state = "idle"; guard = Some "go"; to_state = "run"; actions = [ "tick" ] };
        { Fsm.from_state = "run"; guard = Some "stop"; to_state = "done"; actions = [ "finished" ] };
        { Fsm.from_state = "run"; guard = None; to_state = "run"; actions = [ "tick" ] };
      ];
    counts = [];
  }

let test_fsm_validate () = Fsm.validate counter_fsm

let test_fsm_rejects_nondeterminism () =
  let bad =
    {
      counter_fsm with
      Fsm.transitions =
        counter_fsm.Fsm.transitions
        @ [ { Fsm.from_state = "idle"; guard = Some "go"; to_state = "done"; actions = [] } ];
    }
  in
  match Fsm.validate bad with
  | () -> Alcotest.fail "expected nondeterminism rejection"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_fsm_rejects_unknown_guard () =
  let bad =
    {
      counter_fsm with
      Fsm.transitions =
        [ { Fsm.from_state = "idle"; guard = Some "warp"; to_state = "run"; actions = [] } ];
    }
  in
  match Fsm.validate bad with
  | () -> Alcotest.fail "expected unknown guard rejection"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_fsm_step_semantics () =
  let s1, a1 = Fsm.step counter_fsm ~state:("idle", 0) ~asserted:[ "go" ] in
  Alcotest.(check string) "idle -go-> run" "run" (fst s1);
  Alcotest.(check (list string)) "tick" [ "tick" ] a1;
  let s2, _ = Fsm.step counter_fsm ~state:("idle", 0) ~asserted:[] in
  Alcotest.(check string) "idle stays without go" "idle" (fst s2);
  let s3, a3 = Fsm.step counter_fsm ~state:("run", 0) ~asserted:[] in
  Alcotest.(check string) "run self-loop" "run" (fst s3);
  Alcotest.(check (list string)) "self tick" [ "tick" ] a3;
  let s4, a4 = Fsm.step counter_fsm ~state:("run", 0) ~asserted:[ "stop" ] in
  Alcotest.(check string) "guard wins over epsilon" "done" (fst s4);
  Alcotest.(check (list string)) "finished" [ "finished" ] a4

let test_fsm_run_trace () =
  let trace = Fsm.run counter_fsm ~asserted:[ [ "go" ]; []; [ "stop" ] ] in
  Alcotest.(check (list string))
    "state trace" [ "run"; "run"; "done" ]
    (List.map (fun ((s, _), _) -> s) trace)

(* A chain of two runs, 3 folds then 1: the counted state holds for three
   advance pulses, reporting its position, and pulses only on entry. *)
let counted_chain =
  Fsm.chain ~name:"coord" ~advance:"fold_done" ~output_prefix:"ev_"
    [ ("a", 3); ("b", 1) ]

let test_fsm_counted_run () =
  Alcotest.(check int) "position register" 2 (Fsm.counter_bits counted_chain);
  Alcotest.(check int) "uncounted" 0 (Fsm.counter_bits counter_fsm);
  let trace =
    Fsm.run counted_chain
      ~asserted:([ "start" ] :: List.init 4 (fun _ -> [ "fold_done" ]))
  in
  Alcotest.(check (list (pair (pair string int) (list string))))
    "trace"
    [
      (("s_a", 0), [ "ev_a" ]);
      (("s_a", 1), []);
      (("s_a", 2), []);
      (("s_b", 0), [ "ev_b" ]);
      (("idle", 0), []);
    ]
    trace

let test_fsm_rejects_bad_count () =
  List.iter
    (fun counts ->
      match Fsm.validate { counter_fsm with Fsm.counts } with
      | () -> Alcotest.fail "expected count rejection"
      | exception Db_util.Error.Deepburning_error _ -> ())
    [ [ ("run", 0) ]; [ ("nowhere", 2) ]; [ ("run", 2); ("run", 3) ] ]

let test_fsm_counted_verilog () =
  let text = Verilog.emit_module (Rtl.of_fsm counted_chain) in
  Alcotest.(check bool) "position register" true
    (contains text "reg [1:0] position;");
  Alcotest.(check bool) "leaves on the last count" true
    (contains text "if (position == 2'd2) begin");
  Alcotest.(check (list string)) "lint clean" []
    (List.map (fun (i : Db_hdl.Lint.issue) -> i.Db_hdl.Lint.message)
       (Db_hdl.Lint.check text));
  Alcotest.(check bool) "no counter when uncounted" false
    (contains (Verilog.emit_module (Rtl.of_fsm counter_fsm)) "position")

let test_fsm_reachability () =
  let unreachable =
    {
      counter_fsm with
      Fsm.states = counter_fsm.Fsm.states @ [ "limbo" ];
    }
  in
  let reach = Fsm.reachable_states unreachable in
  Alcotest.(check bool) "limbo unreachable" false (List.mem "limbo" reach);
  Alcotest.(check bool) "done reachable" true (List.mem "done" reach)

let test_fsm_to_verilog () =
  let text = Verilog.emit_module (Rtl.of_fsm counter_fsm) in
  Alcotest.(check bool) "module name" true (contains text "module counter (");
  Alcotest.(check bool) "one-hot register" true (contains text "reg [2:0] state;");
  Alcotest.(check bool) "case statement" true (contains text "case (state)");
  Alcotest.(check bool) "guard if" true (contains text "if (go)")

(* Property: a random linear pipeline FSM visits all its states in order. *)
let prop_linear_fsm_walk =
  QCheck.Test.make ~name:"linear FSM walks its chain" ~count:30
    QCheck.(int_range 2 10)
    (fun n ->
      let states = List.init n (fun i -> Printf.sprintf "s%d" i) in
      let transitions =
        List.init (n - 1) (fun i ->
            {
              Fsm.from_state = Printf.sprintf "s%d" i;
              guard = Some "step";
              to_state = Printf.sprintf "s%d" (i + 1);
              actions = [];
            })
      in
      let fsm =
        {
          Fsm.fsm_name = "chain";
          states;
          initial = "s0";
          inputs = [ "step" ];
          outputs = [];
          transitions;
          counts = [];
        }
      in
      Fsm.validate fsm;
      let trace = Fsm.run fsm ~asserted:(List.init (n - 1) (fun _ -> [ "step" ])) in
      List.map (fun ((s, _), _) -> s) trace = List.tl states)

let suite =
  [
    ( "hdl.rtl",
      [
        Alcotest.test_case "validate good" `Quick test_validate_good;
        Alcotest.test_case "missing module" `Quick test_validate_missing_module;
        Alcotest.test_case "unknown port" `Quick test_validate_unknown_port;
        Alcotest.test_case "unknown net" `Quick test_validate_unknown_net;
        Alcotest.test_case "missing top" `Quick test_validate_missing_top;
        Alcotest.test_case "module names" `Quick test_validate_module_name;
        Alcotest.test_case "verilog emission" `Quick test_verilog_emission;
      ] );
    ( "hdl.fsm",
      [
        Alcotest.test_case "validate" `Quick test_fsm_validate;
        Alcotest.test_case "nondeterminism" `Quick test_fsm_rejects_nondeterminism;
        Alcotest.test_case "unknown guard" `Quick test_fsm_rejects_unknown_guard;
        Alcotest.test_case "step" `Quick test_fsm_step_semantics;
        Alcotest.test_case "run trace" `Quick test_fsm_run_trace;
        Alcotest.test_case "counted run" `Quick test_fsm_counted_run;
        Alcotest.test_case "bad counts" `Quick test_fsm_rejects_bad_count;
        Alcotest.test_case "counted verilog" `Quick test_fsm_counted_verilog;
        Alcotest.test_case "reachability" `Quick test_fsm_reachability;
        Alcotest.test_case "verilog" `Quick test_fsm_to_verilog;
        QCheck_alcotest.to_alcotest prop_linear_fsm_walk;
      ] );
  ]

(* --- Verilog lint (appended suite) ----------------------------------------- *)

let test_lint_clean_design () =
  Db_hdl.Lint.assert_clean (Verilog.emit_design good_design)

let test_lint_catches_imbalance () =
  let bad = "module m (\n  input wire clk\n);\n  always @(posedge clk) begin\n    x <= 1;\nendmodule\n" in
  Alcotest.(check bool) "missing end detected" true (Db_hdl.Lint.check bad <> [])

let test_lint_ignores_comments_and_strings () =
  let ok =
    "module m (\n  input wire clk\n);\n  // begin begin begin (\n  \
     initial $display(\"begin ( [\");\nendmodule\n"
  in
  Alcotest.(check (list string)) "no issues" []
    (List.map (fun i -> i.Db_hdl.Lint.message) (Db_hdl.Lint.check ok))

let test_lint_paren_imbalance () =
  let bad = "module m (\n  input wire clk\n);\n  assign x = (a + b;\nendmodule\n" in
  Alcotest.(check bool) "paren caught" true (Db_hdl.Lint.check bad <> [])

let test_lint_block_comments () =
  let ok =
    "module m (\n  input wire clk\n);\n  /* begin ( [ case */\n  \
     assign x = 1; /* inline ) */ assign y = 2;\nendmodule\n"
  in
  Alcotest.(check (list string)) "block comment ignored" []
    (List.map (fun i -> i.Db_hdl.Lint.message) (Db_hdl.Lint.check ok))

let test_lint_multiline_block_comment () =
  let ok =
    "module m (\n  input wire clk\n);\n  /* a multi-line comment\n     \
     with begin case ( [ {\n     spanning three lines */\n  assign x = \
     1;\nendmodule\n"
  in
  Alcotest.(check (list string)) "multi-line block comment ignored" []
    (List.map (fun i -> i.Db_hdl.Lint.message) (Db_hdl.Lint.check ok));
  (* Newlines inside the comment must survive stripping so line numbers in
     later diagnostics stay accurate. *)
  let stripped = Db_hdl.Lint.strip_comments "a\n/* x\n y */\nb" in
  Alcotest.(check int) "line count preserved" 4
    (List.length (String.split_on_char '\n' stripped))

let test_lint_unterminated_block_comment () =
  (* An unterminated block comment swallows the rest of the file; the
     stripper must not loop or raise. *)
  let stripped = Db_hdl.Lint.strip_comments "assign x = 1; /* oops\nmore" in
  let words = ref [] in
  Db_hdl.Lint.iter_words stripped (fun i j ->
      words := String.sub stripped i (j - i) :: !words);
  Alcotest.(check (list string)) "tail swallowed" [ "assign"; "x"; "1" ]
    (List.rev !words)

(* The module graph: an instance of an undeclared module (a unit's ROM
   that was never emitted) and a declared module nothing instantiates (a
   ROM no unit reads) are both reported; the top, written last, is not. *)
let test_lint_module_graph () =
  let text =
    String.concat "\n"
      [
        "module approx_lut_exp (";
        "  input wire [7:0] key";
        ");";
        "endmodule";
        "module act_unit (";
        "  input wire [15:0] x";
        ");";
        "  approx_lut_relu rom_i (.key(x[15:8]));";
        "endmodule";
        "module top (";
        "  input wire clk";
        ");";
        "  act_unit #(.W(16)) u0 (";
        "    .x(16'd0)";
        "  );";
        "endmodule";
        "";
      ]
  in
  Alcotest.(check (list (pair int string)))
    "both faults, with their lines"
    [
      (8, "instance of undeclared module approx_lut_relu");
      (1, "module approx_lut_exp is never instantiated");
    ]
    (List.map
       (fun i -> (i.Db_hdl.Lint.line, i.Db_hdl.Lint.message))
       (Db_hdl.Lint.check text))

let test_fsm_rejects_duplicate_states () =
  let bad = { counter_fsm with Fsm.states = [ "idle"; "run"; "idle"; "done" ] } in
  match Fsm.validate bad with
  | () -> Alcotest.fail "expected duplicate state rejection"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_fsm_rejects_duplicate_inputs () =
  let bad = { counter_fsm with Fsm.inputs = [ "go"; "stop"; "go" ] } in
  match Fsm.validate bad with
  | () -> Alcotest.fail "expected duplicate input rejection"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_fsm_rejects_duplicate_outputs () =
  let bad = { counter_fsm with Fsm.outputs = [ "tick"; "tick" ] } in
  match Fsm.validate bad with
  | () -> Alcotest.fail "expected duplicate output rejection"
  | exception Db_util.Error.Deepburning_error _ -> ()

let test_fsm_rejects_input_output_overlap () =
  let bad = { counter_fsm with Fsm.outputs = [ "tick"; "go" ] } in
  match Fsm.validate bad with
  | () -> Alcotest.fail "expected input/output overlap rejection"
  | exception Db_util.Error.Deepburning_error _ -> ()

let suite =
  suite
  @ [
      ( "hdl.lint",
        [
          Alcotest.test_case "clean design" `Quick test_lint_clean_design;
          Alcotest.test_case "imbalance" `Quick test_lint_catches_imbalance;
          Alcotest.test_case "comments/strings" `Quick test_lint_ignores_comments_and_strings;
          Alcotest.test_case "parens" `Quick test_lint_paren_imbalance;
          Alcotest.test_case "block comments" `Quick test_lint_block_comments;
          Alcotest.test_case "multi-line block comments" `Quick
            test_lint_multiline_block_comment;
          Alcotest.test_case "unterminated block comment" `Quick
            test_lint_unterminated_block_comment;
          Alcotest.test_case "module graph" `Quick test_lint_module_graph;
        ] );
      ( "hdl.fsm.validate",
        [
          Alcotest.test_case "duplicate states" `Quick
            test_fsm_rejects_duplicate_states;
          Alcotest.test_case "duplicate inputs" `Quick
            test_fsm_rejects_duplicate_inputs;
          Alcotest.test_case "duplicate outputs" `Quick
            test_fsm_rejects_duplicate_outputs;
          Alcotest.test_case "input/output overlap" `Quick
            test_fsm_rejects_input_output_overlap;
        ] );
    ]
