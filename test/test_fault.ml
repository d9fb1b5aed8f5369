(* Tests for db_fault: ECC codecs, protection schemes, fault-space
   enumeration, campaign determinism across pool widths, and the
   cycle-budget watchdog the campaigns rely on. *)

module Error = Db_util.Error
module Rng = Db_util.Rng
module Pool = Db_parallel.Pool
module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Constraints = Db_core.Constraints
module Generator = Db_core.Generator
module Design = Db_core.Design
module Ecc = Db_fault.Ecc
module Protect = Db_fault.Protect
module Site = Db_fault.Site
module Campaign = Db_fault.Campaign

(* ------------------------------------------------------------------ *)
(* ECC codecs                                                          *)

let test_secded_roundtrip_clean () =
  let rng = Rng.create 101 in
  List.iter
    (fun data_bits ->
      for _ = 1 to 200 do
        let w = Rng.int rng (1 lsl data_bits) in
        let code = Ecc.secded_encode ~data_bits w in
        let verdict, data = Ecc.secded_decode ~data_bits code in
        if verdict <> Ecc.Clean || data <> w then
          Alcotest.failf "clean roundtrip failed: %d bits, word %d" data_bits w
      done)
    [ 8; 16; 24; 32 ]

let test_secded_corrects_all_single_flips () =
  let rng = Rng.create 102 in
  List.iter
    (fun data_bits ->
      let total = Ecc.secded_total_bits ~data_bits in
      for _ = 1 to 50 do
        let w = Rng.int rng (1 lsl data_bits) in
        let code = Ecc.secded_encode ~data_bits w in
        for bit = 0 to total - 1 do
          let verdict, data = Ecc.secded_decode ~data_bits (code lxor (1 lsl bit)) in
          if verdict <> Ecc.Corrected || data <> w then
            Alcotest.failf "single flip at bit %d not corrected (%d bits)" bit
              data_bits
        done
      done)
    [ 8; 16; 32 ]

let test_secded_detects_all_double_flips () =
  let rng = Rng.create 103 in
  List.iter
    (fun data_bits ->
      let total = Ecc.secded_total_bits ~data_bits in
      for _ = 1 to 20 do
        let w = Rng.int rng (1 lsl data_bits) in
        let code = Ecc.secded_encode ~data_bits w in
        for b1 = 0 to total - 1 do
          for b2 = b1 + 1 to total - 1 do
            let corrupted = code lxor (1 lsl b1) lxor (1 lsl b2) in
            let verdict, _ = Ecc.secded_decode ~data_bits corrupted in
            if verdict <> Ecc.Double_error then
              Alcotest.failf "double flip (%d, %d) not detected (%d bits)" b1 b2
                data_bits
          done
        done
      done)
    [ 8; 16 ]

let test_parity_detects_odd_misses_even () =
  let rng = Rng.create 104 in
  let data_bits = 16 in
  for _ = 1 to 200 do
    let w = Rng.int rng (1 lsl data_bits) in
    let stored = Ecc.parity_encode ~data_bits w in
    Alcotest.(check bool) "clean passes" true (Ecc.parity_check ~data_bits stored);
    let b1 = Rng.int rng (data_bits + 1) in
    Alcotest.(check bool)
      "single flip detected" false
      (Ecc.parity_check ~data_bits (stored lxor (1 lsl b1)));
    let b2 = (b1 + 1 + Rng.int rng data_bits) mod (data_bits + 1) in
    Alcotest.(check bool)
      "double flip missed" true
      (Ecc.parity_check ~data_bits (stored lxor (1 lsl b1) lxor (1 lsl b2)))
  done

let test_crc8_catches_small_errors () =
  let rng = Rng.create 105 in
  let data_bits = 16 in
  for _ = 1 to 100 do
    let words = Array.init 8 (fun _ -> Rng.int rng (1 lsl data_bits)) in
    let crc = Ecc.crc8 ~data_bits words in
    let wi = Rng.int rng 8 and bi = Rng.int rng data_bits in
    let corrupted = Array.copy words in
    corrupted.(wi) <- corrupted.(wi) lxor (1 lsl bi);
    if Ecc.crc8 ~data_bits corrupted = crc then
      Alcotest.fail "single-bit error slipped past CRC-8"
  done

(* ------------------------------------------------------------------ *)
(* Protection schemes                                                  *)

let test_transmit_zero_fault_is_identity () =
  let rng = Rng.create 106 in
  List.iter
    (fun scheme ->
      for _ = 1 to 100 do
        let w = Rng.int rng (1 lsl 16) in
        match Protect.transmit scheme ~word_bits:16 ~word:w ~flips:[] with
        | Protect.Silent v ->
            Alcotest.(check int)
              (Protect.name scheme ^ " passes clean words") w v
        | _ -> Alcotest.fail "clean word flagged"
      done)
    Protect.all

let test_transmit_secded_corrects () =
  let rng = Rng.create 107 in
  let total = Ecc.secded_total_bits ~data_bits:16 in
  for _ = 1 to 200 do
    let w = Rng.int rng (1 lsl 16) in
    let bit = Rng.int rng total in
    match Protect.transmit Protect.Secded ~word_bits:16 ~word:w ~flips:[ bit ] with
    | Protect.Corrected -> ()
    | _ -> Alcotest.fail "SECDED failed to correct a single flip"
  done

let test_protection_overhead_nonzero () =
  List.iter
    (fun scheme ->
      let r = Protect.resource_overhead scheme ~word_bits:16 ~words:1024 in
      let nonzero =
        r.Db_fpga.Resource.luts > 0
        && r.Db_fpga.Resource.ffs > 0
        && r.Db_fpga.Resource.bram_bits > 0
      in
      Alcotest.(check bool) (Protect.name scheme ^ " costs hardware") true nonzero)
    [ Protect.Parity; Protect.Secded; Protect.Crc_reload ];
  Alcotest.(check bool) "unprotected is free" true
    (Protect.resource_overhead Protect.Unprotected ~word_bits:16 ~words:1024
    = Db_fpga.Resource.zero)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

let ann_net () =
  Db_workloads.Model_zoo.build
    (Db_workloads.Model_zoo.ann_prototxt ~name:"faultnet" ~inputs:8 ~hidden1:12
       ~hidden2:12 ~outputs:4)

let design_of net =
  Generator.generate (Constraints.with_dsp_cap Constraints.db_medium 4) net

let campaign_fixture () =
  let net = ann_net () in
  let design = design_of net in
  let rng = Rng.create 33 in
  let params = Db_nn.Params.init_xavier rng net in
  let inputs =
    Array.init 4 (fun _ ->
        Tensor.random_uniform rng (Shape.vector 8) ~min:(-1.0) ~max:1.0)
  in
  (design, params, inputs)

let small_config =
  {
    Campaign.default_config with
    Campaign.trials = 60;
    cycle_budget = 20_000;
    rates = [ 0.0; 1e-3 ];
  }

let counts_equal (a : Campaign.counts) (b : Campaign.counts) =
  a.Campaign.injections = b.Campaign.injections
  && a.Campaign.masked = b.Campaign.masked
  && a.Campaign.sdc = b.Campaign.sdc
  && a.Campaign.top1_flips = b.Campaign.top1_flips
  && a.Campaign.corrected = b.Campaign.corrected
  && a.Campaign.retried = b.Campaign.retried
  && a.Campaign.hangs = b.Campaign.hangs

let test_campaign_deterministic_across_pool_widths () =
  (* The test env pins DEEPBURNING_JOBS=4, so the plain run uses a real
     4-wide pool; with_sequential forces the jobs=1 path.  The rendered
     JSON has no timing fields, so it must match byte for byte. *)
  let design, params, inputs = campaign_fixture () in
  let run () =
    Campaign.run ~design ~params ~input_blob:"data" ~inputs small_config
  in
  let parallel = run () in
  let sequential = Pool.with_sequential run in
  Alcotest.(check bool)
    "classification counts identical" true
    (counts_equal parallel.Campaign.res_total sequential.Campaign.res_total);
  Alcotest.(check string)
    "JSON byte-identical"
    (Campaign.render_json parallel)
    (Campaign.render_json sequential)

let test_campaign_zero_rate_matches_baseline () =
  (* A zero fault rate injects nothing, so the degradation point must sit
     at exactly the fault-free accuracy: 100% agreement with golden. *)
  let design, params, inputs = campaign_fixture () in
  let r = Campaign.run ~design ~params ~input_blob:"data" ~inputs small_config in
  match r.Campaign.res_degradation with
  | (rate0, acc0) :: _ ->
      Alcotest.(check (float 0.0)) "rate 0" 0.0 rate0;
      Alcotest.(check (float 0.0)) "accuracy 100" 100.0 acc0
  | [] -> Alcotest.fail "no degradation points"

let test_campaign_ecc_removes_weight_sdc () =
  let design, params, inputs = campaign_fixture () in
  let config =
    {
      small_config with
      Campaign.trials = 120;
      targets = [ Site.Weights; Site.Biases ];
    }
  in
  let unprot =
    Campaign.run ~design ~params ~input_blob:"data" ~inputs config
  in
  let prot =
    Campaign.run ~design ~params ~input_blob:"data" ~inputs
      {
        config with
        Campaign.protection =
          {
            Campaign.unprotected with
            Campaign.weights = Protect.Secded;
            biases = Protect.Secded;
          };
      }
  in
  Alcotest.(check bool)
    "unprotected weights suffer silent corruption" true
    (Campaign.silent_fraction unprot.Campaign.res_total > 0.0);
  (* Every single-bit upset lands inside one SECDED codeword, so all of
     them come back corrected: zero silent corruption, nonzero cost. *)
  Alcotest.(check (float 0.0))
    "ECC removes it" 0.0
    (Campaign.silent_fraction prot.Campaign.res_total);
  Alcotest.(check bool)
    "corrections happened" true
    (prot.Campaign.res_total.Campaign.corrected > 0);
  Alcotest.(check bool)
    "overhead reported" true
    (prot.Campaign.res_overheads <> [])

let test_campaign_fsm_faults_hang () =
  let design, params, inputs = campaign_fixture () in
  let config =
    { small_config with Campaign.trials = 20; targets = [ Site.Control_fsm ] }
  in
  let r = Campaign.run ~design ~params ~input_blob:"data" ~inputs config in
  Alcotest.(check int)
    "every stuck-FSM trial hangs" r.Campaign.res_total.Campaign.injections
    r.Campaign.res_total.Campaign.hangs

(* Trials and the degradation sweep flip stored words in private working
   copies and write them back: on both engines the caller's parameters
   come out bitwise unchanged, and a second run reproduces the first. *)
let test_campaign_leaves_params_intact () =
  let design, params, inputs = campaign_fixture () in
  let before = Db_nn.Params.copy params in
  List.iter
    (fun engine ->
      let run () =
        Campaign.render_json
          (Campaign.run ~design ~params ~input_blob:"data" ~inputs
             { small_config with Campaign.rates = [ 1e-3; 1e-2 ]; engine })
      in
      let first = run () in
      Alcotest.(check string) "second run identical" first (run ());
      Db_nn.Params.iter before (fun node ts ->
          List.iter2
            (fun a b ->
              if not (Tensor.equal_bits a b) then
                Alcotest.failf "%s: parameters changed" node)
            ts
            (Db_nn.Params.get params node)))
    [ Campaign.Generic; Campaign.Specialized ]

let test_campaign_rejects_bad_rates () =
  (* A non-finite or out-of-range rate would overflow the expected flip
     count into a negative one that flips nothing — a perfect score. *)
  let design, params, inputs = campaign_fixture () in
  List.iter
    (fun rate ->
      match
        Campaign.run ~design ~params ~input_blob:"data" ~inputs
          { small_config with Campaign.rates = [ 1e-4; rate ] }
      with
      | _ -> Alcotest.failf "rate %g accepted" rate
      | exception (Error.Deepburning_error msg as e) ->
          Alcotest.(check string)
            (Printf.sprintf "rate %g message" rate)
            (Printf.sprintf
               "fault: fault rate must be a finite number in [0, 1] (got %g)"
               rate)
            msg;
          Alcotest.(check (option string))
            "classified as simulation" (Some "simulation")
            (Option.map Error.class_name (Error.classify_exn e)))
    [ infinity; nan; -1e-3; 2.0 ]

(* ------------------------------------------------------------------ *)
(* AGU masked rule                                                     *)

module Access_pattern = Db_mem.Access_pattern

(* The oracle: both address streams straight from the counter arithmetic,
   unvalidated, equal iff they have the same length and agree pointwise. *)
let streams_equal (g : Access_pattern.t) (c : Access_pattern.t) =
  let addr (p : Access_pattern.t) i =
    let row = p.Access_pattern.x_length in
    let block = row * p.Access_pattern.y_length in
    p.Access_pattern.start
    + (i / block * p.Access_pattern.offset)
    + (i mod block / row * p.Access_pattern.stride)
    + (i mod row)
  in
  let count (p : Access_pattern.t) = Access_pattern.word_count p in
  let n = count g in
  n = count c
  &&
  let rec agree i = i >= n || (addr g i = addr c i && agree (i + 1)) in
  agree 0

let field_value (p : Access_pattern.t) = function
  | Site.Start -> p.Access_pattern.start
  | Site.X_length -> p.Access_pattern.x_length
  | Site.Y_length -> p.Access_pattern.y_length
  | Site.Stride -> p.Access_pattern.stride
  | Site.Offset -> p.Access_pattern.offset
  | Site.Repeat -> p.Access_pattern.repeat

let with_field (p : Access_pattern.t) field v =
  match field with
  | Site.Start -> { p with Access_pattern.start = v }
  | Site.X_length -> { p with Access_pattern.x_length = v }
  | Site.Y_length -> { p with Access_pattern.y_length = v }
  | Site.Stride -> { p with Access_pattern.stride = v }
  | Site.Offset -> { p with Access_pattern.offset = v }
  | Site.Repeat -> { p with Access_pattern.repeat = v }

let field_name = function
  | Site.Start -> "start"
  | Site.X_length -> "x_length"
  | Site.Y_length -> "y_length"
  | Site.Stride -> "stride"
  | Site.Offset -> "offset"
  | Site.Repeat -> "repeat"

(* A healthy pattern of at most 6x6x6 words, one of its six registers and
   a different value for it: small, or anywhere in the 24-bit register. *)
let gen_agu_upset =
  QCheck.Gen.(
    let* start = int_range 0 64 in
    let* x_length = int_range 1 6 in
    let* y_length = int_range 1 6 in
    let* stride = int_range 0 16 in
    let* offset = int_range 0 64 in
    let* repeat = int_range 1 6 in
    let p =
      {
        Access_pattern.pattern_name = "upset";
        start;
        footprint = 1;
        x_length;
        y_length;
        stride;
        offset;
        repeat;
      }
    in
    let* field = oneofa Site.agu_fields in
    let old = field_value p field in
    let* v =
      frequency
        [ (3, int_range 0 80); (1, int_range 0 ((1 lsl Site.agu_register_bits) - 1)) ]
    in
    return (p, field, if v = old then old + 1 else v))

let print_agu_upset ((p : Access_pattern.t), field, v) =
  Printf.sprintf "start=%d x=%d y=%d stride=%d offset=%d repeat=%d; %s := %d"
    p.Access_pattern.start p.Access_pattern.x_length p.Access_pattern.y_length
    p.Access_pattern.stride p.Access_pattern.offset p.Access_pattern.repeat
    (field_name field) v

(* Wherever the upset pattern's lengths stay positive (the others hang),
   the rule agrees with comparing both streams, read from either side. *)
let prop_agu_upset_masked =
  QCheck.Test.make ~name:"AGU masked rule = stream comparison" ~count:3000
    (QCheck.make ~print:print_agu_upset gen_agu_upset)
    (fun (p, field, v) ->
      let c = with_field p field v in
      QCheck.assume
        (c.Access_pattern.x_length > 0
        && c.Access_pattern.y_length > 0
        && c.Access_pattern.repeat > 0);
      let same = streams_equal p c in
      Campaign.agu_upset_masked p field = same
      && Campaign.agu_upset_masked c field = same)

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)

let test_watchdog_agu_over_budget_times_out () =
  let pattern =
    Db_mem.Access_pattern.rows ~name:"wd" ~start:0 ~x_length:8 ~y_length:4
      ~stride:8
  in
  let need = Db_mem.Agu_sim.cycles_estimate pattern in
  (* A budget covering the pattern's cycles lets it finish... *)
  let agu = Db_mem.Agu_sim.create pattern in
  let addrs, cycles = Db_mem.Agu_sim.run_to_completion ~max_cycles:need agu in
  Alcotest.(check int) "addresses" 32 (List.length addrs);
  Alcotest.(check int) "cycles" need cycles;
  (* ...one cycle less trips the watchdog with a structured timeout. *)
  let short = Db_mem.Agu_sim.create pattern in
  match Db_mem.Agu_sim.run_to_completion ~max_cycles:(need - 1) short with
  | _ -> Alcotest.fail "AGU finished over budget"
  | exception Error.Timeout { component; cycles; budget } ->
      Alcotest.(check string) "component" "agu-sim" component;
      Alcotest.(check int) "budget" (need - 1) budget;
      Alcotest.(check bool) "spent the budget" true (cycles >= budget)

let test_watchdog_simulator_budget () =
  let design, params, inputs = campaign_fixture () in
  (* A generous budget passes and returns the same output as no budget. *)
  let free =
    Db_sim.Simulator.functional_output design params
      ~inputs:[ ("data", inputs.(0)) ]
  in
  let budgeted =
    Db_sim.Simulator.functional_output ~cycle_budget:10_000_000 design params
      ~inputs:[ ("data", inputs.(0)) ]
  in
  Alcotest.(check bool) "same output" true
    (Tensor.equal_approx ~tol:0.0 free budgeted);
  (* An impossible budget raises the structured timeout. *)
  match
    Db_sim.Simulator.functional_output ~cycle_budget:3 design params
      ~inputs:[ ("data", inputs.(0)) ]
  with
  | _ -> Alcotest.fail "watchdog did not fire"
  | exception Error.Timeout { component; budget; _ } ->
      Alcotest.(check string) "component" "simulator" component;
      Alcotest.(check int) "budget" 3 budget

(* ------------------------------------------------------------------ *)
(* Failure classes                                                     *)

let test_failure_classes_distinct_codes () =
  let classes =
    [
      Error.Parse; Error.Validation; Error.Resource; Error.Simulation;
      Error.Watchdog; Error.Io; Error.Memory; Error.Internal;
    ]
  in
  let codes = List.map Error.exit_code classes in
  Alcotest.(check int)
    "codes all distinct"
    (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c ->
      let code = Error.exit_code c in
      Alcotest.(check bool) "outside cmdliner range" true
        (code >= 1 && code <= 9))
    classes

let test_classify_exn () =
  let check name exn expected =
    match Error.classify_exn exn with
    | Some cls -> Alcotest.(check string) name (Error.class_name expected) (Error.class_name cls)
    | None -> Alcotest.failf "%s: not classified" name
  in
  check "prototxt is parse" (Error.Deepburning_error "prototxt: bad") Error.Parse;
  check "network is validation"
    (Error.Deepburning_error "network: cycle")
    Error.Validation;
  check "fault is simulation" (Error.Deepburning_error "fault: x") Error.Simulation;
  check "timeout is watchdog"
    (Error.Timeout { component = "agu-sim"; cycles = 9; budget = 8 })
    Error.Watchdog;
  check "sys_error is io" (Sys_error "no such file") Error.Io;
  check "unknown prefix is internal"
    (Error.Deepburning_error "who-knows: x")
    Error.Internal;
  Alcotest.(check bool) "foreign exception unclassified" true
    (Error.classify_exn Exit = None)

let suite =
  [
    ( "fault.ecc",
      [
        Alcotest.test_case "secded clean roundtrip" `Quick
          test_secded_roundtrip_clean;
        Alcotest.test_case "secded corrects single flips" `Quick
          test_secded_corrects_all_single_flips;
        Alcotest.test_case "secded detects double flips" `Quick
          test_secded_detects_all_double_flips;
        Alcotest.test_case "parity parity" `Quick
          test_parity_detects_odd_misses_even;
        Alcotest.test_case "crc8 catches bit errors" `Quick
          test_crc8_catches_small_errors;
      ] );
    ( "fault.protect",
      [
        Alcotest.test_case "zero-fault identity" `Quick
          test_transmit_zero_fault_is_identity;
        Alcotest.test_case "secded transmit corrects" `Quick
          test_transmit_secded_corrects;
        Alcotest.test_case "overhead nonzero" `Quick
          test_protection_overhead_nonzero;
      ] );
    ( "fault.campaign",
      [
        Alcotest.test_case "deterministic across pool widths" `Quick
          test_campaign_deterministic_across_pool_widths;
        Alcotest.test_case "zero rate matches baseline" `Quick
          test_campaign_zero_rate_matches_baseline;
        Alcotest.test_case "ECC removes weight SDC" `Quick
          test_campaign_ecc_removes_weight_sdc;
        Alcotest.test_case "stuck FSM hangs" `Quick test_campaign_fsm_faults_hang;
        Alcotest.test_case "leaves parameters intact" `Quick
          test_campaign_leaves_params_intact;
        Alcotest.test_case "rejects bad rates" `Quick
          test_campaign_rejects_bad_rates;
      ] );
    ("fault.agu", [ QCheck_alcotest.to_alcotest prop_agu_upset_masked ]);
    ( "fault.watchdog",
      [
        Alcotest.test_case "AGU over budget timeout" `Quick
          test_watchdog_agu_over_budget_times_out;
        Alcotest.test_case "simulator cycle budget" `Quick
          test_watchdog_simulator_budget;
      ] );
    ( "fault.errors",
      [
        Alcotest.test_case "distinct exit codes" `Quick
          test_failure_classes_distinct_codes;
        Alcotest.test_case "classify_exn" `Quick test_classify_exn;
      ] );
  ]
