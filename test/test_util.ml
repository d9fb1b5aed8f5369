(* Tests for db_util: deterministic RNG and statistics. *)

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Db_util.Rng.create 7 and b = Db_util.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same stream" (Db_util.Rng.next_int64 a) (Db_util.Rng.next_int64 b)
  done

let test_rng_copy_independent () =
  let a = Db_util.Rng.create 3 in
  let c = Db_util.Rng.copy a in
  let va = Db_util.Rng.next_int64 a in
  let vc = Db_util.Rng.next_int64 c in
  Alcotest.(check int64) "copy continues identically" va vc;
  let (_ : int64) = Db_util.Rng.next_int64 a in
  (* a is now one ahead of c *)
  Alcotest.(check bool)
    "streams diverge after unequal draws" true
    (Db_util.Rng.next_int64 a <> Db_util.Rng.next_int64 c)

let test_rng_int_bounds () =
  let rng = Db_util.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Db_util.Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of range: %d" v
  done

let test_rng_float_bounds () =
  let rng = Db_util.Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Db_util.Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %g" v
  done

let test_rng_uniform_mean () =
  let rng = Db_util.Rng.create 17 in
  let xs = Array.init 20_000 (fun _ -> Db_util.Rng.uniform rng ~min:(-1.0) ~max:1.0) in
  let mean = Db_util.Stats.mean xs in
  if Float.abs mean > 0.03 then Alcotest.failf "uniform mean biased: %g" mean

let test_rng_gaussian_moments () =
  let rng = Db_util.Rng.create 19 in
  let xs =
    Array.init 20_000 (fun _ -> Db_util.Rng.gaussian rng ~mean:2.0 ~stddev:3.0)
  in
  let mean = Db_util.Stats.mean xs and sd = Db_util.Stats.stddev xs in
  if Float.abs (mean -. 2.0) > 0.1 then Alcotest.failf "gaussian mean: %g" mean;
  if Float.abs (sd -. 3.0) > 0.1 then Alcotest.failf "gaussian stddev: %g" sd

let test_shuffle_permutation () =
  let rng = Db_util.Rng.create 23 in
  let arr = Array.init 50 (fun i -> i) in
  Db_util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_split_independence () =
  let a = Db_util.Rng.create 29 in
  let b = Db_util.Rng.split a in
  Alcotest.(check bool)
    "split streams differ" true
    (Db_util.Rng.next_int64 a <> Db_util.Rng.next_int64 b)

(* Literal splitmix64 outputs, captured from the reference implementation:
   every seeded artifact in the repository (weights, inputs, campaigns,
   fronts) depends on these exact streams, so any change to the generator's
   representation must reproduce them bit for bit. *)
let golden_streams =
  [
    ( 0,
      [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ],
      [ 611; 686; 522; 728 ],
      [ "0x1.8b082675922d5p-1"; "0x1.f72bc4820e4c4p-3"; "0x1.e77091186d196p-1" ],
      [ "-0x1.a811322c34ec8p-3"; "0x1.0b4c9b80156f6p-1"; "0x1.88680ff82ef6p-5" ],
      [ 0x1.27cb1717a9ad8p+0; -0x1.6e1f3f5f896eap+0; 0x1.4ef4c9fbe58f8p+1 ],
      [ false; true; true; false; false; true ],
      (0x59BB8BB2074A9CEAL, 0x69B82EBC92233300L) );
    ( 1,
      [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL ],
      [ 58; 190; 512; 761 ],
      [ "0x1.0bcf761e244fp-1"; "0x1.245c6378d5f8ep-2"; "0x1.9686b91ce8c2cp-1" ],
      [ "-0x1.88a2388fea9b8p-3"; "0x1.afcd44d14cf88p-3"; "-0x1.71260eb68ab5p-4" ],
      [ -0x1.1c35ba6c2a3dcp+0; -0x1.781a4cfeed2ccp+0; 0x1.33d41704b75e8p+0 ],
      [ false; false; false; true; false; true ],
      (0x6A54EEE9640876A7L, 0x83F91CA7864A7135L) );
    ( 42,
      [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L ],
      [ 941; 812; 265; 231 ],
      [ "0x1.99ec6bdd3d3c5p-1"; "0x1.5c16e1dc2cf5ep-2"; "0x1.3ca9ae7052feep-1" ],
      [ "-0x1.2e2e36d62293ap-1"; "-0x1.cb75f1bae9bp-7"; "0x1.b6f6c4bf9f2p-6" ],
      [ 0x1.06b59b548cee4p-2; 0x1.909ccd0a032c7p+2; 0x1.3d712f60114d2p+2 ],
      [ false; false; true; true; true; false ],
      (0x1256225F0D5DE9C5L, 0xBDF25B150620A835L) );
    ( -7,
      [ 0x6C1E186443822970L; 0x7A87F4DABCF192AAL; 0xE8313FE1D7350611L ],
      [ 472; 788; 265; 894 ],
      [ "0x1.b4b0d3e2abdp-8"; "0x1.cd1ffdb57788p-6"; "0x1.9a961b9b6f5bap-2" ],
      [ "0x1.ec4421ff2bb3p-3"; "-0x1.476cf486f838p-6"; "0x1.41231f7f0614ap-1" ],
      [ -0x1.89b90ebd1974p-4; 0x1.0fc4553c465ebp+2; 0x1.5c483514d3a32p+1 ],
      [ true; true; false; false; true; false ],
      (0xBA288D417657E27CL, 0x3B88A55D97BEAABCL) );
  ]

let test_rng_golden () =
  let module Rng = Db_util.Rng in
  let draws n f = List.init n (fun _ -> f ()) in
  let hex x = Printf.sprintf "%h" x in
  List.iter
    (fun (seed, raw, ints, floats, uniforms, gaussians, bools, (child, parent)) ->
      let t = Rng.create seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check (list int64)) (name "next_int64") raw
        (draws 3 (fun () -> Rng.next_int64 t));
      Alcotest.(check (list int)) (name "int") ints
        (draws 4 (fun () -> Rng.int t 1000));
      (* Floats compare as exact hex literals: [float] and [uniform] are
         pure IEEE arithmetic on the integer stream. *)
      Alcotest.(check (list string)) (name "float") floats
        (draws 3 (fun () -> hex (Rng.float t 1.0)));
      Alcotest.(check (list string)) (name "uniform") uniforms
        (draws 3 (fun () -> hex (Rng.uniform t ~min:(-1.0) ~max:1.0)));
      (* Box-Muller goes through libm's log/cos/sqrt, so allow a few ulps. *)
      List.iter2
        (fun want got ->
          if Float.abs (want -. got) > 1e-12 then
            Alcotest.failf "%s: got %h, want %h" (name "gaussian") got want)
        gaussians
        (draws 3 (fun () -> Rng.gaussian t ~mean:2.0 ~stddev:3.0));
      Alcotest.(check (list bool)) (name "bool") bools
        (draws 6 (fun () -> Rng.bool t));
      let s = Rng.split t in
      Alcotest.(check int64) (name "split child") child (Rng.next_int64 s);
      Alcotest.(check int64) (name "split parent") parent (Rng.next_int64 t))
    golden_streams

let test_stats_mean () = check_float "mean" 2.0 (Db_util.Stats.mean [| 1.0; 2.0; 3.0 |])

let test_stats_sum_kahan () =
  (* Sum of many tiny values plus a large one: naive summation loses the
     tiny ones, compensated summation keeps them. *)
  let xs = Array.make 10_001 1e-8 in
  xs.(0) <- 1e8;
  let total = Db_util.Stats.sum xs in
  check_float "kahan" 1e8 (total -. 1e-4)

let test_stats_stddev () =
  (* Population stddev: deviations are all exactly 1. *)
  check_float "stddev" 1.0 (Db_util.Stats.stddev [| 1.0; 3.0; 1.0; 3.0 |])

let test_stats_geomean () =
  check_float "geomean" 2.0 (Db_util.Stats.geomean [| 1.0; 4.0 |])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Db_util.Stats.percentile xs 50.0);
  check_float "p0" 1.0 (Db_util.Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Db_util.Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Db_util.Stats.percentile xs 25.0)

let test_stats_min_max () =
  let mn, mx = Db_util.Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) mn;
  check_float "max" 7.0 mx

let test_rel_accuracy_exact () =
  let golden = [| 1.0; -2.0; 3.0 |] in
  check_float "identical vectors are 100%" 100.0
    (Db_util.Stats.rel_distance_accuracy ~golden ~approx:golden)

let test_rel_accuracy_degrades () =
  let golden = [| 1.0; 1.0 |] in
  let close = Db_util.Stats.rel_distance_accuracy ~golden ~approx:[| 1.01; 0.99 |] in
  let far = Db_util.Stats.rel_distance_accuracy ~golden ~approx:[| 1.5; 0.5 |] in
  Alcotest.(check bool) "closer is better" true (close > far);
  Alcotest.(check bool) "clamped at 0" true (far >= 0.0)

let test_error_message () =
  Alcotest.check_raises "failf_at prefixes component"
    (Db_util.Error.Deepburning_error "unit-test: boom 42") (fun () ->
      Db_util.Error.failf_at ~component:"unit-test" "boom %d" 42)

(* Every byte below 0x80 survives escape-then-parse, and the named
   escapes are the two-character ones. *)
let test_json_escape () =
  let module Json = Db_util.Minijson in
  let all = String.init 128 Char.chr in
  Alcotest.(check string) "round trip" all
    (Json.to_string (Json.parse ("\"" ^ Json.escape all ^ "\"")));
  Alcotest.(check string) "named escapes" {|a\"b\\c\nd\re\tf\u0001|}
    (Json.escape "a\"b\\c\nd\re\tf\001")

(* The runtime's Out_of_memory is a classified failure of its own: the
   CLI exits 9 and prints a message instead of a backtrace. *)
let test_out_of_memory_class () =
  let module E = Db_util.Error in
  Alcotest.(check (option string)) "classified as memory" (Some "memory")
    (Option.map E.class_name (E.classify_exn Out_of_memory));
  Alcotest.(check int) "exit code" 9 (E.exit_code E.Memory);
  Alcotest.(check bool) "code of its own" true
    (List.for_all
       (fun c -> E.exit_code c <> 9)
       [ E.Parse; E.Validation; E.Resource; E.Simulation; E.Watchdog; E.Io;
         E.Internal ]);
  Alcotest.(check bool) "printable message" true
    (E.message_of_exn Out_of_memory <> None)

let suite =
  [
    ( "util.json",
      [ Alcotest.test_case "escape" `Quick test_json_escape ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "copy" `Quick test_rng_copy_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
        Alcotest.test_case "split" `Quick test_split_independence;
        Alcotest.test_case "golden streams" `Quick test_rng_golden;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "kahan sum" `Quick test_stats_sum_kahan;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "min max" `Quick test_stats_min_max;
        Alcotest.test_case "Eq(1) exact" `Quick test_rel_accuracy_exact;
        Alcotest.test_case "Eq(1) monotone" `Quick test_rel_accuracy_degrades;
        Alcotest.test_case "error format" `Quick test_error_message;
        Alcotest.test_case "out of memory class" `Quick
          test_out_of_memory_class;
      ] );
  ]
