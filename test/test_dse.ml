(* The design-space explorer: archive invariants, cross-pool determinism,
   front regeneration through the hard gates, and the configuration-search
   dominance refinement. *)

module Rng = Db_util.Rng
module Resource = Db_fpga.Resource
module Objective = Db_core.Objective
module Constraints = Db_core.Constraints
module Config_search = Db_core.Config_search
module Design = Db_core.Design
module Design_cache = Db_core.Design_cache
module Archive = Db_dse.Archive
module Space = Db_dse.Space
module Explore = Db_dse.Explore

let default_cons () =
  Constraints.parse Db_serve.Serve.default_constraint_script

(* The zoo's ann0: small enough that a 16-point exploration stays well
   under a second. *)
let ann0 () =
  Db_nn.Caffe.import_string
    (Db_workloads.Model_zoo.ann_prototxt ~name:"ann0" ~inputs:1 ~hidden1:8
       ~hidden2:8 ~outputs:2)

let lowered cons net =
  let g = Db_ir.Lower.lower ~fmt:cons.Constraints.fmt net in
  Db_ir.Verify.check_exn g;
  g

let small_config =
  { Explore.default_config with Explore.budget = 16; population = 8 }

(* ---------------------------------------------------------------- *)
(* Archive invariants                                               *)

let arch_axes = Objective.[ Cycles; Luts ]

let vec cycles luts =
  {
    Objective.cycles;
    latency_s = 0.0;
    luts;
    ffs = 0.0;
    dsps = 0.0;
    bram_bits = 0.0;
    accuracy_loss = 0.0;
    silent_fraction = 0.0;
  }

let check_pairwise_nondominated axes entries =
  List.iteri
    (fun i (_, _, a) ->
      List.iteri
        (fun j (_, _, b) ->
          if i <> j && Objective.dominates ~axes a b then
            Alcotest.failf "archive entry %d dominates entry %d" i j)
        entries)
    entries

let test_archive_is_pareto_front () =
  let rng = Rng.create 7 in
  let archive = Archive.create ~axes:arch_axes ~epsilon:0.05 () in
  for i = 0 to 199 do
    (* Small integer grids force plenty of dominance and exact ties. *)
    let v = vec (float_of_int (Rng.int rng 20)) (float_of_int (Rng.int rng 20)) in
    ignore (Archive.add archive ~key:(Printf.sprintf "p%d" i) () v)
  done;
  let entries = Archive.entries archive in
  Alcotest.(check bool) "non-empty" true (entries <> []);
  check_pairwise_nondominated arch_axes entries

let test_archive_verdicts () =
  let archive = Archive.create ~axes:arch_axes ~epsilon:0.05 () in
  Alcotest.(check bool) "first added" true
    (Archive.add archive ~key:"a" () (vec 10. 10.) = Archive.Added);
  Alcotest.(check bool) "dominated rejected" true
    (Archive.add archive ~key:"b" () (vec 11. 11.) = Archive.Dominated);
  Alcotest.(check bool) "tie rejected" true
    (Archive.add archive ~key:"c" () (vec 10. 10.) = Archive.Dominated);
  Alcotest.(check bool) "dominator added" true
    (Archive.add archive ~key:"d" () (vec 9. 9.) = Archive.Added);
  Alcotest.(check int) "dominated evicted" 1 (Archive.size archive);
  Alcotest.(check bool) "trade-off added" true
    (Archive.add archive ~key:"e" () (vec 1. 100.) = Archive.Added);
  (* Same epsilon cell as "e", not dominated by it (better luts, worse
     cycles), but ranked behind it lexicographically. *)
  Alcotest.(check bool) "cellmate merged" true
    (Archive.add archive ~key:"f" () (vec 1.02 99.5) = Archive.Merged);
  Alcotest.(check int) "merge keeps size" 2 (Archive.size archive)

(* ---------------------------------------------------------------- *)
(* Explorer determinism and front validity                          *)

let test_explore_jobs_identical () =
  let cons = default_cons () and net = ann0 () in
  (* The suite environment pins DEEPBURNING_JOBS=4; with_sequential is
     the jobs=1 run of the same exploration. *)
  let seq =
    Db_parallel.Pool.with_sequential (fun () ->
        Explore.explore ~config:small_config cons net)
  in
  let par = Explore.explore ~config:small_config cons net in
  Alcotest.(check string) "byte-identical front JSON"
    (Explore.render_json seq) (Explore.render_json par)

let test_front_regenerates_through_gates () =
  let cons = default_cons () and net = ann0 () in
  let res = Explore.explore ~config:small_config cons net in
  Alcotest.(check bool) "front non-empty" true (res.Explore.r_front <> []);
  let entries =
    List.map
      (fun e -> (Space.key e.Explore.e_candidate, (), e.Explore.e_objective))
      res.Explore.r_front
  in
  check_pairwise_nondominated small_config.Explore.axes entries;
  let space = Space.make cons (lowered cons net) in
  List.iter
    (fun e ->
      let c = e.Explore.e_candidate in
      let cc = Space.constraints_for space c in
      (* generate runs the analysis and checker hard gates itself; a
         front point that cannot pass them raises here. *)
      let d =
        Design_cache.generate_with_lanes ~tiling_enabled:c.Space.tiling cc
          net ~lanes:c.Space.lanes
      in
      Db_core.Checker.gate d;
      Alcotest.(check int) "no analysis errors" 0
        (List.length (Db_analysis.Diagnostic.errors (Design.analyze d)));
      Alcotest.(check bool) "fits the base budget" true
        (Resource.fits (Design.resource_usage d)
           ~within:cons.Constraints.budget))
    res.Explore.r_front

let test_select_no_worse_than_search () =
  let cons = default_cons () and net = ann0 () in
  let picked = Config_search.select cons (lowered cons net) in
  let d =
    Design_cache.generate_with_lanes cons net
      ~lanes:picked.Config_search.datapath.Db_sched.Datapath.lanes
  in
  let search_cycles =
    (Db_sim.Simulator.timing d).Db_sim.Simulator.total_cycles
  in
  let e = Explore.select cons net in
  Alcotest.(check bool) "explorer select at least matches the search" true
    (e.Explore.e_objective.Objective.cycles
    <= float_of_int search_cycles)

(* ---------------------------------------------------------------- *)
(* Config_search dominance refinement                               *)

let test_search_refines_padded_pick () =
  (* Three 90-wide layers under a 20-DSP cap: the first-fit walk stops at
     20 lanes (ceil (90/20) = 5 folds, 10 lanes of padding in the last),
     but 18 lanes run the identical 5-fold schedule behind the same
     16-word port on strictly fewer resources. *)
  let net =
    Db_nn.Caffe.import_string
      (Db_workloads.Model_zoo.ann_prototxt ~name:"wide90" ~inputs:4
         ~hidden1:90 ~hidden2:90 ~outputs:90)
  in
  let base = default_cons () in
  let cons =
    {
      base with
      Constraints.budget =
        { base.Constraints.budget with Resource.dsps = 20 };
    }
  in
  let g = lowered cons net in
  let picked = Config_search.search cons g in
  Alcotest.(check int) "refined to the fold-preserving lane count" 18
    picked.Config_search.datapath.Db_sched.Datapath.lanes;
  let first = Config_search.evaluate cons g ~lanes:20 in
  Alcotest.(check int) "identical schedule length"
    (Db_sched.Schedule.fold_count first.Config_search.schedule)
    (Db_sched.Schedule.fold_count picked.Config_search.schedule);
  Alcotest.(check int) "identical port width"
    first.Config_search.datapath.Db_sched.Datapath.port_words
    picked.Config_search.datapath.Db_sched.Datapath.port_words;
  let r_first = first.Config_search.block_set.Db_core.Block_set.total in
  let r_picked = picked.Config_search.block_set.Db_core.Block_set.total in
  Alcotest.(check bool) "refined point strictly dominates" true
    (Objective.dominates
       ~axes:Objective.[ Luts; Ffs; Dsps; Bram_bits ]
       (Objective.of_resources r_picked)
       (Objective.of_resources r_first))

(* ---------------------------------------------------------------- *)
(* Zoo RTL byte-identity pin                                        *)

let zoo_sources = Db_workloads.Model_zoo.named

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The whole zoo under the default constraint script, RTL digested and
   compared against the committed pin: the regression guard that the
   dominance refinement (and any future search change) never silently
   moves a shipped design. *)
let test_zoo_rtl_pinned () =
  let golden =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ name; digest ] -> Some (name, digest)
        | _ -> None)
      (String.split_on_char '\n'
         (read_file (Filename.concat "golden_ir" "zoo_rtl.md5")))
  in
  let cons = default_cons () in
  List.iter
    (fun (name, src) ->
      let net = Db_nn.Caffe.import_string src in
      let d = Design_cache.generate cons net in
      let digest = Digest.to_hex (Digest.string (Design.verilog d)) in
      match List.assoc_opt name golden with
      | None -> Alcotest.failf "%s missing from golden_ir/zoo_rtl.md5" name
      | Some expected ->
          Alcotest.(check string) (name ^ " RTL digest") expected digest)
    zoo_sources

let suite =
  [
    ( "dse.archive",
      [
        Alcotest.test_case "pareto front" `Quick test_archive_is_pareto_front;
        Alcotest.test_case "verdicts" `Quick test_archive_verdicts;
      ] );
    ( "dse.explore",
      [
        Alcotest.test_case "jobs=1 = jobs=4" `Quick
          test_explore_jobs_identical;
        Alcotest.test_case "front passes gates" `Quick
          test_front_regenerates_through_gates;
        Alcotest.test_case "select vs search" `Quick
          test_select_no_worse_than_search;
      ] );
    ( "dse.config-search",
      [
        Alcotest.test_case "dominance refinement" `Quick
          test_search_refines_padded_pick;
        Alcotest.test_case "zoo rtl pinned" `Slow test_zoo_rtl_pinned;
      ] );
  ]
