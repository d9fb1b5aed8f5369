(* Design-space exploration: the reason the paper argues for FPGAs + a
   generator in the first place.  For one model, sweep the lane count and
   the three budget presets, and print the latency/resource Pareto the
   designer would choose from.

   Run with: dune exec examples/design_space.exe *)

module Experiments = Db_report.Experiments
module Benchmarks = Db_workloads.Benchmarks
module Resource = Db_fpga.Resource

let () =
  print_endline "Design-space exploration for the MNIST-class CNN\n";
  let bench = Benchmarks.find "MNIST" in

  (* Lane sweep at a roomy budget: the spatial-folding Pareto. *)
  print_endline "lane sweep (spatial folding):";
  let rows =
    List.map
      (fun lanes ->
        let design =
          Db_core.Generator.generate_with_lanes Db_core.Constraints.db_large
            bench.Benchmarks.network ~lanes
        in
        let report = Db_sim.Simulator.timing design in
        let used = Db_core.Design.resource_usage design in
        [
          string_of_int lanes;
          Db_report.Table.ms report.Db_sim.Simulator.seconds;
          string_of_int used.Resource.dsps;
          string_of_int used.Resource.luts;
          string_of_int used.Resource.ffs;
          Printf.sprintf "%.2f"
            (report.Db_sim.Simulator.effective_gmacs
            /. float_of_int (Stdlib.max 1 used.Resource.dsps));
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  print_string
    (Db_report.Table.render
       ~headers:[ "lanes"; "latency"; "DSP"; "LUT"; "FF"; "GMAC/s/DSP" ]
       ~rows);

  (* The paper's three budget points. *)
  print_endline "\nbudget presets (the paper's DB / DB-L / DB-S):";
  let preset_rows =
    List.map
      (fun (label, budget) ->
        let design = Experiments.design_for ~budget bench in
        let report = Db_sim.Simulator.timing design in
        let used = Db_core.Design.resource_usage design in
        [
          label;
          design.Db_core.Design.constraints.Db_core.Constraints.device
            .Db_fpga.Device.device_name;
          Db_report.Table.ms report.Db_sim.Simulator.seconds;
          Db_report.Table.joules report.Db_sim.Simulator.energy_j;
          string_of_int used.Resource.dsps;
          string_of_int used.Resource.luts;
        ])
      [ ("DB", `Db); ("DB-L", `Db_l); ("DB-S", `Db_s) ]
  in
  print_string
    (Db_report.Table.render
       ~headers:[ "preset"; "device"; "latency"; "energy"; "DSP"; "LUT" ]
       ~rows:preset_rows);

  (* The explorer condenses the sweep into the decision a designer makes:
     every front point fits the DB budget, so the fastest one is the pick. *)
  let config =
    {
      Db_dse.Explore.default_config with
      Db_dse.Explore.budget = 16;
      axes = [ Db_core.Objective.Latency_s; Db_core.Objective.Luts ];
    }
  in
  let result =
    Db_dse.Explore.explore ~config Db_core.Constraints.db_medium
      bench.Benchmarks.network
  in
  let latency e = e.Db_dse.Explore.e_objective.Db_core.Objective.latency_s in
  let frontier =
    List.sort (fun a b -> compare (latency a) (latency b))
      result.Db_dse.Explore.r_front
  in
  let lanes e = e.Db_dse.Explore.e_candidate.Db_dse.Space.lanes in
  Printf.printf "\nPareto frontier (latency vs LUTs): %s\n"
    (String.concat ", "
       (List.map
          (fun e ->
            Printf.sprintf "%d lanes (%s, %.0f LUTs)" (lanes e)
              (Db_report.Table.ms (latency e))
              e.Db_dse.Explore.e_objective.Db_core.Objective.luts)
          frontier));
  (match frontier with
  | best :: _ ->
      Printf.printf "fastest point inside the DB budget: %d lanes\n" (lanes best)
  | [] -> print_endline "no point fits the DB budget");

  print_endline
    "\nNN-Gen picks the widest datapath that fits each budget; the sweep\n\
     above is what a designer would otherwise have explored by hand."
