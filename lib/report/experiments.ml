module Benchmarks = Db_workloads.Benchmarks
module Design = Db_core.Design
module Design_cache = Db_core.Design_cache
module Constraints = Db_core.Constraints
module Simulator = Db_sim.Simulator
module Resource = Db_fpga.Resource
module Tensor = Db_tensor.Tensor
module Pool = Db_parallel.Pool

type run_config = {
  seed : int;
  benchmarks : string list;
  accuracy_samples : int option;
}

let all_names = List.map (fun b -> b.Benchmarks.bench_name) Benchmarks.all

(* The sampled default keeps the fig10 accuracy sweep to a prefix of each
   benchmark's eval set: the full sweep replays every eval input through
   the simulator and used to dominate the whole bench run.  [full_config]
   restores the complete sweep (the nightly CI job and `--full`). *)
let default_accuracy_samples = 12

let default_config =
  { seed = 42; benchmarks = all_names;
    accuracy_samples = Some default_accuracy_samples }

let full_config = { default_config with accuracy_samples = None }

let quick_config =
  {
    seed = 42;
    benchmarks =
      List.filter (fun n -> n <> "Alexnet" && n <> "NiN") all_names;
    accuracy_samples = Some default_accuracy_samples;
  }

let selected config =
  List.map Benchmarks.find
    (List.filter (fun n -> List.mem n config.benchmarks) all_names)

(* --- Table 1 ----------------------------------------------------------- *)

type table1_row = { t1_model : string; t1_decomp : Db_nn.Model_stats.decomposition }

let table1 () =
  List.map
    (fun (name, net) ->
      { t1_model = name; t1_decomp = Db_nn.Model_stats.decompose net })
    Db_workloads.Model_zoo.table1_models

let mark b = if b then "yes" else "-"

let render_table1 rows =
  let headers =
    "Layer class" :: List.map (fun r -> r.t1_model) rows
  in
  let feature name get =
    name :: List.map (fun r -> mark (get r.t1_decomp)) rows
  in
  Table.render ~headers
    ~rows:
      [
        feature "Conv. Layer" (fun d -> d.Db_nn.Model_stats.has_conv);
        feature "FC Layer" (fun d -> d.Db_nn.Model_stats.has_fc);
        feature "Act-Func" (fun d -> d.Db_nn.Model_stats.has_act);
        feature "Drop-Out" (fun d -> d.Db_nn.Model_stats.has_dropout);
        feature "LRN" (fun d -> d.Db_nn.Model_stats.has_lrn);
        feature "Pooling" (fun d -> d.Db_nn.Model_stats.has_pooling);
        feature "Associative" (fun d -> d.Db_nn.Model_stats.has_associative);
        feature "Recurrent" (fun d -> d.Db_nn.Model_stats.has_recurrent);
      ]

(* --- Table 2 ----------------------------------------------------------- *)

type table2_row = {
  t2_name : string;
  t2_conv : bool;
  t2_fc : bool;
  t2_rec : bool;
  t2_application : string;
}

let table2 () =
  List.map
    (fun b ->
      let d = Db_nn.Model_stats.decompose b.Benchmarks.network in
      {
        t2_name = b.Benchmarks.bench_name;
        t2_conv = d.Db_nn.Model_stats.has_conv;
        t2_fc = d.Db_nn.Model_stats.has_fc;
        t2_rec = d.Db_nn.Model_stats.has_recurrent;
        t2_application = b.Benchmarks.application;
      })
    Benchmarks.all

let render_table2 rows =
  Table.render
    ~headers:[ "Benchmark"; "Conv"; "FC."; "Rec."; "Application" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.t2_name; mark r.t2_conv; mark r.t2_fc; mark r.t2_rec; r.t2_application ])
         rows)

(* --- Budget points ------------------------------------------------------ *)

let constraints_for ~budget (b : Benchmarks.t) =
  match budget with
  | `Db -> Constraints.with_dsp_cap Constraints.db_medium b.Benchmarks.dsp_cap
  | `Db_l ->
      let cap =
        if b.Benchmarks.bench_name = "Alexnet" then Benchmarks.alexnet_l_dsp_cap
        else 16 * b.Benchmarks.dsp_cap
      in
      Constraints.with_dsp_cap Constraints.db_large cap
  | `Db_s ->
      Constraints.with_dsp_cap Constraints.db_small
        (Stdlib.max 1 (b.Benchmarks.dsp_cap / 2))

let design_for ?(budget = `Db) (b : Benchmarks.t) =
  Design_cache.generate (constraints_for ~budget b) b.Benchmarks.network

(* --- Fig. 8 / Fig. 9 ---------------------------------------------------- *)

type perf_row = {
  p_name : string;
  p_cpu_s : float;
  p_custom_s : float;
  p_db_s : float;
  p_db_l_s : float;
  p_db_s_s : float;
  p_zhang_s : float option;
  e_cpu_j : float;
  e_custom_j : float;
  e_db_j : float;
  e_db_l_j : float;
  e_db_s_j : float;
  e_zhang_j : float option;
}

let fig8_fig9 config =
  Pool.map_list
    (fun b ->
      let cpu = Db_baseline.Cpu_model.xeon_2_4ghz in
      let cpu_s = Db_baseline.Cpu_model.forward_seconds cpu b.Benchmarks.network in
      let run budget =
        let design = design_for ~budget b in
        Simulator.timing design
      in
      let design_db = design_for ~budget:`Db b in
      let db = Simulator.timing design_db in
      let db_l = run `Db_l in
      let db_s = run `Db_s in
      let custom = Db_baseline.Custom.of_design design_db db in
      let is_alexnet = b.Benchmarks.bench_name = "Alexnet" in
      {
        p_name = b.Benchmarks.bench_name;
        p_cpu_s = cpu_s;
        p_custom_s = custom.Db_baseline.Custom.custom_seconds;
        p_db_s = db.Simulator.seconds;
        p_db_l_s = db_l.Simulator.seconds;
        p_db_s_s = db_s.Simulator.seconds;
        p_zhang_s =
          (if is_alexnet then Some Db_baseline.Zhang_fpga15.alexnet_seconds
           else None);
        e_cpu_j = cpu_s *. cpu.Db_baseline.Cpu_model.active_power_w;
        e_custom_j = custom.Db_baseline.Custom.custom_energy_j;
        e_db_j = db.Simulator.energy_j;
        e_db_l_j = db_l.Simulator.energy_j;
        e_db_s_j = db_s.Simulator.energy_j;
        e_zhang_j =
          (if is_alexnet then Some Db_baseline.Zhang_fpga15.alexnet_energy_j
           else None);
      })
    (selected config)

let render_fig8 rows =
  Table.render
    ~headers:[ "Benchmark"; "CPU"; "Custom"; "DB"; "DB-L"; "DB-S"; "[7]" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.p_name;
             Table.ms r.p_cpu_s;
             Table.ms r.p_custom_s;
             Table.ms r.p_db_s;
             Table.ms r.p_db_l_s;
             Table.ms r.p_db_s_s;
             (match r.p_zhang_s with Some s -> Table.ms s | None -> "-");
           ])
         rows)

let render_fig9 rows =
  Table.render
    ~headers:[ "Benchmark"; "CPU"; "Custom"; "DB"; "DB-L"; "DB-S"; "[7]" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.p_name;
             Table.joules r.e_cpu_j;
             Table.joules r.e_custom_j;
             Table.joules r.e_db_j;
             Table.joules r.e_db_l_j;
             Table.joules r.e_db_s_j;
             (match r.e_zhang_j with Some j -> Table.joules j | None -> "-");
           ])
         rows)

(* --- Fig. 10 ------------------------------------------------------------ *)

type accuracy_row = { a_name : string; a_cpu : float; a_db : float }

let fig10 config =
  Pool.map_list
    (fun b ->
      let prepared = Benchmarks.prepare_cached b ~seed:config.seed in
      let net = prepared.Benchmarks.accuracy_network in
      let blob = prepared.Benchmarks.input_blob in
      (* Sampled sweeps score a prefix of the eval set; both
         implementations see the same inputs so the delta stays honest. *)
      let eval_inputs =
        match config.accuracy_samples with
        | Some n when n < Array.length prepared.Benchmarks.eval_inputs ->
            Array.sub prepared.Benchmarks.eval_inputs 0 n
        | Some _ | None -> prepared.Benchmarks.eval_inputs
      in
      let graph = Db_ir.Lower.lower net in
      let cpu_outputs =
        Array.map
          (fun input ->
            Db_ir.Interp.output graph prepared.Benchmarks.params
              ~inputs:[ (blob, input) ])
          eval_inputs
      in
      (* The accuracy design is generated for the accuracy network (the
         trainable stand-in for the ImageNet-scale models). *)
      let cons =
        Constraints.with_dsp_cap Constraints.db_medium b.Benchmarks.dsp_cap
      in
      let design = Design_cache.generate cons net in
      (* One batched playback: the trace is compiled and the parameters
         quantized once for the whole eval set, instead of once per
         sample. *)
      let db_outputs =
        Array.of_list
          (Simulator.functional_output_batch design
             prepared.Benchmarks.params
             ~batch:
               (Array.to_list
                  (Array.map (fun input -> [ (blob, input) ]) eval_inputs)))
      in
      {
        a_name = b.Benchmarks.bench_name;
        a_cpu = Benchmarks.accuracy_percent_prefix prepared cpu_outputs;
        a_db = Benchmarks.accuracy_percent_prefix prepared db_outputs;
      })
    (selected config)

let render_fig10 rows =
  Table.render
    ~headers:[ "Benchmark"; "CPU (float NN)"; "DeepBurning"; "delta" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.a_name;
             Table.percent r.a_cpu;
             Table.percent r.a_db;
             Printf.sprintf "%+.2f%%" (r.a_db -. r.a_cpu);
           ])
         rows)

(* --- Table 3 ------------------------------------------------------------ *)

type resource_row = {
  r_name : string;
  r_custom : Resource.t;
  r_db : Resource.t;
}

let table3 config =
  let rows =
    Pool.map_list
      (fun b ->
        let design = design_for ~budget:`Db b in
        let db = Design.resource_usage design in
        let report = Simulator.timing design in
        let custom = Db_baseline.Custom.of_design design report in
        {
          r_name = b.Benchmarks.bench_name;
          r_custom = custom.Db_baseline.Custom.custom_resources;
          r_db = db;
        })
      (selected config)
  in
  if List.mem "Alexnet" config.benchmarks then begin
    let b = Benchmarks.find "Alexnet" in
    let design = design_for ~budget:`Db_l b in
    rows
    @ [
        {
          r_name = "Alexnet-L";
          r_custom = Resource.zero;
          r_db = Design.resource_usage design;
        };
      ]
  end
  else rows

let render_table3 rows =
  Table.render
    ~headers:[ "Benchmark"; "DSP CU"; "DSP DB"; "LUT CU"; "LUT DB"; "FF CU"; "FF DB" ]
    ~rows:
      (List.map
         (fun r ->
           let cu f = if r.r_custom = Resource.zero then "-" else string_of_int (f r.r_custom) in
           [
             r.r_name;
             cu (fun x -> x.Resource.dsps);
             string_of_int r.r_db.Resource.dsps;
             cu (fun x -> x.Resource.luts);
             string_of_int r.r_db.Resource.luts;
             cu (fun x -> x.Resource.ffs);
             string_of_int r.r_db.Resource.ffs;
           ])
         rows)

(* --- Training acceleration ----------------------------------------------- *)

type training_row = {
  tr_name : string;
  tr_cpu_sps : float;
  tr_db_sps : float;
  tr_db_l_sps : float;
}

(* One SGD step per benchmark and budget, priced by [Train_sim] on the
   training accelerator ([Train_builder]) that shares the budget's design. *)
let training config =
  let cpu = Db_baseline.Cpu_model.xeon_2_4ghz in
  Pool.map_list
    (fun b ->
      let sps budget =
        let tb =
          Db_core.Train_builder.build (constraints_for ~budget b)
            b.Benchmarks.network
        in
        Db_sim.Train_sim.steps_per_second tb (Db_sim.Train_sim.compile_trace tb)
      in
      {
        tr_name = b.Benchmarks.bench_name;
        tr_cpu_sps =
          1.0
          /. Db_baseline.Cpu_model.training_iteration_seconds cpu
               b.Benchmarks.network;
        tr_db_sps = sps `Db;
        tr_db_l_sps = sps `Db_l;
      })
    (selected config)

(* Whole steps per second above 10, two significant digits below: the
   large networks take several seconds per step. *)
let step_rate r =
  if r >= 10.0 then Printf.sprintf "%.0f" r else Printf.sprintf "%.2g" r

let render_training rows =
  Table.render
    ~headers:[ "Benchmark"; "CPU it/s"; "DB it/s"; "DB-L it/s"; "DB-L vs CPU" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.tr_name;
             step_rate r.tr_cpu_sps;
             step_rate r.tr_db_sps;
             step_rate r.tr_db_l_sps;
             Table.ratio (r.tr_db_l_sps /. r.tr_cpu_sps);
           ])
         rows)

(* --- Batch throughput ----------------------------------------------------- *)

type throughput_row = {
  th_name : string;
  th_single_ms : float;
  th_batch_ips : float;
  th_pipeline_gain : float;
}

let throughput config =
  Pool.map_list
    (fun b ->
      let design = design_for ~budget:`Db b in
      let single = Simulator.timing design in
      let batch = Simulator.batch_timing ~batch:32 design in
      {
        th_name = b.Benchmarks.bench_name;
        th_single_ms = single.Simulator.seconds *. 1e3;
        th_batch_ips = batch.Simulator.images_per_second;
        th_pipeline_gain = batch.Simulator.speedup_over_serial;
      })
    (selected config)

let render_throughput rows =
  Table.render
    ~headers:[ "Benchmark"; "single image"; "batch-32 throughput"; "pipeline gain" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.th_name;
             Table.ms (r.th_single_ms /. 1e3);
             Printf.sprintf "%.0f images/s" r.th_batch_ips;
             Table.ratio r.th_pipeline_gain;
           ])
         rows)

(* --- Summary ------------------------------------------------------------ *)

type summary = {
  max_speedup_vs_cpu : float;
  geomean_speedup_vs_cpu : float;
  avg_energy_saving_vs_cpu : float;
  db_l_speedup_over_db : float;
  db_energy_vs_custom : float;
  mean_accuracy_delta : float;
}

let summarise perf accuracy =
  let speedups =
    Array.of_list (List.map (fun r -> r.p_cpu_s /. r.p_db_s) perf)
  in
  let energy_savings =
    Array.of_list (List.map (fun r -> r.e_cpu_j /. r.e_db_j) perf)
  in
  let db_l_gain =
    Array.of_list (List.map (fun r -> r.p_db_s /. r.p_db_l_s) perf)
  in
  let energy_vs_custom =
    Array.of_list (List.map (fun r -> r.e_db_j /. r.e_custom_j) perf)
  in
  let deltas =
    Array.of_list (List.map (fun r -> Float.abs (r.a_db -. r.a_cpu)) accuracy)
  in
  {
    max_speedup_vs_cpu = snd (Db_util.Stats.min_max speedups);
    geomean_speedup_vs_cpu = Db_util.Stats.geomean speedups;
    avg_energy_saving_vs_cpu = Db_util.Stats.geomean energy_savings;
    db_l_speedup_over_db = Db_util.Stats.geomean db_l_gain;
    db_energy_vs_custom = Db_util.Stats.geomean energy_vs_custom;
    mean_accuracy_delta =
      (if Array.length deltas = 0 then 0.0 else Db_util.Stats.mean deltas);
  }

let render_summary s =
  String.concat "\n"
    [
      Printf.sprintf "max DB speed-up vs CPU        : %s (paper: up to 4.7x)"
        (Table.ratio s.max_speedup_vs_cpu);
      Printf.sprintf "geomean DB speed-up vs CPU    : %s"
        (Table.ratio s.geomean_speedup_vs_cpu);
      Printf.sprintf
        "avg energy saving vs CPU      : %s (paper: >90%% saving, i.e. >10x)"
        (Table.ratio s.avg_energy_saving_vs_cpu);
      Printf.sprintf "DB-L speed-up over DB         : %s (paper: ~3.5x)"
        (Table.ratio s.db_l_speedup_over_db);
      Printf.sprintf "DB energy vs Custom           : %s (paper: ~1.8x)"
        (Table.ratio s.db_energy_vs_custom);
      Printf.sprintf
        "mean |accuracy delta| vs CPU  : %.2f%% (paper: ~1.5%% variation)"
        s.mean_accuracy_delta;
      "";
    ]

(* --- Ablations ----------------------------------------------------------- *)

let ablation_tiling config =
  (* End-to-end time barely moves (conv is compute-bound at <=144 MACs per
     cycle), so the honest comparison is the DRAM-busy cycle count, which
     tiling directly attacks.  Only benchmarks whose feature maps spill the
     on-chip buffer appear. *)
  let dram_busy design =
    let report = Simulator.timing design in
    float_of_int
      (List.fold_left
         (fun acc l -> acc + l.Simulator.lr_memory_cycles)
         0 report.Simulator.per_layer)
  in
  List.filter_map Fun.id
    (Pool.map_list
       (fun b ->
         let cons =
           Constraints.with_dsp_cap Constraints.db_medium b.Benchmarks.dsp_cap
         in
         let with_tiling =
           Design_cache.generate ~tiling_enabled:true cons b.Benchmarks.network
         in
         let without =
           Design_cache.generate ~tiling_enabled:false cons
             b.Benchmarks.network
         in
         let m_with = dram_busy with_tiling and m_without = dram_busy without in
         if m_with = m_without then None
         else Some (b.Benchmarks.bench_name, m_with, m_without))
       (selected config))

let render_ablation_tiling rows =
  Table.render
    ~headers:
      [ "Benchmark"; "DRAM cycles (Method-1)"; "DRAM cycles (row-major)"; "extra traffic" ]
    ~rows:
      (List.map
         (fun (name, w, wo) ->
           [
             name;
             Printf.sprintf "%.0f" w;
             Printf.sprintf "%.0f" wo;
             Table.ratio (wo /. w);
           ])
         rows)

let ablation_lut ~entries_list =
  List.map
    (fun entries ->
      let sig_lut = Db_blocks.Approx_lut.sigmoid ~entries in
      let tanh_lut = Db_blocks.Approx_lut.tanh_lut ~entries in
      ( entries,
        Db_blocks.Approx_lut.max_error sig_lut
          ~f:(fun x -> 1.0 /. (1.0 +. exp (-.x)))
          ~probes:4096,
        Db_blocks.Approx_lut.max_error tanh_lut ~f:Float.tanh ~probes:4096 ))
    entries_list

let render_ablation_lut rows =
  Table.render
    ~headers:[ "LUT entries"; "sigmoid max err"; "tanh max err" ]
    ~rows:
      (List.map
         (fun (n, es, et) ->
           [ string_of_int n; Printf.sprintf "%.5f" es; Printf.sprintf "%.5f" et ])
         rows)

let ablation_lanes ~benchmark ~lanes_list =
  let b = Benchmarks.find benchmark in
  let cons = Constraints.db_large in
  Pool.map_list
    (fun lanes ->
      let design =
        Design_cache.generate_with_lanes cons b.Benchmarks.network ~lanes
      in
      let report = Simulator.timing design in
      ( lanes,
        report.Simulator.seconds,
        (Design.resource_usage design).Resource.luts ))
    lanes_list

let render_ablation_lanes rows =
  Table.render
    ~headers:[ "Lanes"; "forward time"; "LUTs" ]
    ~rows:
      (List.map
         (fun (lanes, s, luts) ->
           [ string_of_int lanes; Table.ms s; string_of_int luts ])
         rows)

let ablation_fixed_point config ~widths =
  Pool.map_list
    (fun b ->
      let prepared = Benchmarks.prepare_cached b ~seed:config.seed in
      let net = prepared.Benchmarks.accuracy_network in
      let blob = prepared.Benchmarks.input_blob in
      let per_width =
        List.map
          (fun (total_bits, frac_bits) ->
            let fmt = Db_fixed.Fixed.format ~total_bits ~frac_bits in
            let outputs =
              Array.map
                (fun input ->
                  Db_nn.Quantized.output ~fmt net prepared.Benchmarks.params
                    ~inputs:[ (blob, input) ])
                prepared.Benchmarks.eval_inputs
            in
            (total_bits, Benchmarks.accuracy_percent prepared outputs))
          widths
      in
      (b.Benchmarks.bench_name, per_width))
    (selected config)

let render_ablation_fixed_point rows =
  match rows with
  | [] -> "no benchmarks selected\n"
  | (_, first) :: _ ->
      Table.render
        ~headers:
          ("Benchmark"
          :: List.map (fun (bits, _) -> Printf.sprintf "%d-bit" bits) first)
        ~rows:
          (List.map
             (fun (name, per_width) ->
               name :: List.map (fun (_, acc) -> Table.percent acc) per_width)
             rows)
