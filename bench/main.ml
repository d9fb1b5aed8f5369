(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Section 4), the headline summary, the design-choice
   ablations from DESIGN.md, and a Bechamel micro-benchmark group (one
   Test.make per table/figure) measuring the harness itself.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig8 table3  # selected sections
     dune exec bench/main.exe -- quick        # skip AlexNet/NiN scale
     dune exec bench/main.exe -- full fig10   # unsampled fig10 (nightly)
   Sections: table1 table2 fig8 fig9 fig10 table3 summary training
             throughput ablation-tiling ablation-lut ablation-lanes
             ablation-fixed faults report bechamel json
   (report writes RESULTS.md, json writes BENCH.json; both re-run whole
   experiments and are skipped by the default run) *)

module Experiments = Db_report.Experiments
module Minijson = Db_util.Minijson

let section_header title = Printf.printf "\n=== %s ===\n\n%!" title

let quick = ref false

let full = ref false

(* Where the [json] section writes its output; CI redirects this with
   `--out` so the committed BENCH.json baseline stays untouched. *)
let json_out = ref "BENCH.json"

let config () =
  if !quick then Experiments.quick_config
  else if !full then Experiments.full_config
  else Experiments.default_config

(* fig8/fig9 share the generation+simulation work; memoise per run. *)
let perf_rows : Experiments.perf_row list option ref = ref None

let get_perf () =
  match !perf_rows with
  | Some rows -> rows
  | None ->
      let rows = Experiments.fig8_fig9 (config ()) in
      perf_rows := Some rows;
      rows

let accuracy_rows : Experiments.accuracy_row list option ref = ref None

let get_accuracy () =
  match !accuracy_rows with
  | Some rows -> rows
  | None ->
      let rows = Experiments.fig10 (config ()) in
      accuracy_rows := Some rows;
      rows

let run_table1 () =
  section_header "Table 1: decomposition of the typical neural networks";
  print_string (Experiments.render_table1 (Experiments.table1 ()))

let run_table2 () =
  section_header "Table 2: benchmarks";
  print_string (Experiments.render_table2 (Experiments.table2 ()))

let run_fig8 () =
  section_header "Fig. 8: performance comparison (forward-propagation time)";
  print_string (Experiments.render_fig8 (get_perf ()))

let run_fig9 () =
  section_header "Fig. 9: energy comparison";
  print_string (Experiments.render_fig9 (get_perf ()))

let run_fig10 () =
  section_header "Fig. 10: accuracy comparison";
  print_string (Experiments.render_fig10 (get_accuracy ()))

let run_table3 () =
  section_header "Table 3: hardware resource occupation";
  print_string (Experiments.render_table3 (Experiments.table3 (config ())))

let run_summary () =
  section_header "Headline summary (paper's claimed relations)";
  print_string
    (Experiments.render_summary
       (Experiments.summarise (get_perf ()) (get_accuracy ())))

let run_training () =
  section_header
    "Training acceleration (the intro's model-search motivation)";
  print_string (Experiments.render_training (Experiments.training (config ())))

let run_throughput () =
  section_header "Batch throughput (pipelined processing of an input set)";
  print_string (Experiments.render_throughput (Experiments.throughput (config ())))

let run_ablation_tiling () =
  section_header "Ablation: Method-1 data tiling on vs off";
  let rows = Experiments.ablation_tiling (config ()) in
  if rows = [] then
    print_string
      "all selected benchmarks fit on-chip; tiling has no effect at this scale\n"
  else print_string (Experiments.render_ablation_tiling rows)

let run_ablation_lut () =
  section_header "Ablation: Approx LUT size vs approximation error";
  print_string
    (Experiments.render_ablation_lut
       (Experiments.ablation_lut
          ~entries_list:[ 16; 32; 64; 128; 256; 512; 1024 ]))

let run_ablation_lanes () =
  section_header "Ablation: spatial-folding lane sweep (MNIST)";
  print_string
    (Experiments.render_ablation_lanes
       (Experiments.ablation_lanes ~benchmark:"MNIST"
          ~lanes_list:[ 1; 2; 4; 8; 16 ]))

let run_ablation_fixed () =
  section_header "Ablation: fixed-point width vs accuracy";
  let cfg =
    {
      (config ()) with
      Experiments.benchmarks =
        List.filter
          (fun n -> n <> "Alexnet" && n <> "NiN")
          (config ()).Experiments.benchmarks;
    }
  in
  print_string
    (Experiments.render_ablation_fixed_point
       (Experiments.ablation_fixed_point cfg
          ~widths:[ (8, 4); (12, 6); (16, 8); (24, 12) ]))

(* The fault-campaign benchmark setup, shared by the [faults] section and
   the BENCH.json writer: a seeded single-bit SEU sweep over the ANN-0
   accelerator (fresh Xavier weights; trained ones would only change the
   outcomes, not the cost per injection). *)
let fault_bench_setup () =
  let cfg = config () in
  let bench = Db_workloads.Benchmarks.find "ANN-0" in
  let design = Experiments.design_for bench in
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create cfg.Experiments.seed in
  let params = Db_nn.Params.init_xavier rng net in
  let input_blob, shape = Db_nn.Network.first_input net in
  let inputs =
    Array.init 4 (fun _ ->
        Db_tensor.Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0)
  in
  (design, params, input_blob, inputs)

let fault_bench_trials () = if !quick then 150 else 400

let run_fault_campaign engine =
  let design, params, input_blob, inputs = fault_bench_setup () in
  Db_fault.Campaign.run ~design ~params ~input_blob ~inputs
    {
      Db_fault.Campaign.default_config with
      Db_fault.Campaign.trials = fault_bench_trials ();
      cycle_budget = 20_000;
      rates = [ 1e-4 ];
      engine;
    }

let run_faults () =
  section_header "Fault-campaign engine A/B (ANN-0 SEU sweep)";
  let trials = fault_bench_trials () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  ignore (fault_bench_setup ());
  let spec, spec_s = time (fun () -> run_fault_campaign Db_fault.Campaign.Specialized) in
  let gen, gen_s = time (fun () -> run_fault_campaign Db_fault.Campaign.Generic) in
  let ips s = float_of_int trials /. s in
  Printf.printf
    "specialized: %d trials in %.4fs (%.0f injections/s)\n\
     generic:     %d trials in %.4fs (%.0f injections/s)\n\
     speedup:     %.2fx (outcomes %s)\n"
    trials spec_s (ips spec_s) trials gen_s (ips gen_s) (gen_s /. spec_s)
    (if
       Db_fault.Campaign.render_json spec = Db_fault.Campaign.render_json gen
     then "identical"
     else "DIVERGED")

let run_report () =
  section_header "Writing RESULTS.md (generated markdown report)";
  Db_report.Report_writer.write ~path:"RESULTS.md" (config ());
  Printf.printf "wrote %s/RESULTS.md\n" (Sys.getcwd ())

let bechamel_rows () =
  let open Bechamel in
  let cfg_small =
    {
      Experiments.seed = 42;
      benchmarks = [ "ANN-0"; "CMAC" ];
      accuracy_samples = Experiments.default_config.Experiments.accuracy_samples;
    }
  in
  let bench_of name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"deepburning"
      [
        bench_of "table1" (fun () -> ignore (Experiments.table1 ()));
        bench_of "table2" (fun () -> ignore (Experiments.table2 ()));
        bench_of "fig8-fig9" (fun () -> ignore (Experiments.fig8_fig9 cfg_small));
        bench_of "table3" (fun () -> ignore (Experiments.table3 cfg_small));
        bench_of "generate-ann0" (fun () ->
            ignore
              (Experiments.design_for (Db_workloads.Benchmarks.find "ANN-0")));
        bench_of "simulate-mnist" (fun () ->
            ignore
              (Db_sim.Simulator.timing
                 (Experiments.design_for (Db_workloads.Benchmarks.find "MNIST"))));
        (* Observability A/B: the same cold generation with the obs layer
           disabled (its permanent cost: one flag branch per call site) and
           enabled (spans + counters recorded).  The disabled run is what
           the regression gate holds to the committed baseline. *)
        bench_of "generate-ann0-cold" (fun () ->
            Db_core.Design_cache.clear ();
            ignore
              (Experiments.design_for (Db_workloads.Benchmarks.find "ANN-0")));
        bench_of "generate-ann0-cold-traced" (fun () ->
            Db_core.Design_cache.clear ();
            Db_obs.Obs.set_enabled true;
            ignore
              (Experiments.design_for (Db_workloads.Benchmarks.find "ANN-0"));
            Db_obs.Obs.set_enabled false;
            Db_obs.Obs.reset ());
      ]
  in
  let benchmark_cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw =
    Benchmark.all benchmark_cfg [ Toolkit.Instance.monotonic_clock ] tests
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> Some est
        | Some [] | None -> None
      in
      rows := (name, ns) :: !rows)
    results;
  List.sort compare !rows

let run_bechamel () =
  section_header "Bechamel micro-benchmarks (harness regeneration latency)";
  print_string
    (Db_report.Table.render
       ~headers:[ "benchmark"; "monotonic clock" ]
       ~rows:
         (List.map
            (fun (name, ns) ->
              [
                name;
                (match ns with
                | Some est -> Printf.sprintf "%.0f ns/run" est
                | None -> "n/a");
              ])
            (bechamel_rows ())))

(* --- BENCH.json: the perf trajectory for future PRs ---------------------- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One AlexNet-scale convolution, timed on the naive reference loops and on
   the im2col/GEMM path (identical results; see the equivalence tests). *)
let conv_micro (name, cin, hw, cout, k, pad, group) =
  let module Shape = Db_tensor.Shape in
  let module Tensor = Db_tensor.Tensor in
  let module Ops = Db_tensor.Ops in
  let rng = Db_util.Rng.create 7 in
  let input =
    Tensor.random_uniform rng
      (Shape.chw ~channels:cin ~height:hw ~width:hw)
      ~min:(-1.0) ~max:1.0
  in
  let weights =
    Tensor.random_uniform rng
      (Shape.of_list [ cout; cin / group; k; k ])
      ~min:(-1.0) ~max:1.0
  in
  let bias = Tensor.random_uniform rng (Shape.vector cout) ~min:(-1.0) ~max:1.0 in
  let padding = Ops.symmetric_padding pad in
  let _, naive_s =
    time (fun () ->
        Ops.conv2d_naive ~input ~weights ~bias:(Some bias) ~stride:1 ~padding
          ~group)
  in
  let _, gemm_s =
    time (fun () ->
        Ops.conv2d ~input ~weights ~bias:(Some bias) ~stride:1 ~padding ~group)
  in
  (name, naive_s, gemm_s)

(* Identify the producing tree so the regression checker can tell a stale
   baseline from a slow build. *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* Bumped whenever BENCH.json's shape changes; the checker warns on
   baselines from another schema rather than mis-reading them.  v3 adds
   the [sim_throughput] section (specialized-engine batched playback);
   v4 adds [serve_throughput] (daemon round-trips) and
   [store_persistence] (disk-store hits across a simulated restart);
   v5 adds [explore] (design-space exploration throughput and
   cache-dedupe rate); v6 adds [train_throughput] (training-mode
   hardware build, trace compilation and the on-chip SGD step rate). *)
let bench_schema_version = 6

(* On-chip training throughput on ANN-0: training-hardware assembly and
   trace-compilation wall-clock, plus the SGD step rate the compiled
   trace implies at the design's clock.  The step rate is a property of
   the cycle model, not of this machine, so the regression floor on it
   catches cost-model regressions rather than noisy hardware. *)
let train_throughput_micro () =
  let bench = Db_workloads.Benchmarks.find "ANN-0" in
  let cons = Db_core.Constraints.db_medium in
  let tb, build_s =
    time (fun () ->
        Db_core.Train_builder.build ~batch:16 cons
          bench.Db_workloads.Benchmarks.network)
  in
  let report, compile_s =
    time (fun () -> Db_sim.Train_sim.compile_trace tb)
  in
  (tb, report, build_s, compile_s)

(* Design-space exploration throughput on the MNIST accelerator: one cold
   exploration (every candidate generated), then the identical exploration
   again with the design cache warm — the second run's cost is dominated
   by lookups, which is the dedupe path repeated points take. *)
let explore_micro () =
  let net =
    Db_nn.Caffe.import_string Db_workloads.Model_zoo.mnist_prototxt
  in
  let cons =
    Db_core.Constraints.parse
      {|constraint { device: "zynq-7045" dsps: 16 luts: 60000 ffs: 40000 bram_kb: 1024 }|}
  in
  let config =
    {
      Db_dse.Explore.default_config with
      Db_dse.Explore.budget = (if !quick then 8 else 16);
      population = 8;
    }
  in
  let h0, m0 = Db_core.Design_cache.stats () in
  let res, cold_s = time (fun () -> Db_dse.Explore.explore ~config cons net) in
  let _, warm_s = time (fun () -> Db_dse.Explore.explore ~config cons net) in
  let h1, m1 = Db_core.Design_cache.stats () in
  (config, res, cold_s, warm_s, h1 - h0, m1 - m0)

(* Specialized-engine playback throughput on the MNIST accelerator: trace
   compilation cost, then the same input set replayed one sample at a time
   (per-call bind + quantize) versus through the batched entry point (one
   bind for the whole set). *)
let sim_throughput_micro () =
  let batch_n = 32 in
  let bench = Db_workloads.Benchmarks.find "MNIST" in
  let design = Experiments.design_for bench in
  let net = design.Db_core.Design.network in
  let rng = Db_util.Rng.create 7 in
  let params = Db_nn.Params.init_xavier rng net in
  let blob, shape = Db_nn.Network.first_input net in
  let inputs =
    Array.init batch_n (fun _ ->
        Db_tensor.Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0)
  in
  let _, compile_s = time (fun () -> Db_sim.Specialize.compile design) in
  let _, single_s =
    time (fun () ->
        Array.iter
          (fun input ->
            ignore
              (Db_sim.Simulator.functional_output design params
                 ~inputs:[ (blob, input) ]))
          inputs)
  in
  let _, batched_s =
    time (fun () ->
        ignore
          (Db_sim.Simulator.functional_output_batch design params
             ~batch:
               (Array.to_list
                  (Array.map (fun input -> [ (blob, input) ]) inputs))))
  in
  (batch_n, compile_s, single_s, batched_s)

(* Daemon round-trip throughput: a real in-process daemon on an ephemeral
   loopback port, warm-cache /generate requests over the blocking client.
   Measures the whole serving path — accept, HTTP parse, quota, cache
   lookup, response — not generation itself. *)
let serve_throughput_micro () =
  let module Serve = Db_serve.Serve in
  let module Protocol = Db_serve.Protocol in
  let n = if !quick then 20 else 80 in
  let body =
    Printf.sprintf "{\"model\":\"%s\"}"
      (Protocol.json_escape Db_workloads.Model_zoo.mlp_prototxt)
  in
  let t = Serve.start { Serve.default_config with Serve.port = 0; workers = 2 } in
  let port = Serve.port t in
  let shoot () =
    match
      Protocol.request ~port ~meth:"POST" ~path:"/generate" ~body ()
    with
    | 200, _ -> ()
    | status, _ -> Db_util.Error.fail "serve bench: unexpected status %d" status
  in
  Fun.protect
    ~finally:(fun () -> Serve.stop t)
    (fun () ->
      shoot () (* warm the design cache once, off the clock *);
      let _, s = time (fun () -> for _ = 1 to n do shoot () done) in
      (n, s))

(* Persistent-store hit path across a simulated restart: write one design,
   then reopen the store (fresh counters, same files) and time repeated
   lookups — decode, CRC, unmarshal, the full read path a warm restart
   pays per request. *)
let store_persistence_micro () =
  let module Store = Db_store.Disk_store in
  let n = if !quick then 50 else 200 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbstore-bench-%d" (Unix.getpid ()))
  in
  let net = Db_nn.Caffe.import_string Db_workloads.Model_zoo.mlp_prototxt in
  let cons = Db_core.Constraints.db_medium in
  let design, generate_s = time (fun () -> Db_core.Generator.generate cons net) in
  let key = Db_core.Design_cache.cache_key cons net in
  let writer = Store.open_store ~dir () in
  let _, write_s = time (fun () -> Store.store writer ~key design) in
  (* The "restart": a fresh handle over the same directory. *)
  let reader = Store.open_store ~dir () in
  let _, lookup_s =
    time (fun () ->
        for _ = 1 to n do
          match Store.lookup reader ~key with
          | Some _ -> ()
          | None -> Db_util.Error.fail "store bench: lost the stored design"
        done)
  in
  (n, generate_s, write_s, lookup_s)

let run_json () =
  section_header "Writing BENCH.json (per-section wall-clock + ns/run)";
  let cfg = config () in
  (* Cold vs warm fig8: the second run hits the design cache for every
     (benchmark, budget) pair, isolating the cache's contribution. *)
  Db_core.Design_cache.clear ();
  let _, fig8_cold = time (fun () -> Experiments.fig8_fig9 cfg) in
  let _, fig8_warm = time (fun () -> Experiments.fig8_fig9 cfg) in
  let _, table3_s = time (fun () -> Experiments.table3 cfg) in
  let _, fig10_s = time (fun () -> Experiments.fig10 cfg) in
  let _, training_s = time (fun () -> Experiments.training cfg) in
  let _, throughput_s = time (fun () -> Experiments.throughput cfg) in
  let hits, misses = Db_core.Design_cache.stats () in
  (* Static checker over the zoo (range analysis + memory-safety proof);
     design generation is excluded from the timed section. *)
  let check_zoo_s =
    let models =
      [
        ("mlp", Db_workloads.Model_zoo.mlp_prototxt);
        ("cmac", Db_workloads.Model_zoo.cmac_prototxt);
        ("mnist", Db_workloads.Model_zoo.mnist_prototxt);
        ("hopfield", Db_workloads.Model_zoo.hopfield_prototxt ~cities:5);
      ]
      @
      if !quick then []
      else
        [
          ("cifar", Db_workloads.Model_zoo.cifar_prototxt);
          ("lenet5", Db_workloads.Model_zoo.lenet5_prototxt);
          ("nin", Db_workloads.Model_zoo.nin_prototxt);
        ]
    in
    let script =
      {|constraint { device: "zynq-7045" dsps: 16 luts: 60000 ffs: 40000 bram_kb: 1024 }|}
    in
    let designs =
      List.map
        (fun (_, model) ->
          Db_core.Generator.generate_from_script ~model ~constraint_script:script ())
        models
    in
    let _, s =
      time (fun () ->
          List.iter (fun d -> ignore (Db_core.Checker.check d)) designs)
    in
    s
  in
  (* Fault-campaign throughput (specialized engine — the default). *)
  let fault_trials = fault_bench_trials () in
  let fault_result, faults_s =
    time (fun () -> run_fault_campaign Db_fault.Campaign.Specialized)
  in
  let sim_batch_n, sim_compile_s, sim_single_s, sim_batched_s =
    sim_throughput_micro ()
  in
  let serve_n, serve_s = serve_throughput_micro () in
  let store_n, store_generate_s, store_write_s, store_lookup_s =
    store_persistence_micro ()
  in
  let train_tb, train_report, train_build_s, train_compile_s =
    train_throughput_micro ()
  in
  let ( explore_config,
        explore_res,
        explore_cold_s,
        explore_warm_s,
        explore_hits,
        explore_misses ) =
    explore_micro ()
  in
  let micros =
    List.map conv_micro
      (("alexnet-conv3", 256, 13, 384, 3, 1, 1)
      ::
      (if !quick then []
       else [ ("alexnet-conv2", 96, 27, 256, 5, 2, 2) ]))
  in
  let bech = bechamel_rows () in
  let buf = Buffer.create 4096 in
  let fsec = Printf.sprintf "%.6f" in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"schema_version\": %d,\n" bench_schema_version;
  Printf.bprintf buf "  \"git_rev\": \"%s\",\n" (Minijson.escape (git_rev ()));
  Printf.bprintf buf "  \"jobs\": %d,\n" (Db_parallel.Pool.job_count ());
  Printf.bprintf buf "  \"quick\": %b,\n" !quick;
  Buffer.add_string buf "  \"sections_seconds\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (name, s) -> Printf.sprintf "    \"%s\": %s" name (fsec s))
          [
            ("fig8_fig9_cold", fig8_cold);
            ("fig8_fig9_warm", fig8_warm);
            ("table3", table3_s);
            ("fig10", fig10_s);
            ("training", training_s);
            ("throughput", throughput_s);
            ("check_zoo", check_zoo_s);
          ]));
  Buffer.add_string buf "\n  },\n";
  Printf.bprintf buf
    "  \"design_cache\": { \"hits\": %d, \"misses\": %d },\n" hits misses;
  Printf.bprintf buf
    "  \"fault_campaign\": { \"trials\": %d, \"seconds\": %s, \
     \"injections_per_second\": %.1f, \"silent_fraction\": %.4f },\n"
    fault_trials (fsec faults_s)
    (float_of_int fault_trials /. faults_s)
    (Db_fault.Campaign.silent_fraction
       fault_result.Db_fault.Campaign.res_total);
  Printf.bprintf buf
    "  \"sim_throughput\": { \"benchmark\": \"MNIST\", \"batch\": %d, \
     \"trace_compile_seconds\": %s, \"single_seconds\": %s, \
     \"batched_seconds\": %s, \"single_samples_per_second\": %.1f, \
     \"batched_samples_per_second\": %.1f },\n"
    sim_batch_n (fsec sim_compile_s) (fsec sim_single_s) (fsec sim_batched_s)
    (float_of_int sim_batch_n /. sim_single_s)
    (float_of_int sim_batch_n /. sim_batched_s);
  Printf.bprintf buf
    "  \"serve_throughput\": { \"requests\": %d, \"seconds\": %s, \
     \"requests_per_second\": %.1f },\n"
    serve_n (fsec serve_s)
    (float_of_int serve_n /. serve_s);
  Printf.bprintf buf
    "  \"store_persistence\": { \"lookups\": %d, \"generate_seconds\": %s, \
     \"write_seconds\": %s, \"lookup_seconds\": %s, \
     \"lookups_per_second\": %.1f, \"hit_speedup_over_generate\": %.1f },\n"
    store_n (fsec store_generate_s) (fsec store_write_s) (fsec store_lookup_s)
    (float_of_int store_n /. store_lookup_s)
    (store_generate_s /. (store_lookup_s /. float_of_int store_n));
  Printf.bprintf buf
    "  \"explore\": { \"model\": \"mnist\", \"budget\": %d, \
     \"evaluated\": %d, \"deduped\": %d, \"front_size\": %d, \
     \"cold_seconds\": %s, \"warm_seconds\": %s, \
     \"candidates_per_second\": %.1f, \"cache_dedupe_hit_rate\": %.3f },\n"
    explore_config.Db_dse.Explore.budget explore_res.Db_dse.Explore.r_evaluated
    explore_res.Db_dse.Explore.r_deduped
    (List.length explore_res.Db_dse.Explore.r_front)
    (fsec explore_cold_s) (fsec explore_warm_s)
    (float_of_int explore_res.Db_dse.Explore.r_evaluated /. explore_cold_s)
    (float_of_int explore_hits
    /. float_of_int (Stdlib.max 1 (explore_hits + explore_misses)));
  Printf.bprintf buf
    "  \"train_throughput\": { \"model\": \"ANN-0\", \"batch\": 16, \
     \"build_seconds\": %s, \"trace_compile_seconds\": %s, \
     \"step_cycles\": %d, \"steps_per_second\": %.1f },\n"
    (fsec train_build_s) (fsec train_compile_s)
    train_report.Db_sim.Train_sim.step_cycles
    (Db_sim.Train_sim.steps_per_second train_tb train_report);
  Buffer.add_string buf "  \"conv_micro\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (name, naive_s, gemm_s) ->
            Printf.sprintf
              "    { \"layer\": \"%s\", \"naive_seconds\": %s, \
               \"gemm_seconds\": %s, \"speedup\": %.2f }"
              (Minijson.escape name) (fsec naive_s) (fsec gemm_s)
              (naive_s /. gemm_s))
          micros));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"bechamel_ns_per_run\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.filter_map
          (fun (name, ns) ->
            Option.map
              (fun est ->
                Printf.sprintf "    \"%s\": %.0f" (Minijson.escape name) est)
              ns)
          bech));
  Buffer.add_string buf "\n  }\n}\n";
  let oc = open_out !json_out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (fig8 cold %ss -> warm %ss)\n" !json_out
    (fsec fig8_cold) (fsec fig8_warm)

let run_explore () =
  section_header "Design-space exploration (multi-objective Pareto front)";
  let _config, res, cold_s, warm_s, hits, misses = explore_micro () in
  print_string (Db_dse.Explore.render_text res);
  Printf.printf
    "\ncold %.3fs (%.1f candidates/s)  warm %.3fs  design-cache %d hits / %d \
     misses\n"
    cold_s
    (float_of_int res.Db_dse.Explore.r_evaluated /. cold_s)
    warm_s hits misses

let sections =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("fig10", run_fig10);
    ("table3", run_table3);
    ("summary", run_summary);
    ("training", run_training);
    ("throughput", run_throughput);
    ("ablation-tiling", run_ablation_tiling);
    ("ablation-lut", run_ablation_lut);
    ("ablation-lanes", run_ablation_lanes);
    ("ablation-fixed", run_ablation_fixed);
    ("faults", run_faults);
    ("explore", run_explore);
    ("report", run_report);
    ("bechamel", run_bechamel);
    ("json", run_json);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | ("quick" | "--quick") :: rest ->
        quick := true;
        strip_flags acc rest
    | ("full" | "--full") :: rest ->
        full := true;
        strip_flags acc rest
    | "--out" :: path :: rest ->
        json_out := path;
        strip_flags acc rest
    | a :: rest -> strip_flags (a :: acc) rest
  in
  let args = strip_flags [] args in
  let selected =
    match args with
    | [] ->
        (* [report] and [json] re-run every experiment to build their
           output files; run them only when asked for explicitly. *)
        List.filter
          (fun n -> n <> "report" && n <> "json")
          (List.map fst sections)
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n sections) then begin
              Printf.eprintf "unknown section %S; available: %s\n" n
                (String.concat " " (List.map fst sections));
              exit 1
            end)
          names;
        names
  in
  Printf.printf "DeepBurning (DAC'16) evaluation reproduction%s — seed %d\n"
    (if !quick then " [quick]" else "")
    (config ()).Experiments.seed;
  List.iter (fun name -> (List.assoc name sections) ()) selected
