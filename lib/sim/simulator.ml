module Design = Db_core.Design
module Compiler = Db_core.Compiler
module Folding = Db_sched.Folding

type layer_report = {
  lr_layer : string;
  lr_cycles : int;
  lr_compute_cycles : int;
  lr_memory_cycles : int;
  lr_macs : int;
  lr_dram_bytes : int;
  lr_folds : int;
  lr_energy_j : float;
}

type report = {
  design_name : string;
  total_cycles : int;
  seconds : float;
  per_layer : layer_report list;
  dram_bytes : int;
  power : Db_fpga.Power.t;
  energy_j : float;
  macs : int;
  effective_gmacs : float;
}

(* Per-layer activity counters under "sim.layer.<layer>.*": cycles, stall
   cycles (fold cycles the MAC lanes sat waiting — exposed memory time plus
   the coordinator's reconfiguration beats), DRAM traffic, MACs and fold
   count.  Values count work items only, so they are identical at any
   DEEPBURNING_JOBS (the determinism contract of DESIGN.md §11). *)
let record_layer_counters per_layer =
  if Db_obs.Obs.enabled () then
    List.iter
      (fun r ->
        let p = "sim.layer." ^ r.lr_layer in
        Db_obs.Obs.incr ~by:r.lr_cycles (p ^ ".cycles");
        Db_obs.Obs.incr
          ~by:(Stdlib.max 0 (r.lr_cycles - r.lr_compute_cycles))
          (p ^ ".stall_cycles");
        Db_obs.Obs.incr ~by:r.lr_dram_bytes (p ^ ".dram_bytes");
        Db_obs.Obs.incr ~by:r.lr_macs (p ^ ".macs");
        Db_obs.Obs.incr ~by:r.lr_folds (p ^ ".folds"))
      per_layer

let timing_core (design : Design.t) =
  let dp = design.Design.datapath in
  let costs =
    List.map (fun p -> (p, Perf_model.fold_cost dp p))
      design.Design.program.Compiler.programs
  in
  (* Aggregate per layer, preserving execution order. *)
  let order = ref [] in
  let table = Hashtbl.create 16 in
  List.iter
    (fun ((p : Compiler.fold_program), (c : Perf_model.fold_cycles)) ->
      let layer = p.Compiler.fold.Folding.fold_layer in
      if not (Hashtbl.mem table layer) then begin
        order := layer :: !order;
        Hashtbl.add table layer
          {
            lr_layer = layer;
            lr_cycles = 0;
            lr_compute_cycles = 0;
            lr_memory_cycles = 0;
            lr_macs = 0;
            lr_dram_bytes = 0;
            lr_folds = 0;
            lr_energy_j = 0.0;
          }
      end;
      let r = Hashtbl.find table layer in
      Hashtbl.replace table layer
        {
          r with
          lr_cycles = r.lr_cycles + c.Perf_model.fold_cycles;
          lr_compute_cycles = r.lr_compute_cycles + c.Perf_model.compute_cycles;
          lr_memory_cycles = r.lr_memory_cycles + c.Perf_model.memory_cycles;
          lr_macs = r.lr_macs + p.Compiler.fold.Folding.macs;
          lr_dram_bytes = r.lr_dram_bytes + c.Perf_model.dram_bytes;
          lr_folds = r.lr_folds + 1;
        })
    costs;
  let per_layer = List.rev_map (Hashtbl.find table) !order in
  let total_cycles =
    List.fold_left (fun acc r -> acc + r.lr_cycles) 0 per_layer
  in
  let timing_model =
    Db_fpga.Timing.at_mhz design.Design.constraints.Db_core.Constraints.clock_mhz
  in
  let seconds = Db_fpga.Timing.cycles_to_seconds timing_model total_cycles in
  let power = Design.power design in
  let watts = power.Db_fpga.Power.total_w +. Db_fpga.Power.arm_host_power_w in
  let per_layer =
    List.map
      (fun r ->
        {
          r with
          lr_energy_j =
            watts *. Db_fpga.Timing.cycles_to_seconds timing_model r.lr_cycles;
        })
      per_layer
  in
  let macs = Folding.total_macs design.Design.schedule.Db_sched.Schedule.folds in
  {
    design_name = design.Design.network.Db_nn.Network.net_name;
    total_cycles;
    seconds;
    per_layer;
    dram_bytes = List.fold_left (fun acc r -> acc + r.lr_dram_bytes) 0 per_layer;
    power;
    (* Board energy includes the ARM core that manages the accelerator as a
       peripheral (the paper's system software runs on the Cortex-A9). *)
    energy_j =
      Db_fpga.Power.energy_j power ~seconds
      +. (Db_fpga.Power.arm_host_power_w *. seconds);
    macs;
    effective_gmacs =
      (if seconds > 0.0 then float_of_int macs /. seconds /. 1e9 else 0.0);
  }

(* The report is a pure function of the design, and the experiment harness
   re-times the same cached designs constantly — memoise it next to the
   design.  Counters and spans stay per-call (below), so observability
   output is unchanged by the cache. *)
module Timing_cache = Db_core.Design_cache.Artifact (struct
  type t = report
end)

let timing (design : Design.t) =
  Db_obs.Obs.with_span "simulate.timing"
    ~attrs:[ ("network", design.Design.network.Db_nn.Network.net_name) ]
  @@ fun () ->
  let r = Timing_cache.find design ~compile:timing_core in
  record_layer_counters r.per_layer;
  r

type batch_report = {
  batch : int;
  batch_cycles : int;
  batch_seconds : float;
  images_per_second : float;
  speedup_over_serial : float;
}

let batch_timing ~batch (design : Design.t) =
  if batch <= 0 then
    Db_util.Error.failf_at ~component:"simulator"
      "batch_timing: batch must be positive";
  let dp = design.Design.datapath in
  let costs =
    List.map (Perf_model.fold_cost dp) design.Design.program.Compiler.programs
  in
  let serial_image =
    List.fold_left (fun acc c -> acc + c.Perf_model.fold_cycles) 0 costs
  in
  let compute_total =
    List.fold_left
      (fun acc c ->
        acc + c.Perf_model.compute_cycles + Perf_model.reconfiguration_overhead_cycles)
      0 costs
  in
  (* In steady state a layer whose whole weight set fits the weight buffer
     keeps it resident across images (weight-stationary batching), so its
     weight stream is paid once per batch rather than once per image. *)
  let wbuf = dp.Db_sched.Datapath.weight_buffer_words in
  let resident_layers =
    let per_layer = Hashtbl.create 16 in
    List.iter
      (fun (p : Compiler.fold_program) ->
        let layer = p.Compiler.fold.Db_sched.Folding.fold_layer in
        let w =
          List.fold_left
            (fun acc (tr : Compiler.transfer) ->
              match tr.Compiler.stream with
              | `Weight_in -> acc + tr.Compiler.words
              | `Feature_in | `Output_back -> acc)
            0 p.Compiler.transfers
        in
        Hashtbl.replace per_layer layer
          (w + Option.value ~default:0 (Hashtbl.find_opt per_layer layer)))
      design.Design.program.Compiler.programs;
    Hashtbl.fold
      (fun layer words acc -> if words <= wbuf then layer :: acc else acc)
      per_layer []
  in
  let memory_total_steady =
    List.fold_left2
      (fun acc (p : Compiler.fold_program) (c : Perf_model.fold_cycles) ->
        let resident =
          List.mem p.Compiler.fold.Db_sched.Folding.fold_layer resident_layers
        in
        if not resident then acc + c.Perf_model.memory_cycles
        else
          (* Re-price the fold without its weight stream. *)
          List.fold_left
            (fun acc (tr : Compiler.transfer) ->
              match tr.Compiler.stream with
              | `Weight_in -> acc
              | `Feature_in | `Output_back ->
                  acc + Perf_model.transfer_cycles dp tr)
            acc p.Compiler.transfers)
      0 design.Design.program.Compiler.programs costs
  in
  (* First image fills the pipeline at the serial cost; the rest stream at
     the aggregate bottleneck (double-buffered fetch hides the slack). *)
  let steady = Stdlib.max compute_total memory_total_steady in
  let batch_cycles = serial_image + ((batch - 1) * steady) in
  let timing_model =
    Db_fpga.Timing.at_mhz design.Design.constraints.Db_core.Constraints.clock_mhz
  in
  let batch_seconds = Db_fpga.Timing.cycles_to_seconds timing_model batch_cycles in
  {
    batch;
    batch_cycles;
    batch_seconds;
    images_per_second = float_of_int batch /. batch_seconds;
    speedup_over_serial =
      float_of_int (batch * serial_image) /. float_of_int batch_cycles;
  }

(* Replay the whole control path (every compiled AGU transfer) under one
   shared cycle budget.  A healthy design finishes well inside any sane
   budget; a corrupted configuration register or stuck FSM state does not,
   and the watchdog converts that would-be hang into a structured error.
   The replay runs on the compiled trace: closed-form per-transfer cycle
   counts under the same watchdog, counters and timeout payloads as
   clocking each AGU FSM ({!Specialize.replay_control}). *)
let replay_control ~cycle_budget (design : Design.t) =
  Specialize.replay_control ~cycle_budget (Specialize.of_design design)

let functional_output ?cycle_budget (design : Design.t) params ~inputs =
  Db_obs.Obs.with_span "simulate.functional" @@ fun () ->
  (match cycle_budget with
  | Some budget -> ignore (replay_control ~cycle_budget:budget design)
  | None -> ());
  Specialize.output (Specialize.bind (Specialize.of_design design) params) ~inputs

let functional_output_batch ?cycle_budget (design : Design.t) params ~batch =
  Db_obs.Obs.with_span "simulate.functional_batch" @@ fun () ->
  (* The control path is input-independent, so one watchdog replay covers
     the whole batch. *)
  (match cycle_budget with
  | Some budget -> ignore (replay_control ~cycle_budget:budget design)
  | None -> ());
  Specialize.output_batch (Specialize.bind (Specialize.of_design design) params)
    ~batch

let run ?cycle_budget design params ~inputs =
  Db_obs.Obs.with_span "simulate.run" @@ fun () ->
  (functional_output ?cycle_budget design params ~inputs, timing design)

let testbench (design : Design.t) params ~inputs =
  let fmt = design.Design.datapath.Db_sched.Datapath.fmt in
  let quantize_tensor t = Array.to_list (Db_fixed.Fixed.quantize_tensor fmt t) in
  (* Stimulus in DRAM-layout order: the input blobs, then each weighted
     node's tensors (the order the main AGU fetches them in). *)
  let input_words =
    List.concat_map (fun (_, t) -> quantize_tensor t) inputs
    @ Db_nn.Network.fold design.Design.network ~init:[] ~f:(fun acc node ->
          acc
          @ List.concat_map quantize_tensor
              (Db_nn.Params.get params node.Db_nn.Network.node_name))
  in
  let expected =
    Specialize.qoutput
      (Specialize.bind (Specialize.of_design design) params)
      ~inputs
  in
  let report = timing design in
  Db_hdl.Testbench.generate ~top:design.Design.rtl.Db_hdl.Rtl.top
    {
      Db_hdl.Testbench.input_words;
      expected_words = Array.to_list expected.Db_nn.Quantized.qdata;
      word_bits = fmt.Db_fixed.Fixed.total_bits;
      watchdog_cycles = 10 * (report.total_cycles + 1000);
    }

let pp_report fmt r =
  Format.fprintf fmt
    "%s: %d cycles (%.3f ms), %.2f GMAC/s, %d DRAM bytes, %.3f W, %.4f J@."
    r.design_name r.total_cycles (r.seconds *. 1e3) r.effective_gmacs
    r.dram_bytes r.power.Db_fpga.Power.total_w r.energy_j;
  List.iter
    (fun l ->
      Format.fprintf fmt
        "  %-16s %9d cyc (cmp %9d / mem %9d) folds=%-5d macs=%d@." l.lr_layer
        l.lr_cycles l.lr_compute_cycles l.lr_memory_cycles l.lr_folds l.lr_macs)
    r.per_layer
