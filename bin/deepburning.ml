(* The DeepBurning command-line tool: the "one-click" interface of Fig. 3.
   Every MODEL argument is a bundled zoo name or a .prototxt path.

     deepburning generate -m model.prototxt -c constraint.prototxt -o accel.v
     deepburning simulate -m alexnet -c constraint.prototxt
     deepburning zoo list
     deepburning zoo show alexnet > alexnet.prototxt
     deepburning ir alexnet
     deepburning stats -m model.prototxt *)

open Cmdliner

(* All CLI file I/O runs classified: a missing model file or an unwritable
   output path is an [Io] failure (exit code 8), not a bare [Sys_error]. *)
let read_file path =
  Db_util.Error.protect_io ~component:"io-cli" (fun () ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let write_file path content =
  Db_util.Error.protect_io ~component:"io-cli" (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc content))

(* [--store DIR] on work-producing subcommands: attach the persistent
   design store so generation is served from disk across process runs. *)
let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Attach the crash-safe persistent design store rooted at $(docv): \
           look generated designs up there before regenerating, and write \
           fresh ones through.")

let with_store store f =
  match store with
  | None -> f ()
  | Some dir ->
      let s = Db_store.Disk_store.open_store ~dir () in
      Db_store.Disk_store.attach s;
      Fun.protect ~finally:Db_store.Disk_store.detach f

(* A MODEL argument: its label in reports and its prototxt source, read
   when the command runs so that a read failure is classified [Io]. *)
type model = { label : string; source : unit -> string }

let zoo_models = Db_workloads.Model_zoo.named

let zoo_model (label, src) = { label; source = (fun () -> src) }

(* The one converter behind every MODEL slot: a bundled zoo name (looked up
   first) or an existing file.  Anything else is a usage error (exit 124). *)
let model_conv =
  let parse s =
    match List.assoc_opt s zoo_models with
    | Some src -> Ok (zoo_model (s, src))
    | None when Sys.file_exists s ->
        Ok { label = Filename.basename s; source = (fun () -> read_file s) }
    | None ->
        Error (`Msg (Printf.sprintf "%S is neither a zoo model nor a file" s))
  in
  Arg.conv ~docv:"MODEL"
    (parse, fun ppf m -> Format.pp_print_string ppf m.label)

let model_doc = "A bundled zoo model name or a Caffe-compatible .prototxt file."

let model_opt ?(names = [ "m"; "model" ]) () =
  Arg.(opt (some model_conv) None & info names ~docv:"MODEL" ~doc:model_doc)

let model_arg = Arg.required (model_opt ())

let model_pos_arg =
  Arg.(
    required
    & pos 0 (some model_conv) None
    & info [] ~docv:"MODEL" ~doc:model_doc)

let constraint_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "c"; "constraint" ] ~docv:"CONSTRAINT"
        ~doc:
          "Design-constraint script; defaults to a 16-DSP budget on the \
           Zynq-7045.")

let tiling_arg =
  Arg.(
    value & opt bool true
    & info [ "tiling" ] ~docv:"BOOL"
        ~doc:"Enable Method-1 data tiling (default true).")

let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let output_arg ~doc =
  Arg.(
    value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let network (m : model) = Db_nn.Caffe.import_string (m.source ())

let constraints path =
  Db_core.Constraints.parse
    (match path with
    | Some path -> read_file path
    | None -> Db_serve.Serve.default_constraint_script)

(* The one generation path: through [Design_cache], so an attached
   [--store] serves repeat models from disk instead of regenerating.  The
   term resolves [-c] and [--tiling] once; the command applies it to its
   model(s). *)
let generator =
  Term.(
    const (fun cpath tiling m ->
        let net = network m in
        Db_core.Design_cache.generate ~tiling_enabled:tiling
          (constraints cpath) net)
    $ constraint_arg $ tiling_arg)

(* Every repository exception maps to one failure class and that class to
   one exit code (parse 3, validation 4, resource 5, simulation 6,
   watchdog 7, io 8, out of memory 9; 1 for an unclassified repository
   error).  A foreign exception is a bug: it is reported with its
   backtrace as cmdliner's internal error (125). *)
let report_error e bt =
  match Db_util.Error.classify_exn e with
  | None ->
      Printf.eprintf
        "deepburning: internal error, uncaught exception:\n%s\n%s%!"
        (Printexc.to_string e) (Printexc.raw_backtrace_to_string bt);
      Cmd.Exit.internal_error
  | Some cls ->
      (match Db_util.Error.message_of_exn e with
      | Some msg -> Printf.eprintf "deepburning: %s\n" msg
      | None ->
          Printf.eprintf "deepburning: %s error\n"
            (Db_util.Error.class_name cls));
      Db_util.Error.exit_code cls

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans and counters for the whole run and write a Chrome \
           trace_event JSON file (open in chrome://tracing or Perfetto).")

(* Every subcommand runs through here.  [f] returns the exit code: 0, or 2
   when lint/check/verify report findings.  With [--trace FILE] the whole
   run is recorded and the trace is written afterwards on every path,
   including a failing run, whose partial trace is exactly what you want
   to look at.  The run's own failure wins; otherwise a trace that cannot
   be written exits 8 (io). *)
let run ?trace f =
  if trace <> None then Db_obs.Obs.set_enabled true;
  let code =
    try f () with e -> report_error e (Printexc.get_raw_backtrace ())
  in
  match trace with
  | None -> code
  | Some path -> (
      let snap = Db_obs.Obs.snapshot () in
      match write_file path (Db_obs.Render.chrome_trace snap) with
      | () ->
          Printf.eprintf "deepburning: wrote trace %s\n" path;
          code
      | exception e ->
          let io = report_error e (Printexc.get_raw_backtrace ()) in
          if code = 0 then io else code)

let generate_cmd =
  let run model generate output store trace =
    run ?trace (fun () ->
        with_store store (fun () ->
            let design = generate model in
            Format.eprintf "%a@." Db_core.Design.pp_summary design;
            let verilog = Db_core.Design.verilog design in
            (match output with
            | None -> print_string verilog
            | Some path ->
                write_file path verilog;
                Printf.eprintf "wrote %s\n" path);
            0))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate an accelerator (RTL to stdout or a file).")
    Term.(
      const run $ model_arg $ generator
      $ output_arg ~doc:"Write the generated Verilog here (default: stdout)."
      $ store_arg $ trace_arg)

let simulate_cmd =
  let run model generate store trace =
    run ?trace (fun () ->
        with_store store (fun () ->
            let design = generate model in
            Format.printf "%a@." Db_core.Design.pp_summary design;
            let report = Db_sim.Simulator.timing design in
            Format.printf "%a@." Db_sim.Simulator.pp_report report;
            let cpu = Db_baseline.Cpu_model.xeon_2_4ghz in
            let cpu_s =
              Db_baseline.Cpu_model.forward_seconds cpu
                design.Db_core.Design.network
            in
            Printf.printf "CPU reference (%s): %s per forward pass\n"
              cpu.Db_baseline.Cpu_model.cpu_name
              (Db_report.Table.ms cpu_s);
            0))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Generate and report one forward pass's latency, traffic and power.")
    Term.(const run $ model_arg $ generator $ store_arg $ trace_arg)

let stats_cmd =
  let run model trace =
    run ?trace (fun () ->
        let net = network model in
        Format.printf "%a@." Db_nn.Network.pp net;
        Format.printf "%a@." Db_nn.Model_stats.pp
          (Db_nn.Model_stats.compute net);
        0)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show a model's layers, MACs and parameter counts.")
    Term.(const run $ model_arg $ trace_arg)

let zoo_cmd =
  let action_arg =
    Arg.(
      value
      & pos 0 (enum [ ("list", `List); ("show", `Show) ]) `List
      & info [] ~docv:"ACTION" ~doc:"$(b,list) or $(b,show) NAME.")
  in
  let name_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"NAME")
  in
  let zoo action name trace =
    let print text = `Ok (run ?trace (fun () -> print_string text; 0)) in
    match (action, name) with
    | `List, _ ->
        print (String.concat "" (List.map (fun (n, _) -> n ^ "\n") zoo_models))
    | `Show, None -> `Error (true, "zoo show: missing model name")
    | `Show, Some n -> (
        match List.assoc_opt n zoo_models with
        | Some src -> print src
        | None -> `Error (true, Printf.sprintf "unknown zoo model %S" n))
  in
  Cmd.v
    (Cmd.info "zoo" ~doc:"List or print the bundled model scripts.")
    Term.(ret (const zoo $ action_arg $ name_arg $ trace_arg))

(* lint and check share one implementation: generate each target (one
   --model, or every zoo model with --zoo), let [report] print its findings
   (after --strict promotes warnings, through the [strict] function it is
   given) and exit 2 when any target is left with an error. *)
let diagnose_cmd name ~doc ~json_doc report =
  let targets =
    let zoo_arg =
      Arg.(
        value & flag
        & info [ "zoo" ]
            ~doc:
              (String.capitalize_ascii name
              ^ " the generated design of every bundled zoo model."))
    in
    let resolve model zoo =
      match (model, zoo) with
      | _, true -> `Ok (List.map zoo_model zoo_models)
      | Some m, false -> `Ok [ m ]
      | None, false -> `Error (true, name ^ ": pass --model FILE or --zoo")
    in
    Term.(ret (const resolve $ Arg.value (model_opt ()) $ zoo_arg))
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat warnings as errors (exit non-zero).")
  in
  let run targets generate strict json trace =
    let strict = if strict then Db_analysis.Diagnostic.strictify else Fun.id in
    run ?trace (fun () ->
        List.fold_left
          (fun code m ->
            let diags = report ~strict ~json m.label (generate m) in
            if Db_analysis.Diagnostic.errors diags <> [] then 2 else code)
          0 targets)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ targets $ generator $ strict_arg $ json_arg ~doc:json_doc
      $ trace_arg)

let print_findings header diags =
  Printf.printf "== %s: %s\n" header (Db_analysis.Diagnostic.summary diags);
  List.iter
    (fun d -> print_endline ("  " ^ Db_analysis.Diagnostic.to_string d))
    diags

let lint_cmd =
  diagnose_cmd "lint"
    ~doc:
      "Generate a design and run the semantic RTL analyzer over it \
          (drivers, widths, combinational loops, FSM reachability) and \
          the text lint over its Verilog (balanced constructs, a closed \
          module graph)."
    ~json_doc:"Emit diagnostics as a JSON array on stdout."
    (fun ~strict ~json name design ->
      let diags =
        strict
          (Db_analysis.Diagnostic.sort
             (Db_core.Design.analyze design
             @ Db_analysis.Analyze.verilog design.Db_core.Design.rtl))
      in
      if json then print_endline (Db_analysis.Diagnostic.json_of_list diags)
      else
        print_findings
          (Printf.sprintf "%s (%s)" name
             design.Db_core.Design.rtl.Db_hdl.Rtl.top)
          diags;
      diags)

let check_cmd =
  diagnose_cmd "check"
    ~doc:
      "Generate a design and statically verify it: interval range analysis \
       of the fixed-point datapath (saturation, accumulator widths) and a \
       memory-safety proof of the schedule (buffer capacities, region \
       containment, AGU address widths)."
    ~json_doc:"Emit the check report as JSON on stdout."
    (fun ~strict ~json name design ->
      let report = Db_core.Checker.check design in
      let diags = strict report.Db_core.Checker.ck_diags in
      let range = report.Db_core.Checker.ck_range in
      if json then
        print_endline
          (Db_core.Checker.to_json ~design:name
             { report with Db_core.Checker.ck_diags = diags })
      else begin
        print_findings
          (Format.asprintf "%s (%a)" name Db_fixed.Fixed.pp_format
             range.Db_check.Range.rp_fmt)
          diags;
        Printf.printf "  min accumulator width: %d bits\n"
          range.Db_check.Range.rp_min_acc_bits;
        List.iter
          (fun (lr : Db_check.Range.layer_range) ->
            match lr.Db_check.Range.lr_acc_bits with
            | Some bits ->
                Printf.printf "  %-24s %-28s acc %2d bits%s\n"
                  lr.Db_check.Range.lr_node
                  (Db_check.Interval.to_string lr.Db_check.Range.lr_exact)
                  bits
                  (if lr.Db_check.Range.lr_proven then ""
                   else "  (range proof lost)")
            | None -> ())
          range.Db_check.Range.rp_layers
      end;
      diags)

let verify_cmd =
  let run model generate trace =
    run ?trace (fun () ->
        let r = Db_sim.Control_playback.playback (generate model) in
        Printf.printf
          "playback: %d folds, %d addresses issued over %d AGU cycles\n"
          r.Db_sim.Control_playback.folds_executed
          r.Db_sim.Control_playback.addresses_issued
          r.Db_sim.Control_playback.agu_cycles;
        match r.Db_sim.Control_playback.violations with
        | [] ->
            print_endline "memory-safe: every address inside its region";
            0
        | vs ->
            List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) vs;
            2)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Replay the generated control path cycle by cycle and bound-check \
          every AGU address against the data layout.")
    Term.(const run $ model_arg $ generator $ trace_arg)

let faults_cmd =
  let module Campaign = Db_fault.Campaign in
  let module Site = Db_fault.Site in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed; a fixed seed reproduces every trial bitwise.")
  in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"N" ~doc:"Single-bit injection trials.")
  in
  let budget_arg =
    Arg.(
      value & opt int 200_000
      & info [ "budget" ] ~docv:"CYCLES"
          ~doc:"Watchdog cycle budget for control playback.")
  in
  let inputs_arg =
    Arg.(
      value & opt int 8
      & info [ "inputs" ] ~docv:"N"
          ~doc:"Random benchmark inputs the campaign draws from.")
  in
  let scheme_doc = "$(docv) is none, parity, secded (ecc) or crc." in
  let protect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "protect" ] ~docv:"SCHEME"
          ~doc:("Protect every memory class with one scheme. " ^ scheme_doc))
  in
  let per_class_protect name =
    Arg.(
      value
      & opt (some string) None
      & info
          [ "protect-" ^ name ]
          ~docv:"SCHEME"
          ~doc:
            (Printf.sprintf "Protection for the %s class (overrides \
                             $(b,--protect)). %s" name scheme_doc))
  in
  let rates_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates" ] ~docv:"R1,R2,..."
          ~doc:
            "Comma-separated raw fault rates (flipped bits per stored bit) \
             for the degradation curve.")
  in
  let targets_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "targets" ] ~docv:"CLASSES"
          ~doc:
            "Comma-separated target classes: weights, biases, luts, agu, \
             buffers, fsm (default: all).")
  in
  let class_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "weights" -> Site.Weights
    | "biases" -> Site.Biases
    | "luts" | "lut-tables" -> Site.Lut_tables
    | "agu" | "agu-config" -> Site.Agu_config
    | "buffers" | "data-buffer" -> Site.Data_buffer
    | "fsm" | "control-fsm" -> Site.Control_fsm
    | other -> Db_util.Error.failf_at ~component:"fault" "unknown target class %S" other
  in
  let run model generate seed trials budget ninputs protect p_weights
      p_biases p_luts p_buffers p_agu rates targets json trace =
    run ?trace (fun () ->
        if ninputs <= 0 then
          Db_util.Error.failf_at ~component:"fault"
            "--inputs must be positive (got %d)" ninputs;
        let design = generate model in
        let net = design.Db_core.Design.network in
        let rng = Db_util.Rng.create seed in
        let params = Db_nn.Params.init_xavier rng net in
        let input_blob, shape = Db_nn.Network.first_input net in
        let inputs =
          Array.init ninputs (fun _ ->
              Db_tensor.Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0)
        in
        let base =
          match protect with
          | None -> Campaign.unprotected
          | Some s ->
              let sch = Db_fault.Protect.of_string s in
              {
                Campaign.weights = sch;
                biases = sch;
                luts = sch;
                buffers = sch;
                agu = sch;
              }
        in
        let field v cur =
          match v with None -> cur | Some s -> Db_fault.Protect.of_string s
        in
        let protection =
          {
            Campaign.weights = field p_weights base.Campaign.weights;
            biases = field p_biases base.Campaign.biases;
            luts = field p_luts base.Campaign.luts;
            buffers = field p_buffers base.Campaign.buffers;
            agu = field p_agu base.Campaign.agu;
          }
        in
        let rates =
          match rates with
          | None -> Campaign.default_config.Campaign.rates
          | Some s ->
              List.map
                (fun x ->
                  match float_of_string_opt (String.trim x) with
                  | Some f -> f
                  | None ->
                      Db_util.Error.failf_at ~component:"fault"
                        "bad fault rate %S" x)
                (String.split_on_char ',' s)
        in
        let targets =
          match targets with
          | None -> Site.all_classes
          | Some s ->
              List.map class_of_string (String.split_on_char ',' s)
        in
        let config =
          {
            Campaign.default_config with
            seed;
            trials;
            cycle_budget = budget;
            protection;
            rates;
            targets;
          }
        in
        let result =
          Campaign.run ~design ~params ~input_blob ~inputs config
        in
        print_string
          (if json then Campaign.render_json result
           else Campaign.render_text result);
        0)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run a deterministic SEU-injection campaign over the generated \
          accelerator: per-layer/per-class sensitivity, an \
          accuracy-vs-fault-rate curve and the protection schemes' resource \
          bill.")
    Term.(
      const run
      $ Arg.required (model_opt ~names:[ "m"; "model"; "net" ] ())
      $ generator $ seed_arg
      $ trials_arg $ budget_arg $ inputs_arg $ protect_arg
      $ per_class_protect "weights" $ per_class_protect "biases"
      $ per_class_protect "luts" $ per_class_protect "buffers"
      $ per_class_protect "agu" $ rates_arg $ targets_arg
      $ json_arg
          ~doc:
            "Emit the campaign result as stable JSON (no timing fields; \
             byte-identical for a fixed seed at any DEEPBURNING_JOBS)."
      $ trace_arg)

let ir_cmd =
  let run model json trace =
    run ?trace (fun () ->
        let g = Db_ir.Lower.lower (network model) in
        Db_ir.Verify.check_exn g;
        if json then print_endline (Db_ir.Print.to_json g)
        else print_string (Db_ir.Print.to_string g);
        0)
  in
  Cmd.v
    (Cmd.info "ir"
       ~doc:
         "Lower a model to the typed accelerator IR and print the verified \
          graph that generation consumes.")
    Term.(
      const run $ model_pos_arg
      $ json_arg ~doc:"Emit the stable JSON form instead of text."
      $ trace_arg)

let profile_cmd =
  let run model generate json trace =
    run ?trace (fun () ->
        Db_obs.Obs.set_enabled true;
        Db_obs.Obs.reset ();
        let design = generate model in
        let report = Db_sim.Simulator.timing design in
        (* The watchdog scales with the design: AlexNet's AGUs replay ~66M
           cycles.  Twice the simulated latency covers ImageNet-scale
           models; the 10M-cycle floor covers small ones whose control
           replay outruns their compute (LeNet-5's is ~3x). *)
        ignore
          (Db_sim.Simulator.replay_control
             ~cycle_budget:((2 * report.Db_sim.Simulator.total_cycles) + 10_000_000)
             design);
        let snap = Db_obs.Obs.snapshot () in
        if json then print_string (Db_obs.Render.stable_json snap)
        else begin
          print_string (Db_obs.Render.text snap);
          (* Per-layer table read back from the sim.layer.* counters, in
             the execution order the timing report preserves. *)
          let counter name = Db_obs.Obs.counter snap name in
          print_newline ();
          print_string
            (Db_report.Table.render
               ~headers:
                 [ "layer"; "cycles"; "stall"; "dram bytes"; "macs"; "folds" ]
               ~rows:
                 (List.map
                    (fun (l : Db_sim.Simulator.layer_report) ->
                      let p = "sim.layer." ^ l.Db_sim.Simulator.lr_layer in
                      l.Db_sim.Simulator.lr_layer
                      :: List.map
                           (fun suffix -> string_of_int (counter (p ^ suffix)))
                           [
                             ".cycles"; ".stall_cycles"; ".dram_bytes";
                             ".macs"; ".folds";
                           ])
                    report.Db_sim.Simulator.per_layer))
        end;
        0)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Generate and simulate a model with the observability layer on: \
          print the span tree of every pipeline phase and the per-layer \
          cycle/stall/traffic counters (optionally as a Chrome trace).")
    Term.(
      const run $ model_pos_arg $ generator
      $ json_arg
          ~doc:
            "Emit the deterministic JSON snapshot (structure and counters, \
             no timing fields) instead of the human tree."
      $ trace_arg)

let serve_cmd =
  let default = Db_serve.Serve.default_config in
  let port_arg =
    Arg.(
      value & opt int default.Db_serve.Serve.port
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Listen port; 0 picks an ephemeral one (printed on startup).")
  in
  let host_arg =
    Arg.(
      value & opt string default.Db_serve.Serve.host
      & info [ "host" ] ~docv:"ADDR" ~doc:"Listen address.")
  in
  let workers_arg =
    Arg.(
      value & opt int default.Db_serve.Serve.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_arg =
    Arg.(
      value & opt int default.Db_serve.Serve.queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-control bound: connections beyond $(docv) waiting \
             are shed with 503 + Retry-After.")
  in
  let quota_arg =
    Arg.(
      value & opt int default.Db_serve.Serve.per_client_quota
      & info [ "quota" ] ~docv:"N"
          ~doc:
            "Concurrent requests per client (the x-client header, or the \
             peer address) before 429.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt int (int_of_float (default.Db_serve.Serve.queue_deadline_s *. 1000.))
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Shed queued work older than $(docv) milliseconds.")
  in
  let budget_arg =
    Arg.(
      value & opt int default.Db_serve.Serve.cycle_budget
      & info [ "budget" ] ~docv:"CYCLES"
          ~doc:"Default simulation watchdog cycle budget.")
  in
  let store_max_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "store-max-mb" ] ~docv:"MB"
          ~doc:
            "Size-bound the persistent store: LRU-compact it to $(docv) \
             megabytes on every write-through.")
  in
  let run port host workers queue quota deadline_ms budget store store_max_mb =
    run (fun () ->
      Db_serve.Serve.run
        ~on_ready:(fun p ->
          Printf.eprintf "deepburning: serving on %s:%d%s\n%!" host p
            (match store with
            | Some dir -> Printf.sprintf " (store %s)" dir
            | None -> ""))
        {
          Db_serve.Serve.port;
          host;
          workers;
          queue_capacity = queue;
          per_client_quota = quota;
          queue_deadline_s = float_of_int deadline_ms /. 1000.;
          cycle_budget = budget;
          max_body = default.Db_serve.Serve.max_body;
          store_dir = store;
          store_max_bytes =
            Option.map (fun mb -> mb * 1024 * 1024) store_max_mb;
        };
      0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the accelerator-generation daemon: POST /generate and \
          /simulate, GET /health and /metrics, with bounded-queue \
          admission control, per-client quotas, graceful degradation and \
          an optional crash-safe persistent design store.  SIGTERM drains \
          in-flight work before exiting.")
    Term.(
      const run $ port_arg $ host_arg $ workers_arg $ queue_arg $ quota_arg
      $ deadline_arg $ budget_arg $ store_arg $ store_max_mb_arg)

let explore_cmd =
  let budget_arg =
    Arg.(
      value
      & opt int Db_dse.Explore.default_config.Db_dse.Explore.budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Maximum number of unique candidate evaluations.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int Db_dse.Explore.default_config.Db_dse.Explore.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Exploration seed; the front is bitwise reproducible for a \
             fixed seed at any $(b,DEEPBURNING_JOBS).")
  in
  let objectives_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "objectives" ] ~docv:"AXES"
          ~doc:
            "Comma-separated objective axes to minimise: cycles, latency, \
             luts, ffs, dsps, bram, accuracy, resilience.  Default: every \
             axis except resilience (SEU campaigns are costly).")
  in
  let epsilon_arg =
    Arg.(
      value
      & opt float Db_dse.Explore.default_config.Db_dse.Explore.epsilon
      & info [ "epsilon" ] ~docv:"EPS"
          ~doc:
            "Epsilon-dominance archive resolution: points within a factor \
             (1+EPS) on every axis share one representative.")
  in
  let population_arg =
    Arg.(
      value
      & opt int Db_dse.Explore.default_config.Db_dse.Explore.population
      & info [ "population" ] ~docv:"N"
          ~doc:"Candidate proposals per generation.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the stable front JSON to $(docv).")
  in
  let run model constraint_path budget seed objectives epsilon population
      json out trace =
    run ?trace (fun () ->
        let net = network model in
        let cons = constraints constraint_path in
        let axes =
          match objectives with
          | None -> Db_dse.Explore.default_config.Db_dse.Explore.axes
          | Some s ->
              List.map Db_core.Objective.axis_of_string
                (List.filter
                   (fun x -> String.trim x <> "")
                   (String.split_on_char ',' s))
        in
        let config =
          {
            Db_dse.Explore.default_config with
            Db_dse.Explore.seed;
            budget;
            axes;
            epsilon;
            population;
          }
        in
        let result = Db_dse.Explore.explore ~config cons net in
        (match out with
        | Some path -> write_file path (Db_dse.Explore.render_json result)
        | None -> ());
        if json then print_string (Db_dse.Explore.render_json result)
        else print_string (Db_dse.Explore.render_text result);
        0)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Multi-objective design-space exploration: walk lane count, \
          Q-format, Approx-LUT resolution, buffer sizing, tiling and SEU \
          protection under the constraint budget and print the Pareto \
          front over the selected objectives.  Deterministic for a fixed \
          seed at any parallelism.")
    Term.(
      const run $ model_pos_arg $ constraint_arg $ budget_arg $ seed_arg
      $ objectives_arg $ epsilon_arg $ population_arg
      $ json_arg ~doc:"Emit the stable front JSON instead of text."
      $ out_arg $ trace_arg)

let train_hw_cmd =
  let epochs_arg =
    Arg.(
      value & opt int 8
      & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs to simulate.")
  in
  let batch_arg =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"N"
          ~doc:"Mini-batch size (also sizes the gradient accumulators).")
  in
  let lr_arg =
    Arg.(
      value & opt float 0.05
      & info [ "lr" ] ~docv:"RATE" ~doc:"SGD learning rate.")
  in
  let samples_arg =
    Arg.(
      value & opt int 64
      & info [ "samples" ] ~docv:"N"
          ~doc:"Synthetic training samples to generate.")
  in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for weight init, data synthesis and the sample order.")
  in
  let campaign_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "campaign" ] ~docv:"TRIALS"
          ~doc:
            "Instead of the loss comparison, run a training-resilience \
             campaign of $(docv) persistent upsets in the gradient buffers \
             and update FSMs.")
  in
  let run model constraint_path tiling epochs batch lr nsamples seed campaign
      json output trace =
    run ?trace (fun () ->
        let net = network model in
        let cons = constraints constraint_path in
        let tb =
          Db_core.Train_builder.build ~tiling_enabled:tiling ~batch cons net
        in
        (match output with
        | None -> ()
        | Some path ->
            write_file path (Db_core.Train_builder.verilog tb);
            Printf.eprintf "wrote %s\n" path);
        let report = Db_sim.Train_sim.compile_trace tb in
        let steps_s = Db_sim.Train_sim.steps_per_second tb report in
        (* Synthetic regression data: deterministic in the seed, shaped by
           the network's input and output blobs. *)
        let ir = tb.Db_core.Train_builder.base.Db_core.Design.ir in
        let _, in_shape = Db_nn.Network.first_input net in
        let out_shape =
          match List.rev ir.Db_ir.Graph.nodes with
          | last :: _ -> last.Db_ir.Graph.out_shape
          | [] -> Db_util.Error.fail "empty graph"
        in
        let data_rng = Db_util.Rng.create seed in
        let data =
          Array.init nsamples (fun _ ->
              let draw shape =
                Db_tensor.Tensor.init shape (fun _ ->
                    Db_util.Rng.float data_rng 1.0)
              in
              let input = draw in_shape in
              {
                Db_train.Trainer.input;
                target = draw out_shape;
              })
        in
        let params =
          Db_nn.Params.init_xavier (Db_util.Rng.create seed) net
        in
        (match campaign with
        | Some trials ->
            let config =
              {
                Db_fault.Train_campaign.default_config with
                Db_fault.Train_campaign.trials;
                train_seed = seed + 1;
                train_config =
                  {
                    Db_train.Trainer.default_config with
                    Db_train.Trainer.epochs = Stdlib.min epochs 4;
                    batch_size = batch;
                    learning_rate = lr;
                  };
              }
            in
            let result =
              Db_fault.Train_campaign.run ~config tb
                (Db_nn.Params.copy params) data
            in
            if json then print_string (Db_fault.Train_campaign.render_json result)
            else print_string (Db_fault.Train_campaign.render_text result)
        | None ->
            let config =
              {
                Db_train.Trainer.default_config with
                Db_train.Trainer.epochs = epochs;
                batch_size = batch;
                learning_rate = lr;
              }
            in
            let sw_params = Db_nn.Params.copy params in
            let sw =
              Db_train.Trainer.train ~config
                ~rng:(Db_util.Rng.create (seed + 1))
                net sw_params data
            in
            let hw_params = Db_nn.Params.copy params in
            let hw =
              Db_sim.Train_sim.train ~config
                ~rng:(Db_util.Rng.create (seed + 1))
                tb hw_params data
            in
            if json then
              print_string (Db_sim.Train_sim.render_json tb report ~sw ~hw)
            else begin
              Format.printf "%a" Db_core.Train_builder.pp_summary tb;
              Format.printf "%a" Db_sim.Train_sim.pp_cycles report;
              Printf.printf "  %.1f SGD steps/s at the design clock\n\n"
                steps_s;
              Printf.printf
                "loss trajectory (software trainer vs on-chip SGD):\n";
              Printf.printf "  %-6s %-12s %-12s\n" "epoch" "software"
                "hardware";
              Array.iteri
                (fun i l ->
                  Printf.printf "  %-6d %-12.6f %-12.6f\n" i l
                    hw.Db_train.Trainer.losses.(i))
                sw.Db_train.Trainer.losses;
              Printf.printf
                "final: software %.6f, hardware %.6f (delta %+.6f)\n"
                sw.Db_train.Trainer.final_loss hw.Db_train.Trainer.final_loss
                (hw.Db_train.Trainer.final_loss
                -. sw.Db_train.Trainer.final_loss)
            end);
        0)
  in
  Cmd.v
    (Cmd.info "train-hw"
       ~doc:
         "Compile a model in training mode (FF/BP/UP datapaths, three-phase \
          schedule), replay one on-chip SGD step cycle-accurately, and \
          compare the hardware loss trajectory against the software trainer.")
    Term.(
      const run $ model_pos_arg $ constraint_arg $ tiling_arg $ epochs_arg
      $ batch_arg $ lr_arg $ samples_arg $ seed_arg $ campaign_arg
      $ json_arg ~doc:"Emit the stable JSON form instead of text."
      $ output_arg ~doc:"Also write the BP/UP additions' Verilog here."
      $ trace_arg)

let main_cmd =
  let doc = "automatic generation of FPGA-based NN accelerators (DAC'16 reproduction)" in
  Cmd.group
    (Cmd.info "deepburning" ~version:"1.0.0" ~doc)
    [
      generate_cmd; simulate_cmd; serve_cmd; verify_cmd; profile_cmd;
      lint_cmd; check_cmd; faults_cmd; ir_cmd; stats_cmd; zoo_cmd;
      explore_cmd; train_hw_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
