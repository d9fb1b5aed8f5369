(* The benchmark behind BENCHMARK.json.  perfbench/run.py builds this
   executable and runs, from the root of a checkout,

     harness.exe --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is the result object.  The other entry
   points are its own child processes: [worker] (one cold generation),
   [setup] (one more timed setup of a workload), [prefill] (the daemon
   instance that fills serve-mix's store) and [daemon] (the daemon
   serve-mix measures). *)

let workloads = [ "gen-large"; "serve-mix" ]

(* Each run sets up this many times, once in-process and the rest in fresh
   processes, and reports the median. *)
let setups = 3

(* Run state inside the checkout: serve-mix's store while it runs, and the
   span files traced runs write. *)
let state_dir = ".perfbench"

let e2e_units =
  [
    ("throughput", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("sim_cycles_geomean", "cycles");
    ("luts_geomean", "LUTs");
  ]

(* Every per-layer metric; a traced run reports 0 for the layers its
   workload does not exercise. *)
let layer_units =
  [
    ("core.compiler_ms", "ms");
    ("core.rtl_ms", "ms");
    ("analysis.analyze_ms", "ms");
    ("nn.caffe_ms", "ms");
    ("ir.lower_ms", "ms");
    ("core.config_search_ms", "ms");
    ("check.gate_ms", "ms");
    ("hdl.verilog_ms", "ms");
    ("gen.process_ms", "ms");
    ("hdl.rtl_modules", "count");
    ("hdl.verilog_bytes", "bytes");
    ("core.agu_fsms", "count");
    ("sim.specialize_qoutput_us", "us");
    ("sim.specialize_rebind_us", "us");
    ("fault.site_enumerate_ms", "ms");
    ("sim.replay_control_ms", "ms");
    ("fault.campaign_ms", "ms");
    ("sim.specialize_compile_ms", "ms");
    ("sim.specialize_bind_ms", "ms");
    ("fault.injections", "count");
    ("fault.masked", "count");
    ("fault.sdc", "count");
    ("fault.top1_flips", "count");
    ("fault.hangs", "count");
    ("fault.space_bits", "bits");
    ("serve.simulate_p50_ms", "ms");
    ("serve.generate_p50_ms", "ms");
    ("sim.batch_ms", "ms");
    ("nn.params_init_ms", "ms");
    ("store.sha256_ms", "ms");
    ("core.cache_key_ms", "ms");
    ("core.cache_hit_ms", "ms");
    ("serve.protocol_overhead_ms", "ms");
    ("store.lookup_ms", "ms");
    ("core.cache_hit_ratio", "ratio");
    ("serve.ok", "count");
    ("serve.errors", "count");
    ("serve.shed", "count");
    ("serve.store_hit", "count");
    ("serve.store_miss", "count");
    ("trace.overhead_ratio", "x");
  ]

type runner = {
  run : Common.tally -> deadline:float -> unit;
  props : unit -> float * float;  (** sim cycles and LUT geomeans *)
  rss_kb : unit -> int;  (** peak RSS of the process doing the work *)
  probe : unit -> Common.tally list;
      (** traced calls made after the traced phase, with no load running *)
  layers : ops:int -> (string * float) list;
  stop : unit -> unit;
}

let start workload ~seed ~store ~trace =
  match (workload, store) with
  | "gen-large", _ ->
      let t = Gen.setup ~seed in
      {
        run = Gen.run t;
        props = (fun () -> Gen.props t);
        rss_kb = (fun () -> t.Gen.peak_rss_kb);
        probe = (fun () -> []);
        layers = Gen.layers t;
        stop = ignore;
      }
  | "serve-mix", Some store ->
      let t = Serve_mix.setup ~seed ~store ~trace in
      let faults = ref None in
      let once f = Common.phase ~seconds:0.0 (fun tally ~deadline:_ -> f tally) in
      let probe () =
        let serve = once (Serve_mix.probe t) in
        (* The fault-campaign layers share serve-mix's Specialize engine and
           are measured here, with one traced sweep. *)
        let f = Faults.setup ~seed in
        faults := Some f;
        [ serve; once (Faults.sweep f) ]
      in
      {
        run = Serve_mix.run t;
        props = (fun () -> Serve_mix.props t);
        rss_kb = (fun () -> Serve_mix.rss_kb t);
        probe;
        layers =
          (fun ~ops:_ ->
            Serve_mix.layers t @ Option.fold ~none:[] ~some:Faults.layers !faults);
        stop = (fun () -> Serve_mix.stop t);
      }
  | "serve-mix", None -> Common.Error.fail "serve-mix needs a prefilled store"
  | w, _ ->
      Common.Error.fail "unknown workload %S (one of %s)" w
        (String.concat ", " workloads)

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let store_args = function Some s -> [ "--store"; s ] | None -> []

(* One more setup of [workload], in a fresh process. *)
let setup_elsewhere workload ~seed ~store =
  match
    Common.spawn_self
      ([ "setup"; "--workload"; workload; "--seed"; string_of_int seed ]
      @ store_args store)
  with
  | out, true -> (
      match
        List.find_map
          (fun l -> Scanf.sscanf_opt l "setup_s %f" Fun.id)
          (Common.lines out)
      with
      | Some s -> s
      | None -> Common.Error.fail "a %s setup process reported no time" workload)
  | _, false -> Common.Error.fail "a %s setup process failed" workload

let throughput (t : Common.tally) =
  float_of_int (t.Common.attempted - t.Common.failed) /. t.Common.elapsed

let print_result ~correct ~attempted ~failed metrics =
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (value v) unit)
          metrics))

let end_to_end r (t : Common.tally) ~setup_times =
  let lat = Array.of_list t.Common.latencies in
  let tail, pct = Stats.tail lat in
  let cycles, luts = r.props () in
  Printf.printf "setup_s: median of %d setups (%s s)\n"
    (List.length setup_times)
    (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times));
  Printf.printf "latency_tail_ms: p%.2f of %d ops (10 beyond it)\n" pct
    (Array.length lat);
  List.map2
    (fun (name, unit) v -> (name, unit, v))
    e2e_units
    [
      throughput t;
      Stats.median lat *. 1e3;
      tail *. 1e3;
      Stats.median (Array.of_list setup_times);
      float_of_int (r.rss_kb ()) /. 1024.0;
      cycles;
      luts;
    ]

(* The traced run: half the time untraced, half traced, so it states its
   own overhead; per-layer numbers come from the traced half. *)
let per_layer r ~workload ~seed ~seconds =
  let plain = Common.phase ~seconds:(seconds /. 2.0) r.run in
  Trace.enabled := true;
  let traced = Common.phase ~seconds:(seconds /. 2.0) r.run in
  let probed = r.probe () in
  Trace.enabled := false;
  let spans =
    Filename.concat state_dir (Printf.sprintf "spans-%s-seed%d.json" workload seed)
  in
  Trace.write_json spans;
  Printf.printf "spans: %d written to %s\n" (List.length (Trace.all ())) spans;
  Printf.printf "trace overhead: %.3f ops/s untraced, %.3f ops/s traced\n"
    (throughput plain) (throughput traced);
  let measured =
    ("trace.overhead_ratio", throughput plain /. throughput traced)
    :: r.layers ~ops:(traced.Common.attempted - traced.Common.failed)
  in
  ( plain :: traced :: probed,
    List.map
      (fun (name, unit) ->
        (name, unit, Option.value (List.assoc_opt name measured) ~default:0.0))
      layer_units )

let measure workload ~seed ~seconds ~trace =
  Printf.printf "workload %s, seed %d, %g s, trace %b\n%!" workload seed seconds
    trace;
  if not (List.mem workload workloads) then
    Common.Error.fail "unknown workload %S (one of %s)" workload
      (String.concat ", " workloads);
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  let store =
    if workload = "serve-mix" then
      Some (Filename.concat state_dir (Printf.sprintf "store-%d" (Unix.getpid ())))
    else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter remove store)
    (fun () ->
      if store <> None && not (snd (Common.spawn_self ("prefill" :: store_args store)))
      then Common.Error.fail "the serve-mix store prefill failed";
      let elsewhere =
        List.init (setups - 1) (fun _ -> setup_elsewhere workload ~seed ~store)
      in
      let t0 = Trace.now_s () in
      let r = start workload ~seed ~store ~trace in
      let setup_times = (Trace.now_s () -. t0) :: elsewhere in
      Fun.protect ~finally:r.stop (fun () ->
          let tallies, metrics =
            if trace then per_layer r ~workload ~seed ~seconds
            else
              let t = Common.phase ~seconds r.run in
              ([ t ], end_to_end r t ~setup_times)
          in
          let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
          let attempted = sum (fun t -> t.Common.attempted)
          and failed = sum (fun t -> t.Common.failed) in
          (* error_rate is 0 at a correct commit, so it travels as the
             result's attempted and failed counts, not as a bounded metric. *)
          Printf.printf "error_rate: %d failed of %d attempted ops\n" failed
            attempted;
          let correct =
            failed = 0 && attempted > 0
            && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics
          in
          print_result ~correct ~attempted ~failed metrics))

let () =
  (* Every workload runs at one domain-pool worker. *)
  Unix.putenv "DEEPBURNING_JOBS" "1";
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name args =
    match opt name args with
    | Some v -> v
    | None -> Common.Error.fail "missing %s" name
  in
  let seed args = int_of_string (req "--seed" args) in
  match args with
  | "worker" :: rest -> (
      let flags, models =
        List.partition (String.starts_with ~prefix:"--") rest
      in
      try
        Gen.worker ~staged:(List.mem "--staged" flags)
          ~props:(List.mem "--props" flags) models
      with e ->
        Printf.printf "error %s %s\n%!" (Common.failure_class e)
          (String.map (fun c -> if c = '\n' then ' ' else c) (Common.describe e));
        exit 1)
  | "setup" :: rest ->
      let t0 = Trace.now_s () in
      let r =
        start (req "--workload" rest) ~seed:(seed rest) ~store:(opt "--store" rest)
          ~trace:false
      in
      let s = Trace.now_s () -. t0 in
      r.stop ();
      Printf.printf "setup_s %.9f\n" s
  | "prefill" :: rest -> Serve_mix.prefill ~store:(req "--store" rest)
  | "daemon" :: rest -> Serve_mix.daemon ~store:(req "--store" rest)
  | _ -> (
      try
        measure (req "--workload" args) ~seed:(seed args)
          ~seconds:(float_of_string (req "--seconds" args))
          ~trace:(opt "--trace" args = Some "1")
      with e ->
        Printf.eprintf "perfbench: [%s] %s\n%!" (Common.failure_class e)
          (Common.describe e);
        print_result ~correct:false ~attempted:1 ~failed:1
          (List.map (fun (n, u) -> (n, u, 0.0)) e2e_units);
        exit 1)
