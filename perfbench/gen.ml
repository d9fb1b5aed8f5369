(* gen-large: every op is a block of four cold generations, AlexNet and
   NiN twice each under the default constraint, each in a fresh worker
   process, taken by two closed loops; every RTL is checked against
   test/golden_ir/zoo_rtl.md5.

   The fresh process is what keeps generation cold: Compiler's process-wide
   seq_fraction memo survives Design_cache.clear, so a second in-process
   generation of AlexNet costs ~0.02 s instead of ~0.8 s. *)

module Design = Db_core.Design
module CS = Db_core.Config_search

(* ~0.7 s (AlexNet) and ~0.8 s (NiN) each, Compiler.compile ~97% of it.
   VGG16 (5.4 s) is left out to keep runs short. *)
let models = [ "alexnet"; "nin" ]

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)

(* The stages Generator.generate composes, called in its order, each in a
   span of its own. *)
let generate_staged cons network =
  let stage name f = Trace.span ~op:0 name (fun _ -> f ()) in
  let ir =
    stage "ir.lower" (fun () ->
        let ir = Db_ir.Lower.lower ~fmt:cons.Db_core.Constraints.fmt network in
        Db_ir.Verify.check_exn ir;
        ir)
  in
  let picked = stage "core.config_search" (fun () -> CS.search cons ir) in
  let program =
    stage "core.compiler" (fun () ->
        Db_core.Compiler.compile ir ~datapath:picked.CS.datapath
          ~schedule:picked.CS.schedule ~layout:picked.CS.layout)
  in
  let rtl =
    stage "core.rtl" (fun () ->
        Db_core.Generator.build_rtl network picked.CS.datapath
          ~block_set:picked.CS.block_set ~program)
  in
  let design =
    {
      Design.network;
      ir;
      constraints = cons;
      datapath = picked.CS.datapath;
      schedule = picked.CS.schedule;
      layout = picked.CS.layout;
      block_set = picked.CS.block_set;
      program;
      rtl;
    }
  in
  (match
     stage "analysis.analyze" (fun () ->
         Db_analysis.Diagnostic.errors (Design.analyze design))
   with
  | [] -> ()
  | first :: _ ->
      Db_util.Error.failf_at ~component:"generator"
        "generated design failed static analysis: %s"
        (Db_analysis.Diagnostic.to_string first));
  stage "check.gate" (fun () -> Db_core.Checker.gate design);
  design

(* Prints one "design" line per model: its RTL md5, then (with [props])
   the counts that size the work and the design's simulated cycles and
   LUTs; then the worker's spans and its peak RSS. *)
let worker ~staged ~props models =
  Trace.enabled := staged;
  let cons = Common.constraints () in
  List.iter
    (fun name ->
      let network =
        Trace.span ~op:0 "nn.caffe" (fun _ ->
            Db_nn.Caffe.import_string (Common.source name))
      in
      let design =
        if staged then generate_staged cons network
        else Db_core.Generator.generate cons network
      in
      let verilog =
        Trace.span ~op:0 "hdl.verilog" (fun _ -> Design.verilog design)
      in
      let modules, fsms, cycles, luts =
        if props then
          ( List.length design.Design.rtl.Db_hdl.Rtl.modules,
            List.length (Db_core.Compiler.agu_pattern_fsms design.Design.program),
            (Db_sim.Simulator.timing design).Db_sim.Simulator.total_cycles,
            (Design.resource_usage design).Db_fpga.Resource.luts )
        else (0, 0, 0, 0)
      in
      Printf.printf "design %s %s %d %d %d %d %d\n" name
        (Digest.to_hex (Digest.string verilog))
        modules (String.length verilog) fsms cycles luts)
    models;
  List.iter
    (fun (s : Trace.span) ->
      Printf.printf "span %d %d %s %Ld %Ld\n" s.Trace.id s.Trace.parent
        s.Trace.name s.Trace.t0 s.Trace.t1)
    (Trace.all ());
  Printf.printf "rss_kb %d\n" (Common.peak_rss_kb ())

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)

type design_line = {
  name : string;
  md5 : string;
  modules : int;
  verilog_bytes : int;
  agu_fsms : int;
  cycles : int;
  luts : int;
}

(* Spawn one worker; its spans join the trace under [parent], op [op]. *)
let run_worker ~op ~parent ~staged ~props models =
  let args =
    ("worker" :: (if staged then [ "--staged" ] else []))
    @ (if props then [ "--props" ] else [])
    @ models
  in
  let out, exited_ok = Common.spawn_self args in
  let designs = ref [] and spans = ref [] and rss = ref 0 and error = ref None in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "design"; name; md5; m; b; f; c; l ] ->
          designs :=
            {
              name;
              md5;
              modules = int_of_string m;
              verilog_bytes = int_of_string b;
              agu_fsms = int_of_string f;
              cycles = int_of_string c;
              luts = int_of_string l;
            }
            :: !designs
      | [ "span"; id; p; name; t0; t1 ] ->
          spans :=
            (int_of_string id, int_of_string p, name, Int64.of_string t0,
             Int64.of_string t1)
            :: !spans
      | [ "rss_kb"; kb ] -> rss := int_of_string kb
      | "error" :: cls :: msg -> error := Some (cls, String.concat " " msg)
      | _ -> ())
    (Common.lines out);
  (* Worker ids are local to the worker: renumber, then re-parent its root
     spans under the op's span. *)
  let ids = Hashtbl.create 16 in
  List.iter (fun (id, _, _, _, _) -> Hashtbl.replace ids id (Trace.fresh_id ())) !spans;
  List.iter
    (fun (id, p, name, t0, t1) ->
      Trace.add
        {
          Trace.id = Hashtbl.find ids id;
          name;
          parent = (if p = 0 then parent else Hashtbl.find ids p);
          op;
          t0;
          t1;
        })
    !spans;
  match (!error, exited_ok) with
  | Some e, _ -> Error e
  | None, false -> Error ("internal", "worker exited abnormally")
  | None, true -> Ok (List.rev !designs, !rss)

let check_pin pin models designs =
  if List.map (fun d -> d.name) designs <> models then
    Error ("output-check", "worker did not report every model it was given")
  else
    match List.find_opt (fun d -> d.md5 <> Common.pinned pin d.name) designs with
    | Some d ->
        Error
          ( "output-check",
            Printf.sprintf "%s RTL md5 %s differs from the pinned %s" d.name
              d.md5 (Common.pinned pin d.name) )
    | None -> Ok ()

(* Two closed loops take the generations of one block as they free up.
   The two cores of the tuning host slowed down independently of each
   other (the correlation of their speeds over 10 s windows was about 0),
   in spells of tens of seconds; a block spread over both cores averages
   them, where one loop followed whichever core it ran on. *)
let loops = 2

(* One op is a block: each model twice, in seeded order.  Single-model ops
   put the median on the boundary between the AlexNet and NiN classes,
   where it jumped between them from run to run. *)
let block = models @ models

type t = {
  pin : (string * string) list;
  probe : design_line list;  (** one cold generation of every model *)
  rng : Common.Rng.t;
  lock : Mutex.t;
  mutable peak_rss_kb : int;
  mutable ops : int;
}

(* A probe worker generates every model of the workload once: it proves the
   pin holds before any op is timed and yields the design properties. *)
let setup ~seed =
  let pin = Common.load_pin () in
  match run_worker ~op:0 ~parent:0 ~staged:false ~props:true models with
  | Error (cls, msg) -> Common.Error.fail "gen probe failed [%s]: %s" cls msg
  | Ok (designs, _) -> (
      match check_pin pin models designs with
      | Error (_, msg) -> Common.Error.fail "%s" msg
      | Ok () ->
          {
            pin;
            probe = designs;
            rng = Common.Rng.create seed;
            lock = Mutex.create ();
            peak_rss_kb = 0;
            ops = 0;
          })

(* One generation, in a worker process of its own. *)
let generate t ~op model =
  Trace.span ~op "gen.worker" (fun parent ->
      match
        run_worker ~op ~parent ~staged:!Trace.enabled ~props:false [ model ]
      with
      | Error e -> Error e
      | Ok (designs, rss_kb) ->
          Mutex.lock t.lock;
          t.peak_rss_kb <- max t.peak_rss_kb rss_kb;
          Mutex.unlock t.lock;
          check_pin t.pin [ model ] designs)

let run t tally ~deadline =
  let next_block () =
    t.ops <- t.ops + 1;
    (t.ops, Common.shuffled t.rng block)
  in
  Common.blocks ~loops ~next_block ~deadline tally (generate t)

let props t =
  ( Stats.geomean (List.map (fun d -> float_of_int d.cycles) t.probe),
    Stats.geomean (List.map (fun d -> float_of_int d.luts) t.probe) )

(* Per-op self time of each stage, in ms, over the [ops] traced ops. *)
let layers t ~ops =
  let self = Trace.self_by_name () in
  let per_op name =
    List.fold_left ( +. ) 0.0 (self name) *. 1000.0 /. float_of_int (max 1 ops)
  in
  let count f = float_of_int (List.fold_left (fun acc d -> acc + f d) 0 t.probe) in
  [
    ("core.compiler_ms", per_op "core.compiler");
    ("core.rtl_ms", per_op "core.rtl");
    ("analysis.analyze_ms", per_op "analysis.analyze");
    ("nn.caffe_ms", per_op "nn.caffe");
    ("ir.lower_ms", per_op "ir.lower");
    ("core.config_search_ms", per_op "core.config_search");
    ("check.gate_ms", per_op "check.gate");
    ("hdl.verilog_ms", per_op "hdl.verilog");
    ("gen.process_ms", per_op "gen.worker");
    ("hdl.rtl_modules", count (fun d -> d.modules));
    ("hdl.verilog_bytes", count (fun d -> d.verilog_bytes));
    ("core.agu_fsms", count (fun d -> d.agu_fsms));
  ]
