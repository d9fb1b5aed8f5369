(* serve-mix: a Db_serve daemon (2 workers, ephemeral loopback port) in a
   process of its own, restarted over a persistent store an earlier daemon
   instance filled.  Two closed-loop clients send a seeded mix: three quarters
   POST /simulate with 8 samples on MNIST, LeNet-5 or cifar-lite, one
   quarter POST /generate over the zoo minus VGG16, served as warm cache
   hits.  Protocol, the Design_cache key and lookup, Db_store and the
   per-request bind plus batch playback do the work; no other workload
   measures those layers. *)

module Serve = Db_serve.Serve
module Protocol = Db_serve.Protocol
module Json = Db_util.Minijson
module Design_cache = Db_core.Design_cache
module Tensor = Db_tensor.Tensor
module Rng = Common.Rng

let gen_models = List.filter (fun m -> m <> "vgg16") (List.map fst Common.zoo)
(* Simulate models and their requests per block.  Alone, a generate hit
   takes ~0.5 ms and a simulate ~7 ms on MNIST, ~11 ms on cifar-lite and
   ~28 ms on LeNet-5; the weights sum to three times the generate models. *)
let sim_models = [ ("mnist", 6); ("cifar-lite", 16); ("lenet5", 11) ]
let seeds_per_model = 4
let samples = 8
let clients = 2

(* Passes over the distinct requests after the traced phase. *)
let probe_passes = 3

type route = Generate | Simulate

type request = {
  route : route;
  model : string;
  seed : int;
  body : string;
  mutable expect : string;  (** the digest every reply must carry *)
}

let request route model seed =
  let m = Protocol.json_escape (Common.source model) in
  let body =
    match route with
    | Generate -> Printf.sprintf {|{"model":"%s"}|} m
    | Simulate ->
        Printf.sprintf {|{"model":"%s","samples":%d,"seed":%d}|} m samples seed
  in
  { route; model; seed; body; expect = "" }

let path = function Generate -> "/generate" | Simulate -> "/simulate"
let digest_field = function Generate -> "rtl_sha256" | Simulate -> "output_sha256"

let route_span = function
  | Generate -> "serve.generate"
  | Simulate -> "serve.simulate"

let post port ?(body = fun r -> r.body) r =
  Protocol.request ~port ~meth:"POST" ~path:(path r.route) ~body:(body r) ()

let string_field name body =
  match Json.member name (Json.parse body) with
  | Some (Json.String s) -> Some s
  | _ | (exception _) -> None

(* The reply's field [name], or the classified failure a non-200 reply
   stands for. *)
let reply_field r name (status, body) =
  if status = 200 then
    match string_field name body with
    | Some d -> Ok d
    | None -> Error ("output-check", "reply without " ^ name)
  else
    Error
      ( Option.value (string_field "class" body) ~default:"http",
        Printf.sprintf "%s %s answered %d" (path r.route) r.model status )

(* A reply must carry the digest setup established for its request. *)
let check r reply =
  match reply_field r (digest_field r.route) reply with
  | Error e -> Error e
  | Ok d when d = r.expect -> Ok ()
  | Ok d ->
      Error
        ( "output-check",
          Printf.sprintf "%s %s: digest %s, expected %s" (path r.route) r.model d
            r.expect )

let daemon_config store =
  { Serve.default_config with Serve.port = 0; workers = 2; store_dir = Some store }

(* The measured daemon runs in a process of its own, as `deepburning serve`
   does, started in this executable's [daemon] mode.  Inside the client's
   process, the client domains took part in every stop-the-world
   collection of the daemon's workers: on the tuning host a slow spell
   then halved serve-mix's throughput, while gen-large, whose workers are
   single-domain processes, lost at most a fifth. *)
type daemon = { pid : int; port : int; out : in_channel }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Common.reap d.pid);
  close_in_noerr d.out

let start_daemon store =
  let pid, out = Common.spawn_running [ "daemon"; "--store"; store ] in
  match Scanf.sscanf_opt (input_line out) "port %d" Fun.id with
  | Some port -> { pid; port; out }
  | None | (exception End_of_file) ->
      stop_daemon { pid; port = 0; out };
      Common.Error.fail "the serve-mix daemon did not start"

(* [daemon] mode: serve until SIGTERM, then drain. *)
let daemon ~store =
  Serve.run
    ~on_ready:(fun port -> Printf.printf "port %d\n%!" port)
    (daemon_config store)

(* The earlier daemon instance: it generates every served model once, so
   its designs are in the store when the measured daemon starts. *)
let prefill ~store =
  let d = Serve.start (daemon_config store) in
  Fun.protect
    ~finally:(fun () -> Serve.stop d)
    (fun () ->
      List.iter
        (fun m ->
          let r = request Generate m 0 in
          match reply_field r "rtl_sha256" (post (Serve.port d) r) with
          | Ok _ -> ()
          | Error (cls, msg) -> Common.Error.fail "prefill [%s]: %s" cls msg)
        gen_models)

(* What /simulate computes, by calling the same library functions: Xavier
   parameters, then the inputs, from one generator seeded by the request. *)
let sim_batch seed network =
  let rng = Rng.create seed in
  let params = Db_nn.Params.init_xavier rng network in
  let blob, shape = Common.input_of network in
  ( params,
    List.init samples (fun _ ->
        [ (blob, Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0) ]) )

let cycle_budget = Serve.default_config.Serve.cycle_budget

(* The daemon's output digest: SHA-256 over every value as "%h;". *)
let output_digest outputs =
  let buf = Buffer.create 1024 in
  List.iter (Tensor.fold (fun () v -> Printf.bprintf buf "%h;" v) ()) outputs;
  Db_store.Sha256.hex (Buffer.contents buf)

let metrics port =
  match Protocol.request ~port ~meth:"GET" ~path:"/metrics" () with
  | 200, body ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
          | _ -> None)
        (Common.lines body)
  | status, _ -> Common.Error.fail "GET /metrics answered %d" status

type t = {
  daemon : daemon;
  cons : Db_core.Constraints.t;
  requests : request array;
      (** every distinct request: the generates, then each simulate model's
          seeds *)
  rng : Rng.t;
  setup_counts : (string * float) list;  (** GET /metrics after setup *)
  lookup_s : float list;  (** standalone Disk_store.lookup per model *)
  lock : Mutex.t;
  mutable route_latencies : (route * float) list;  (** untraced requests *)
  mutable overheads : float list;  (** round trip - handler calls *)
  mutable blocks : int;
}

(* A block holds each generate model once and each simulate model its
   weight in requests (its seeds in turn): 11 + 33 requests, three quarters
   simulate.  One op is one block, shuffled by the seed: single requests
   (~0.5-30 ms) swung with the host's speed by more than the metric
   bounds, and a whole block also gives every op the same mix. *)
let block =
  let g = List.length gen_models in
  Array.of_list
    (List.init g Fun.id
    @ List.concat
        (List.mapi
           (fun mi (_, weight) ->
             List.init weight (fun j ->
                 g + (mi * seeds_per_model) + (j mod seeds_per_model)))
           sim_models))

let lookups ~store cons =
  let s = Db_store.Disk_store.open_store ~dir:store () in
  List.map
    (fun m ->
      let key =
        Design_cache.cache_key cons (Db_nn.Caffe.import_string (Common.source m))
      in
      let t0 = Trace.now_s () in
      (match Db_store.Disk_store.lookup s ~key with
      | Some _ -> ()
      | None -> Common.Error.fail "the store lost %s" m);
      Trace.now_s () -. t0)
    gen_models

(* The expected digest of a generate request.  The reply to the same
   request with its Verilog included must match the committed RTL pin, so
   a design the store decoded wrongly cannot set the expectation. *)
let expect_generate port pin r =
  let with_rtl r =
    String.sub r.body 0 (String.length r.body - 1) ^ {|,"include_rtl":true}|}
  in
  let reply = post port ~body:with_rtl r in
  match (reply_field r "verilog" reply, reply_field r "rtl_sha256" reply) with
  | Error (cls, msg), _ | _, Error (cls, msg) ->
      Common.Error.fail "serve setup [%s]: %s" cls msg
  | Ok verilog, Ok sha ->
      let md5 = Digest.to_hex (Digest.string verilog) in
      if md5 <> Common.pinned pin r.model then
        Common.Error.fail "/generate %s: RTL md5 %s differs from the pinned %s"
          r.model md5 (Common.pinned pin r.model);
      if sha <> Db_store.Sha256.hex verilog then
        Common.Error.fail "/generate %s: rtl_sha256 is not the digest of its RTL"
          r.model;
      sha

(* The expected digest of a simulate request, from a design generated
   here without Design_cache, so not the value the daemon serves. *)
let expect_simulate cons =
  let designs = Hashtbl.create 4 in
  fun r ->
    let network = Db_nn.Caffe.import_string (Common.source r.model) in
    let design =
      match Hashtbl.find_opt designs r.model with
      | Some d -> d
      | None ->
          let d = Db_core.Generator.generate cons network in
          Hashtbl.replace designs r.model d;
          d
    in
    let params, batch = sim_batch r.seed network in
    output_digest
      (Db_sim.Simulator.functional_output_batch ~cycle_budget design params ~batch)

(* Warm restart: start the daemon over the store and send every distinct
   request once (disk hits fill the in-memory cache, traces compile), each
   reply checked against an expectation set independently of it. *)
let setup ~seed ~store ~trace =
  let rng = Rng.create seed in
  let cons = Common.constraints () in
  let pin = Common.load_pin () in
  let sims =
    List.concat_map
      (fun (m, _) ->
        List.init seeds_per_model (fun _ ->
            request Simulate m (Rng.int rng 1_000_000_000)))
      sim_models
  in
  let requests =
    Array.of_list (List.map (fun m -> request Generate m 0) gen_models @ sims)
  in
  let daemon = start_daemon store in
  let port = daemon.port in
  try
    let simulate = expect_simulate cons in
    Array.iter
      (fun r ->
        match r.route with
        | Generate -> r.expect <- expect_generate port pin r
        | Simulate -> (
            r.expect <- simulate r;
            match check r (post port r) with
            | Ok () -> ()
            | Error (cls, msg) -> Common.Error.fail "serve setup [%s]: %s" cls msg))
      requests;
    {
      daemon;
      cons;
      requests;
      rng;
      setup_counts = metrics port;
      lookup_s = (if trace then lookups ~store cons else []);
      lock = Mutex.create ();
      route_latencies = [];
      overheads = [];
      blocks = 0;
    }
  with e ->
    stop_daemon daemon;
    raise e

let stop t = stop_daemon t.daemon
let rss_kb t = Common.peak_rss_kb ~pid:(string_of_int t.daemon.pid) ()

(* [clients] closed loops share one seeded sequence of whole blocks.  A
   block's latency runs from its first request's send to its last reply. *)
let run t tally ~deadline =
  let order = Array.copy block in
  let next_block () =
    Rng.shuffle t.rng order;
    t.blocks <- t.blocks + 1;
    (t.blocks, List.map (fun i -> t.requests.(i)) (Array.to_list order))
  in
  Common.blocks ~loops:clients ~next_block ~deadline tally (fun ~op r ->
      let t0 = Trace.now_s () in
      let outcome =
        check r (Trace.span ~op (route_span r.route) (fun _ -> post t.daemon.port r))
      in
      if outcome = Ok () && not !Trace.enabled then begin
        let l = Trace.now_s () -. t0 in
        Mutex.lock t.lock;
        t.route_latencies <- (r.route, l) :: t.route_latencies;
        Mutex.unlock t.lock
      end;
      outcome)

(* The handler's library calls for one request, each timed standalone.
   Returns the seconds they took, less bind, which the batch call repeats
   inside itself. *)
let standalone t ~op r =
  let total = ref 0.0 in
  let call ?(counted = true) name f =
    let t0 = Trace.now_s () in
    let v = Trace.span ~op name (fun _ -> f ()) in
    if counted then total := !total +. (Trace.now_s () -. t0);
    v
  in
  let network =
    call "nn.caffe" (fun () -> Db_nn.Caffe.import_string (Common.source r.model))
  in
  ignore (call "core.cache_key" (fun () -> Design_cache.cache_key t.cons network));
  let design = call "core.cache_hit" (fun () -> Design_cache.generate t.cons network) in
  (match r.route with
  | Generate -> ()
  | Simulate ->
      let params, batch = call "nn.params_init" (fun () -> sim_batch r.seed network) in
      ignore
        (call ~counted:false "sim.specialize_bind" (fun () ->
             Db_sim.Specialize.bind (Db_sim.Specialize.of_design design) params));
      let outputs =
        call "sim.batch" (fun () ->
            Db_sim.Simulator.functional_output_batch ~cycle_budget design params
              ~batch)
      in
      ignore (call "store.sha256" (fun () -> output_digest outputs)));
  !total

(* After the traced phase, with no other request in flight: each distinct
   request's round trip, then the handler's library calls made directly.
   serve.protocol_overhead_ms is the first less the second, both taken on
   an idle daemon.  This process's Design_cache is filled first, as the
   daemon's is, so the direct calls hit it too. *)
let probe t tally =
  let port = t.daemon.port in
  List.iter
    (fun m ->
      ignore (Design_cache.generate t.cons (Db_nn.Caffe.import_string (Common.source m))))
    gen_models;
  for _ = 1 to probe_passes do
    Array.iter
      (fun r ->
        t.blocks <- t.blocks + 1;
        let op = t.blocks in
        match
          Common.timed_op tally (fun () ->
              check r (Trace.span ~op (route_span r.route) (fun _ -> post port r)))
        with
        | None -> ()
        | Some round_trip ->
            t.overheads <- (round_trip -. standalone t ~op r) :: t.overheads)
      t.requests
  done

let props t =
  let designs =
    List.map
      (fun m ->
        Design_cache.generate t.cons (Db_nn.Caffe.import_string (Common.source m)))
      gen_models
  in
  ( Stats.geomean
      (List.map
         (fun d -> float_of_int (Db_sim.Simulator.timing d).Db_sim.Simulator.total_cycles)
         designs),
    Stats.geomean
      (List.map
         (fun d -> float_of_int (Db_core.Design.resource_usage d).Db_fpga.Resource.luts)
         designs) )

let layers t =
  let self = Trace.self_by_name () in
  let mean_ms name = Stats.mean (self name) *. 1e3 in
  let route_p50 route =
    match
      List.filter_map (fun (r, l) -> if r = route then Some l else None) t.route_latencies
    with
    | [] -> 0.0
    | l -> Stats.median (Array.of_list l) *. 1e3
  in
  (* Requests served and store tiers at setup, which sends each distinct
     request once, so they repeat exactly; errors and sheds over the whole
     run, which must stay 0. *)
  let count ?(counts = t.setup_counts) name =
    Option.value (List.assoc_opt name counts) ~default:0.0
  in
  let final = metrics t.daemon.port in
  (* The daemon's Design_cache lookups since setup. *)
  let since name = count ~counts:final name -. count name in
  let hits = since "design_cache.hits" in
  let lookups = hits +. since "design_cache.misses" in
  Printf.printf "core.cache_hit_ratio: %.0f hits of %.0f Design_cache lookups\n"
    hits lookups;
  [
    ("serve.simulate_p50_ms", route_p50 Simulate);
    ("serve.generate_p50_ms", route_p50 Generate);
    ("sim.batch_ms", mean_ms "sim.batch");
    ("sim.specialize_bind_ms", mean_ms "sim.specialize_bind");
    ("nn.params_init_ms", mean_ms "nn.params_init");
    ("store.sha256_ms", mean_ms "store.sha256");
    ("core.cache_key_ms", mean_ms "core.cache_key");
    ("core.cache_hit_ms", mean_ms "core.cache_hit");
    ("nn.caffe_ms", mean_ms "nn.caffe");
    ("serve.protocol_overhead_ms", Stats.mean t.overheads *. 1e3);
    ("store.lookup_ms", Stats.mean t.lookup_s *. 1e3);
    ( "core.cache_hit_ratio",
      if lookups = 0.0 then 0.0 else hits /. lookups );
    ("serve.ok", count "serve.ok");
    ("serve.errors", count ~counts:final "serve.errors");
    ("serve.shed", count ~counts:final "serve.shed");
    ("serve.store_hit", count "serve.store.hit");
    ("serve.store_miss", count "serve.store.miss");
  ]
