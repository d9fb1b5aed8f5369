(* `deepburning serve`: accelerator generation as a supervised service.

   One accept domain plus a fixed pool of worker domains.  The accept
   loop does admission control only — if the bounded queue is full the
   connection is shed immediately with a 503 + Retry-After (explicit
   backpressure instead of unbounded buffering).  Workers parse, apply
   per-client quotas and queue-wait deadlines, and run the request
   through the same [Design_cache] front door as the CLI, so the
   in-memory first level, the persistent second level ([Db_store]) and
   the domain pool underneath the generator/simulator are all shared.

   Failure surface: every response body carries the request's
   [Error.failure_class]; a poisoned store entry is regenerated rather
   than reported; only unclassified exceptions (a simulation engine bug
   among them: there is no fallback engine to hide it) produce a 500.
   SIGTERM/SIGINT (via [run]) stop the accept loop, drain every queued
   and in-flight request, then return. *)

module Error = Db_util.Error
module Json = Db_util.Minijson
module Obs = Db_obs.Obs

type config = {
  port : int;  (** 0 picks an ephemeral port (tests) *)
  host : string;
  workers : int;
  queue_capacity : int;  (** queued connections beyond this are shed *)
  per_client_quota : int;  (** concurrently *processed* requests per client *)
  queue_deadline_s : float;  (** shed work that waited longer than this *)
  cycle_budget : int;  (** watchdog budget for simulation requests *)
  max_body : int;
  store_dir : string option;  (** persistent design store root *)
  store_max_bytes : int option;  (** LRU-compact the store to this size *)
}

let default_config =
  {
    port = 8317;
    host = "127.0.0.1";
    workers = 4;
    queue_capacity = 64;
    per_client_quota = 8;
    queue_deadline_s = 30.0;
    cycle_budget = 50_000_000;
    max_body = 4 * 1024 * 1024;
    store_dir = None;
    store_max_bytes = None;
  }

type job = {
  fd : Unix.file_descr;
  peer : string;
  enqueued_at : float;
}

type counters = {
  requests : int Atomic.t;  (** responses written, any status *)
  ok : int Atomic.t;
  errors : int Atomic.t;  (** classified error responses *)
  shed : int Atomic.t;  (** queue-full + deadline sheds *)
  quota_rejected : int Atomic.t;
}

type t = {
  cfg : config;
  sock : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  inflight : (string, int) Hashtbl.t;  (** per client, guarded by qlock *)
  store : Db_store.Disk_store.t option;
  c : counters;
  mutable accept_domain : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
}

let port t = t.bound_port

let default_constraint_script =
  {|constraint { device: "zynq-7045" dsps: 16 luts: 60000 ffs: 40000 bram_kb: 1024 }|}

(* --- request handling ---------------------------------------------------- *)

let field_string json name =
  match Json.member name json with
  | Some (Json.String s) -> Some s
  | Some _ ->
      Error.failf_at ~component:"serve-request" "field %S must be a string" name
  | None -> None

let field_bool json name default =
  match Json.member name json with
  | Some (Json.Bool b) -> b
  | Some _ ->
      Error.failf_at ~component:"serve-request" "field %S must be a boolean" name
  | None -> default

let field_int json name default =
  match Json.member name json with
  | Some (Json.Number f) -> int_of_float f
  | Some _ ->
      Error.failf_at ~component:"serve-request" "field %S must be a number" name
  | None -> default

(* Body JSON -> (network, constraints, tiling).  [Minijson] and the
   prototxt frontend both raise classified errors; a stack overflow from
   absurd nesting is converted to one too, so hostile input cannot crash
   a worker. *)
let parse_work_request body =
  let json =
    match Json.parse body with
    | j -> j
    | exception Stack_overflow ->
        Error.failf_at ~component:"json" "body nested too deeply"
  in
  let model =
    match field_string json "model" with
    | Some m -> m
    | None ->
        Error.failf_at ~component:"serve-request" "missing required field \"model\""
  in
  let constraint_script =
    Option.value (field_string json "constraint") ~default:default_constraint_script
  in
  let tiling = field_bool json "tiling" true in
  let network = Db_nn.Caffe.import_string model in
  let cons = Db_core.Constraints.parse constraint_script in
  (json, network, cons, tiling)

(* RTL text and its fingerprint are derived artifacts of the canonical
   design value: render and hash once per design per process. *)
module Rtl_artifact = Db_core.Design_cache.Artifact (struct
  type t = string * string (* verilog, sha256 *)
end)

let rtl_of design =
  Rtl_artifact.find design ~compile:(fun d ->
      let v = Db_core.Design.verilog d in
      (v, Db_store.Sha256.hex v))

let design_json ?(include_rtl = false) design =
  let verilog, sha = rtl_of design in
  let r = Db_core.Design.resource_usage design in
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "{\"status\":\"ok\",\"rtl_sha256\":%S,\"lanes\":%d,\"resources\":{\"luts\":%d,\"ffs\":%d,\"dsps\":%d,\"bram_bits\":%d}"
    sha (Db_core.Design.lanes design) r.Db_fpga.Resource.luts
    r.Db_fpga.Resource.ffs r.Db_fpga.Resource.dsps r.Db_fpga.Resource.bram_bits;
  if include_rtl then
    Printf.bprintf buf ",\"verilog\":\"%s\"" (Protocol.json_escape verilog);
  Buffer.add_string buf "}";
  Buffer.contents buf

let handle_generate t body =
  ignore t;
  let json, network, cons, tiling = parse_work_request body in
  let design = Db_core.Design_cache.generate ~tiling_enabled:tiling cons network in
  let include_rtl = field_bool json "include_rtl" false in
  (200, design_json ~include_rtl design)

let tensor_fingerprint tensors =
  let buf = Buffer.create 1024 in
  List.iter
    (fun tensor ->
      ignore
        (Db_tensor.Tensor.fold
           (fun () v ->
             Printf.bprintf buf "%h;" v)
           () tensor))
    tensors;
  Db_store.Sha256.hex (Buffer.contents buf)

let handle_simulate t body =
  let json, network, cons, tiling = parse_work_request body in
  let design = Db_core.Design_cache.generate ~tiling_enabled:tiling cons network in
  let samples = field_int json "samples" 1 in
  let seed = field_int json "seed" 42 in
  let cycle_budget = field_int json "cycle_budget" t.cfg.cycle_budget in
  if samples < 0 || samples > 1024 then
    Error.failf_at ~component:"serve-request" "samples must be in [0, 1024]";
  let report = Db_sim.Simulator.timing design in
  let output_sha =
    if samples = 0 then ""
    else begin
      let rng = Db_util.Rng.create seed in
      let params = Db_nn.Params.init_xavier rng network in
      let blob, shape = Db_nn.Network.first_input network in
      let batch =
        List.init samples (fun _ ->
            [ (blob, Db_tensor.Tensor.random_uniform rng shape ~min:(-1.0) ~max:1.0) ])
      in
      tensor_fingerprint
        (Db_sim.Simulator.functional_output_batch ~cycle_budget design params
           ~batch)
    end
  in
  let body =
    Printf.sprintf
      "{\"status\":\"ok\",\"total_cycles\":%d,\"seconds\":%.9f,\"dram_bytes\":%d,\"energy_j\":%.9f,\"samples\":%d,\"output_sha256\":%S}"
      report.Db_sim.Simulator.total_cycles report.Db_sim.Simulator.seconds
      report.Db_sim.Simulator.dram_bytes report.Db_sim.Simulator.energy_j
      samples output_sha
  in
  (200, body)

let metrics_text t =
  let buf = Buffer.create 512 in
  let line name v = Printf.bprintf buf "%s %d\n" name v in
  line "serve.requests" (Atomic.get t.c.requests);
  line "serve.ok" (Atomic.get t.c.ok);
  line "serve.errors" (Atomic.get t.c.errors);
  line "serve.shed" (Atomic.get t.c.shed);
  line "serve.quota_rejected" (Atomic.get t.c.quota_rejected);
  Mutex.lock t.qlock;
  let depth = Queue.length t.queue in
  Mutex.unlock t.qlock;
  line "serve.queue_depth" depth;
  (match t.store with
  | None -> line "serve.store.attached" 0
  | Some store ->
      let s = Db_store.Disk_store.stats store in
      line "serve.store.attached" 1;
      line "serve.store.hit" s.Db_store.Disk_store.st_hits;
      line "serve.store.miss" s.Db_store.Disk_store.st_misses;
      line "serve.store.corrupt" s.Db_store.Disk_store.st_corrupt;
      line "serve.retries" s.Db_store.Disk_store.st_write_retries;
      line "serve.store.write_failed" s.Db_store.Disk_store.st_write_failures;
      line "serve.store.swept_tmp" s.Db_store.Disk_store.st_swept_tmp);
  let hits, misses = Db_core.Design_cache.stats () in
  line "design_cache.hits" hits;
  line "design_cache.misses" misses;
  (* The whole process's collector: every collection stops all domains,
     the workers' and the pool's alike. *)
  let gc = Gc.quick_stat () in
  line "gc.minor_collections" gc.Gc.minor_collections;
  line "gc.major_collections" gc.Gc.major_collections;
  line "gc.minor_words" (int_of_float gc.Gc.minor_words);
  line "gc.major_words" (int_of_float gc.Gc.major_words);
  Buffer.contents buf

let status_of_class = function
  | Error.Parse -> 400
  | Error.Validation -> 422
  | Error.Resource -> 422
  | Error.Simulation -> 422
  | Error.Watchdog -> 504
  | Error.Io -> 500
  | Error.Memory -> 507
  | Error.Internal -> 500

let client_key job req =
  match Protocol.header "x-client" req with
  | Some c when c <> "" -> c
  | _ -> job.peer

(* Quota slots are taken while a request is being *processed*; the
   bounded queue in front already limits how much unprocessed work can
   pile up in total. *)
let try_take_slot t key =
  Mutex.lock t.qlock;
  let current = Option.value (Hashtbl.find_opt t.inflight key) ~default:0 in
  let ok = current < t.cfg.per_client_quota in
  if ok then Hashtbl.replace t.inflight key (current + 1);
  Mutex.unlock t.qlock;
  ok

let release_slot t key =
  Mutex.lock t.qlock;
  (match Hashtbl.find_opt t.inflight key with
  | Some 1 | None -> Hashtbl.remove t.inflight key
  | Some n -> Hashtbl.replace t.inflight key (n - 1));
  Mutex.unlock t.qlock

let respond t fd ~status ~body ?(headers = []) () =
  Protocol.write_response fd ~status ~headers ~body ();
  Atomic.incr t.c.requests;
  Obs.incr "serve.requests";
  if status < 400 then Atomic.incr t.c.ok
  else if status = 503 then () (* counted at shed sites *)
  else Atomic.incr t.c.errors

let shed t fd reason =
  Atomic.incr t.c.shed;
  Obs.incr "serve.shed";
  respond t fd ~status:503
    ~headers:[ ("Retry-After", "1") ]
    ~body:(Protocol.shed_body ~retry_after_s:1)
    ();
  ignore reason

let handle_parsed t job req =
  match (req.Protocol.meth, req.Protocol.path) with
  | "GET", "/health" -> respond t job.fd ~status:200 ~body:"{\"status\":\"ok\"}\n" ()
  | "GET", "/metrics" -> respond t job.fd ~status:200 ~body:(metrics_text t) ()
  | "POST", ("/generate" | "/simulate") ->
      let key = client_key job req in
      if not (try_take_slot t key) then begin
        Atomic.incr t.c.quota_rejected;
        Obs.incr "serve.quota_rejected";
        respond t job.fd ~status:429
          ~headers:[ ("Retry-After", "1") ]
          ~body:
            (Protocol.error_body ~cls:"quota"
               ~message:
                 (Printf.sprintf "client %S exceeds its quota of %d concurrent requests"
                    key t.cfg.per_client_quota))
          ()
      end
      else
        Fun.protect
          ~finally:(fun () -> release_slot t key)
          (fun () ->
            let status, body =
              if req.Protocol.path = "/generate" then
                handle_generate t req.Protocol.body
              else handle_simulate t req.Protocol.body
            in
            respond t job.fd ~status ~body ())
  | _, ("/health" | "/metrics" | "/generate" | "/simulate") ->
      respond t job.fd ~status:405
        ~body:(Protocol.error_body ~cls:"validation" ~message:"method not allowed")
        ()
  | _, path ->
      respond t job.fd ~status:404
        ~body:
          (Protocol.error_body ~cls:"validation"
             ~message:("no such endpoint " ^ path))
        ()

let handle_job t job =
  let deadline_missed =
    Unix.gettimeofday () -. job.enqueued_at > t.cfg.queue_deadline_s
  in
  if deadline_missed then shed t job.fd "queue deadline"
  else
    match Protocol.read_request ~max_body:t.cfg.max_body job.fd with
    | Protocol.Malformed msg ->
        respond t job.fd ~status:400
          ~body:(Protocol.error_body ~cls:"parse" ~message:("bad request: " ^ msg))
          ()
    | Protocol.Too_large msg ->
        respond t job.fd ~status:413
          ~body:(Protocol.error_body ~cls:"validation" ~message:msg)
          ()
    | Protocol.Request req -> (
        match handle_parsed t job req with
        | () -> ()
        | exception e -> (
            match Error.classify_exn e with
            | Some cls ->
                let message =
                  Option.value (Error.message_of_exn e)
                    ~default:(Error.class_name cls ^ " error")
                in
                respond t job.fd ~status:(status_of_class cls)
                  ~body:(Protocol.error_body ~cls:(Error.class_name cls) ~message)
                  ()
            | None ->
                respond t job.fd ~status:500
                  ~body:
                    (Protocol.error_body ~cls:"internal"
                       ~message:(Printexc.to_string e))
                  ()))

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let worker_loop t =
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not (Atomic.get t.stop_flag) do
      Condition.wait t.qcond t.qlock
    done;
    if Queue.is_empty t.queue then begin
      (* stopping, and the queue is drained *)
      Mutex.unlock t.qlock;
      ()
    end
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.qlock;
      (* Slow or dead peers must not wedge a worker. *)
      (try
         Unix.setsockopt_float job.fd Unix.SO_RCVTIMEO 10.0;
         Unix.setsockopt_float job.fd Unix.SO_SNDTIMEO 10.0
       with Unix.Unix_error _ -> ());
      (try handle_job t job with _ -> ());
      close_quiet job.fd;
      loop ()
    end
  in
  loop ()

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else begin
      (match Unix.select [ t.sock ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.sock with
          | exception Unix.Unix_error _ -> ()
          | fd, addr ->
              let peer =
                match addr with
                | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
                | Unix.ADDR_UNIX p -> p
              in
              let job = { fd; peer; enqueued_at = Unix.gettimeofday () } in
              Mutex.lock t.qlock;
              let full = Queue.length t.queue >= t.cfg.queue_capacity in
              if not full then begin
                Queue.push job t.queue;
                Condition.signal t.qcond;
                Mutex.unlock t.qlock
              end
              else begin
                Mutex.unlock t.qlock;
                (* Shed on the accept domain: one small write, no queueing. *)
                shed t fd "queue full";
                close_quiet fd
              end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

let start cfg =
  (* Peers that hang up mid-response must cost an EPIPE, not the process. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let store =
    Option.map
      (fun dir ->
        let s =
          Db_store.Disk_store.open_store ?max_bytes:cfg.store_max_bytes ~dir
            ()
        in
        Db_store.Disk_store.attach s;
        s)
      cfg.store_dir
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     (* The kernel backlog is deliberately deeper than the admission
        queue: a burst is accepted and *explicitly* shed with a 503
        rather than refused at the TCP layer. *)
     Unix.listen sock (max 64 cfg.queue_capacity)
   with Unix.Unix_error (e, _, _) ->
     close_quiet sock;
     Error.failf_at ~component:"io-serve" "cannot bind %s:%d: %s" cfg.host
       cfg.port (Unix.error_message e));
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let t =
    {
      cfg;
      sock;
      bound_port;
      stop_flag = Atomic.make false;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      inflight = Hashtbl.create 16;
      store;
      c =
        {
          requests = Atomic.make 0;
          ok = Atomic.make 0;
          errors = Atomic.make 0;
          shed = Atomic.make 0;
          quota_rejected = Atomic.make 0;
        };
      accept_domain = None;
      worker_domains = [];
    }
  in
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t.worker_domains <-
    List.init (max 1 cfg.workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* Drain, don't abort: stop accepting, let the workers empty the queue
   and finish in-flight requests, then join every domain. *)
let stop t =
  Atomic.set t.stop_flag true;
  Option.iter Domain.join t.accept_domain;
  t.accept_domain <- None;
  close_quiet t.sock;
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock;
  List.iter Domain.join t.worker_domains;
  t.worker_domains <- [];
  if t.store <> None then Db_store.Disk_store.detach ()

let stats t =
  ( Atomic.get t.c.requests,
    Atomic.get t.c.ok,
    Atomic.get t.c.errors,
    Atomic.get t.c.shed )

let run ?(on_ready = fun (_ : int) -> ()) cfg =
  let t = start cfg in
  let prev_term =
    Sys.signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Atomic.set t.stop_flag true))
  in
  let prev_int =
    Sys.signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Atomic.set t.stop_flag true))
  in
  on_ready t.bound_port;
  (* The handlers only flip the flag; this loop notices and drains. *)
  while not (Atomic.get t.stop_flag) do
    Unix.sleepf 0.2
  done;
  stop t;
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int
