(* What every workload shares: the model zoo, the default constraint, the
   committed RTL pin, seeded orders, child processes and op bookkeeping. *)

module Error = Db_util.Error
module Rng = Db_util.Rng
module Zoo = Db_workloads.Model_zoo

let zoo =
  [
    ("mlp", Zoo.mlp_prototxt);
    ("cmac", Zoo.cmac_prototxt);
    ("mnist", Zoo.mnist_prototxt);
    ("cifar", Zoo.cifar_prototxt);
    ("cifar-lite", Zoo.cifar_lite_prototxt);
    ("alexnet", Zoo.alexnet_prototxt);
    ("nin", Zoo.nin_prototxt);
    ("googlenet-like", Zoo.googlenet_like_prototxt);
    ("hopfield", Zoo.hopfield_prototxt ~cities:5);
    ("lenet5", Zoo.lenet5_prototxt);
    ("vgg16", Zoo.vgg16_prototxt);
    ( "ann0",
      Zoo.ann_prototxt ~name:"ann0" ~inputs:1 ~hidden1:8 ~hidden2:8 ~outputs:2 );
  ]

let source name =
  match List.assoc_opt name zoo with
  | Some s -> s
  | None -> Error.fail "unknown zoo model %S" name

(* The default 16-DSP Zynq-7045 constraint of the CLI and the daemon. *)
let constraint_script = Db_serve.Serve.default_constraint_script
let constraints () = Db_core.Constraints.parse constraint_script

(* The input blob of a network and its shape. *)
let input_of network =
  match Db_nn.Network.input_nodes network with
  | ({ Db_nn.Network.layer = Db_nn.Layer.Input { shape }; _ } as n) :: _ ->
      (List.hd n.Db_nn.Network.tops, shape)
  | _ -> Error.fail "network has no input node with a shape"

let read_file path =
  Error.protect_io ~component:"io-bench" (fun () ->
      In_channel.with_open_bin path In_channel.input_all)

(* test/golden_ir/zoo_rtl.md5: one "<model> <md5 of the RTL>" per line. *)
let load_pin () =
  read_file (Filename.concat "test" (Filename.concat "golden_ir" "zoo_rtl.md5"))
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ name; digest ] -> Some (name, digest)
         | _ -> None)

let pinned pin name =
  match List.assoc_opt name pin with
  | Some d -> d
  | None -> Error.fail "%s is missing from zoo_rtl.md5" name

(* Peak resident set (VmHWM) of process [pid], by default this one, in kB. *)
let peak_rss_kb ?(pid = "self") () =
  read_file (Printf.sprintf "/proc/%s/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
         | _ -> None)
  |> Option.value ~default:0

let shuffled rng l =
  let a = Array.of_list l in
  Rng.shuffle rng a;
  Array.to_list a

let failure_class e =
  match Error.classify_exn e with
  | Some c -> Error.class_name c
  | None -> "internal"

let describe e =
  Option.value (Error.message_of_exn e) ~default:(Printexc.to_string e)

(* Start this executable with [args]; return its pid and its standard
   output.  Its standard error passes through. *)
let spawn_running args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  (pid, Unix.in_channel_of_descr r)

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* Run this executable with [args]; return its standard output and whether
   it exited 0. *)
let spawn_self args =
  let pid, ic = spawn_running args in
  let out =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  in
  (out, reap pid = Unix.WEXITED 0)

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* Ops of one measured phase: latencies of those that succeeded, and the
   failures.  Client threads record concurrently. *)
type tally = {
  lock : Mutex.t;
  mutable latencies : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable elapsed : float;
}

let record t latency =
  Mutex.lock t.lock;
  t.attempted <- t.attempted + 1;
  (match latency with
  | Some l -> t.latencies <- l :: t.latencies
  | None -> t.failed <- t.failed + 1);
  Mutex.unlock t.lock

(* Time [f] as one op and return its latency when it succeeded.  [Error
   (cls, msg)] is a failure of class [cls] (a failed output check is
   ["output-check"]); an exception is a failure of its classified
   [Error.failure_class]. *)
let timed_op t f =
  let t0 = Trace.now_s () in
  let failure cls msg =
    Printf.eprintf "op failed [%s]: %s\n%!" cls msg;
    None
  in
  let latency =
    match f () with
    | Ok () -> Some (Trace.now_s () -. t0)
    | Error (cls, msg) -> failure cls msg
    | exception e -> failure (failure_class e) (describe e)
  in
  record t latency;
  latency

(* One block in flight: when it started, how many of its jobs are still
   out, and its first failure. *)
type pending = {
  start : float;
  mutable left : int;
  mutable failure : (string * string) option;
}

(* [loops] closed loops, each in a domain of its own, share one sequence
   of whole blocks of jobs.  When a block is due, [next_block ()] gives its
   op id and jobs; past the deadline no loop starts a new one.  A block is
   one op, timed from its first job's start to its last job's end.  The
   loops take jobs as they free up, so blocks overlap and no loop idles at
   a block's end.  [job ~op j] is [Error (cls, msg)] on a failure of class
   [cls]; an exception is a failure of its classified class. *)
let blocks ~loops ~next_block ~deadline tally job =
  let lock = Mutex.create () in
  let queue = ref [] and current = ref None in
  let take () =
    Mutex.lock lock;
    if !queue = [] && Trace.now_s () < deadline then begin
      let op, jobs = next_block () in
      queue := jobs;
      current :=
        Some (op, { start = Trace.now_s (); left = List.length jobs; failure = None })
    end;
    let next =
      match (!queue, !current) with
      | j :: rest, Some (op, b) ->
          queue := rest;
          Some (op, b, j)
      | _ -> None
    in
    Mutex.unlock lock;
    next
  in
  let finish b outcome =
    Mutex.lock lock;
    b.left <- b.left - 1;
    (match outcome with
    | Error e when b.failure = None -> b.failure <- Some e
    | _ -> ());
    let done_ = b.left = 0 in
    Mutex.unlock lock;
    if done_ then
      record tally
        (match b.failure with
        | None -> Some (Trace.now_s () -. b.start)
        | Some (cls, msg) ->
            Printf.eprintf "op failed [%s]: %s\n%!" cls msg;
            None)
  in
  let rec loop () =
    match take () with
    | None -> ()
    | Some (op, b, j) ->
        finish b
          (match job ~op j with
          | outcome -> outcome
          | exception e -> Error (failure_class e, describe e));
        loop ()
  in
  List.iter Domain.join (List.init loops (fun _ -> Domain.spawn loop))

(* Run [loop] until its deadline, [seconds] from now; keep the wall time. *)
let phase ~seconds loop =
  let t =
    {
      lock = Mutex.create ();
      latencies = [];
      attempted = 0;
      failed = 0;
      elapsed = 0.0;
    }
  in
  let t0 = Trace.now_s () in
  loop t ~deadline:(t0 +. seconds);
  t.elapsed <- Trace.now_s () -. t0;
  t
