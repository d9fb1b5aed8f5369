(* In-memory spans opened by the benchmark around each public library call.

   A span records its name, start and end on the monotonic clock, the span
   that caused it and the op it belongs to.  Parents are passed explicitly,
   so client threads can trace concurrently.  Nothing is recorded while
   tracing is off: [span] then only runs its body. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  op : int;
  t0 : int64;
  t1 : int64;
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0

let fresh_id () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

let add s =
  Mutex.lock lock;
  spans := s :: !spans;
  Mutex.unlock lock

(* [span ~op ~parent name f] runs [f id] inside a span whose id children
   use as their [parent]; the span is kept even when [f] raises. *)
let span ~op ?(parent = 0) name f =
  if not !enabled then f 0
  else begin
    let id = fresh_id () in
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () -> add { id; name; parent; op; t0; t1 = now_ns () })
      (fun () -> f id)
  end

let all () =
  Mutex.lock lock;
  let l = List.rev !spans in
  Mutex.unlock lock;
  l

(* Self time: duration minus the part of the interval its children cover.
   Children of one span run one after another, so their union is the sum
   of their durations clipped to the parent. *)
let self_times () =
  let l = all () in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (Int64.add (Int64.sub s.t1 s.t0)
             (Option.value (Hashtbl.find_opt covered s.parent) ~default:0L)))
    l;
  List.map
    (fun s ->
      let dur = Int64.sub s.t1 s.t0 in
      let kids = Option.value (Hashtbl.find_opt covered s.id) ~default:0L in
      (s, Int64.to_float (Int64.sub dur (min dur kids)) *. 1e-9))
    l

(* Self seconds of every span, looked up by span name. *)
let self_by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self :: Option.value (Hashtbl.find_opt tbl s.name) ~default:[]))
    (self_times ());
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:[]

let write_json path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            (if i = 0 then " " else ",")
            s.id s.name s.parent s.op s.t0 s.t1)
        (all ());
      output_string oc "]\n")
