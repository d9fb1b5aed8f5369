(* A lazily-created domain pool shared by every hot kernel in the repo.

   Design constraints (see DESIGN.md §9):
   - the pool must never change *what* is computed, only *where*: callers
     split work into tasks whose writes are disjoint, so results are
     bitwise-identical for any DEEPBURNING_JOBS value;
   - reductions go through [reduce], whose chunk boundaries are a caller
     supplied constant (never derived from the worker count) and whose
     partial results are combined sequentially in ascending chunk order;
   - nested parallel sections must not deadlock: the submitting domain
     always helps execute its own batch, so a batch completes even when
     every worker is busy elsewhere. *)

let parse_jobs () =
  match Sys.getenv_opt "DEEPBURNING_JOBS" with
  | None -> Stdlib.max 1 (Domain.recommended_domain_count ())
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf
               "DEEPBURNING_JOBS must be a positive integer, got %S" s))

let jobs = lazy (parse_jobs ())

(* Test hook: while positive, every parallel entry point degrades to a plain
   sequential loop on the calling domain. *)
let seq_depth = Atomic.make 0

let with_sequential f =
  Atomic.incr seq_depth;
  Fun.protect ~finally:(fun () -> Atomic.decr seq_depth) f

let job_count () = if Atomic.get seq_depth > 0 then 1 else Lazy.force jobs

(* --- The pool proper --------------------------------------------------- *)

type batch = {
  run : int -> unit;
  len : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let pending : batch Queue.t = Queue.create ()

let lock = Mutex.create ()

let nonempty = Condition.create ()

(* Signalled (under [lock]) whenever some batch finishes its last task;
   submitters block on it instead of spinning, which matters when the box
   has fewer cores than the pool has domains. *)
let batch_done = Condition.create ()

(* Pull tasks from [b] until its index counter runs out.  The first
   exception is kept (with its backtrace) and re-raised by the submitter;
   the completion counter advances regardless so waiters never hang. *)
let exec_batch_raw b =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add b.next 1 in
    if i >= b.len then continue := false
    else begin
      (try b.run i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set b.failed None (Some (e, bt))));
      if Atomic.fetch_and_add b.completed 1 = b.len - 1 then begin
        Mutex.lock lock;
        Condition.broadcast batch_done;
        Mutex.unlock lock
      end
    end
  done

(* Observability: per-domain busy time, recorded into the calling domain's
   own sink (no contention).  The [pool.*] namespace is the one place where
   counter values legitimately depend on the pool width — it counts
   scheduling events, not work items (see DESIGN.md §11). *)
let exec_batch b =
  if not (Db_obs.Obs.enabled ()) then exec_batch_raw b
  else begin
    let t0 = Db_obs.Obs.now () in
    exec_batch_raw b;
    Db_obs.Obs.observe "pool.busy_s" (Db_obs.Obs.now () -. t0)
  end

let rec worker_loop () =
  Mutex.lock lock;
  while Queue.is_empty pending do
    Condition.wait nonempty lock
  done;
  let b = Queue.peek pending in
  (* Drop exhausted batches so the queue head always has (or had) work. *)
  if Atomic.get b.next >= b.len then ignore (Queue.pop pending);
  Mutex.unlock lock;
  exec_batch b;
  worker_loop ()

let workers : unit Domain.t list ref = ref []

let spawned = Atomic.make false

let ensure_workers () =
  if not (Atomic.get spawned) then begin
    Mutex.lock lock;
    if not (Atomic.get spawned) then begin
      let n = Lazy.force jobs - 1 in
      workers := List.init n (fun _ -> Domain.spawn worker_loop);
      Atomic.set spawned true
    end;
    Mutex.unlock lock
  end

let run_batch ~len run =
  if len <= 0 then ()
  else if len = 1 || job_count () <= 1 then
    for i = 0 to len - 1 do
      run i
    done
  else begin
    ensure_workers ();
    Db_obs.Obs.incr "pool.batches";
    Db_obs.Obs.incr ~by:len "pool.tasks";
    let b =
      {
        run;
        len;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        failed = Atomic.make None;
      }
    in
    Mutex.lock lock;
    Queue.push b pending;
    Condition.broadcast nonempty;
    Mutex.unlock lock;
    (* The submitter helps drain its own batch (so nested sections always
       make progress), then blocks until the stragglers finish. *)
    exec_batch b;
    if Atomic.get b.completed < len then begin
      Mutex.lock lock;
      while Atomic.get b.completed < len do
        Condition.wait batch_done lock
      done;
      Mutex.unlock lock
    end;
    match Atomic.get b.failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let default_chunk n =
  let target = 8 * job_count () in
  Stdlib.max 1 ((n + target - 1) / target)

(* Below this many scalar operations a batch costs more in wakeups than it
   saves in parallelism (the threshold only affects scheduling, never
   results). *)
let small_work_threshold = 16384

let parallel_for ?chunk ?work ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then ()
  else if
    match work with Some w -> w < small_work_threshold | None -> false
  then
    for i = lo to hi - 1 do
      f i
    done
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some c -> invalid_arg (Printf.sprintf "Pool.parallel_for: chunk %d" c)
      | None -> default_chunk n
    in
    let nchunks = (n + chunk - 1) / chunk in
    run_batch ~len:nchunks (fun c ->
        let s = lo + (c * chunk) in
        let e = Stdlib.min hi (s + chunk) in
        for i = s to e - 1 do
          f i
        done)
  end

let reduce ~chunk ~lo ~hi ~init ~map ~combine =
  if chunk < 1 then invalid_arg (Printf.sprintf "Pool.reduce: chunk %d" chunk);
  let n = hi - lo in
  if n <= 0 then init
  else begin
    let nchunks = (n + chunk - 1) / chunk in
    let results = Array.make nchunks None in
    run_batch ~len:nchunks (fun c ->
        let s = lo + (c * chunk) in
        let e = Stdlib.min hi (s + chunk) in
        results.(c) <- Some (map s e));
    Array.fold_left
      (fun acc r ->
        match r with Some v -> combine acc v | None -> assert false)
      init results
  end

let map_list f xs =
  match xs with
  | [] | [ _ ] -> List.map f xs
  | _ ->
      let arr = Array.of_list xs in
      let out = Array.make (Array.length arr) None in
      run_batch ~len:(Array.length arr) (fun i -> out.(i) <- Some (f arr.(i)));
      Array.to_list
        (Array.map (function Some v -> v | None -> assert false) out)
