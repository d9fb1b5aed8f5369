(* Crash-safe persistent design store: the on-disk second level under
   [Db_core.Design_cache].

   Entries are content-addressed by the SHA-256 of the cache key (the
   canonical post-pass IR dump plus every constraint field) and sharded
   by the first two hex digits, so a busy store never piles millions of
   files into one directory.  Every write goes to a dot-prefixed tmp file
   in the target shard followed by an atomic [Unix.rename]; a crash
   mid-write leaves only a tmp file, which [open_store] sweeps, never a
   half-visible entry.

   On-disk layout of one entry:

     bytes 0..7    magic "DBSTORE1"
     bytes 8..15   CRC-32 (IEEE, [Db_fault.Ecc.crc32]) of the rest, hex
     bytes 16..    Marshal of [entry] below

   The [entry] wraps the marshalled design as an opaque string next to a
   format version and the producing [Sys.ocaml_version]: Marshal is not
   stable across compiler versions, so a version-skewed entry must be
   recognised *before* the design payload is decoded.  Every decode
   failure — short file, bad magic, CRC mismatch, version skew, payload
   that no longer unmarshals — is handled identically: count it corrupt,
   unlink the entry, and report a miss so the caller regenerates.  The
   generator is deterministic, which is what makes recover-by-recompute
   always correct. *)

type entry = {
  e_format : int;
  e_ocaml : string;
  e_key : string;  (** full cache key, compared verbatim on lookup *)
  e_payload : string;  (** [Marshal] of the {!Db_core.Design.t} *)
}

let magic = "DBSTORE1"

(* 4: the Approx-LUT set (Design.t's [program.luts]) and the ROMs the
   activation and LRN units hold changed shape, and so did their RTL.
   5: [Conv]/[Fc] ops lost their activation slot, so the marshalled IR
   inside a design changed shape under keys that did not move.
   6: a design's schedule holds fold runs, not one record per fold.
   7: the coordinator block holds the schedule's machine ([Fsm.t], with
   counted states), not a state and signal count. *)
let format_version = 7

type stats = {
  st_hits : int;
  st_misses : int;
  st_corrupt : int;
  st_write_retries : int;
  st_write_failures : int;
  st_swept_tmp : int;
  st_evicted : int;
}

type t = {
  dir : string;
  version : string;
  max_bytes : int option;  (* LRU compaction threshold; [None] = unbounded *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  corrupt : int Atomic.t;
  write_retries : int Atomic.t;
  write_failures : int Atomic.t;
  swept_tmp : int Atomic.t;
  evicted : int Atomic.t;
  tmp_seq : int Atomic.t;
}

let fail fmt = Db_util.Error.failf_at ~component:"io-store" fmt

let stats t =
  {
    st_hits = Atomic.get t.hits;
    st_misses = Atomic.get t.misses;
    st_corrupt = Atomic.get t.corrupt;
    st_write_retries = Atomic.get t.write_retries;
    st_write_failures = Atomic.get t.write_failures;
    st_swept_tmp = Atomic.get t.swept_tmp;
    st_evicted = Atomic.get t.evicted;
  }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        fail "cannot create %s: %s" dir (Unix.error_message e)
  end
  else if not (Sys.is_directory dir) then fail "%s exists and is not a directory" dir

let key_id key = Sha256.hex key

let shard_dir t id = Filename.concat t.dir (String.sub id 0 2)

let entry_path t ~key =
  let id = key_id key in
  Filename.concat (shard_dir t id) (id ^ ".db")

(* tmp names are ".<id>.<pid>.<seq>.tmp" *)
let is_tmp name =
  String.length name > 4 && name.[0] = '.'
  && String.sub name (String.length name - 4) 4 = ".tmp"

(* Remove tmp files a killed writer left behind.  Entries themselves are
   never touched: a completed rename is durable, an uncompleted one never
   became visible. *)
let sweep_tmp t =
  let swept = ref 0 in
  let shards = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.iter
    (fun shard ->
      let sdir = Filename.concat t.dir shard in
      if (try Sys.is_directory sdir with Sys_error _ -> false) then
        Array.iter
          (fun name ->
            if is_tmp name then begin
              (try Sys.remove (Filename.concat sdir name)
               with Sys_error _ -> ());
              incr swept
            end)
          (try Sys.readdir sdir with Sys_error _ -> [||]))
    shards;
  Atomic.fetch_and_add t.swept_tmp !swept |> ignore;
  !swept

let open_store ?(version_salt = "") ?max_bytes ~dir () =
  (match max_bytes with
  | Some b when b <= 0 -> fail "max_bytes must be positive"
  | _ -> ());
  mkdir_p dir;
  let t =
    {
      dir;
      version = Sys.ocaml_version ^ version_salt;
      max_bytes;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      corrupt = Atomic.make 0;
      write_retries = Atomic.make 0;
      write_failures = Atomic.make 0;
      swept_tmp = Atomic.make 0;
      evicted = Atomic.make 0;
      tmp_seq = Atomic.make 0;
    }
  in
  ignore (sweep_tmp t);
  t

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Anything wrong with a visible entry lands here: count it, drop the
   poisoned file so the next request doesn't pay the decode again, and
   let the caller regenerate. *)
let corrupt t path reason =
  Atomic.incr t.corrupt;
  Db_obs.Obs.incr "serve.store.corrupt";
  Db_obs.Obs.incr ("serve.store.corrupt." ^ reason);
  (try Sys.remove path with Sys_error _ -> ());
  None

let decode t ~key ~path content =
  let n = String.length content in
  if n < 16 then corrupt t path "truncated"
  else if String.sub content 0 8 <> magic then corrupt t path "magic"
  else
    let body = String.sub content 16 (n - 16) in
    let stored_crc = int_of_string_opt ("0x" ^ String.sub content 8 8) in
    if stored_crc <> Some (Db_fault.Ecc.crc32 body) then corrupt t path "crc"
    else
      match (Marshal.from_string body 0 : entry) with
      | exception _ -> corrupt t path "marshal"
      | e ->
          if e.e_format <> format_version || e.e_ocaml <> t.version then
            corrupt t path "version"
          else if e.e_key <> key then corrupt t path "key"
          else (
            match (Marshal.from_string e.e_payload 0 : Db_core.Design.t) with
            | exception _ -> corrupt t path "payload"
            | design -> Some design)

let lookup t ~key =
  let path = entry_path t ~key in
  match read_file path with
  | exception Sys_error _ ->
      (* Includes ENOENT: no entry (or one we cannot read — in either case
         the correct answer is "regenerate"). *)
      Atomic.incr t.misses;
      Db_obs.Obs.incr "serve.store.miss";
      None
  | content -> (
      match decode t ~key ~path content with
      | Some design ->
          Atomic.incr t.hits;
          Db_obs.Obs.incr "serve.store.hit";
          (* Recency bump for the LRU sweep: both file times to "now".
             Losing the race with a concurrent eviction is fine — the
             entry is regenerated on the next miss. *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          Some design
      | None -> None)

let encode ~version ~key design =
  let payload = Marshal.to_string (design : Db_core.Design.t) [] in
  let body =
    Marshal.to_string
      { e_format = format_version; e_ocaml = version; e_key = key;
        e_payload = payload }
      []
  in
  Printf.sprintf "%s%08x%s" magic (Db_fault.Ecc.crc32 body) body

let write_once t ~path content =
  let id = Filename.basename path in
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".%s.%d.%d.tmp" id (Unix.getpid ())
         (Atomic.fetch_and_add t.tmp_seq 1))
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try Unix.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* Size-bounded LRU sweep.  Walks every visible entry, and while the
   store exceeds [max_bytes] unlinks the least-recently-used ones (mtime
   order; [lookup] bumps it on every hit).  Eviction is loss-free by
   construction: the generator is deterministic, so an evicted design is
   recomputed bit-identically on its next request — the same property the
   corrupt-entry path relies on. *)
let compact ?max_bytes t =
  let budget =
    match max_bytes, t.max_bytes with
    | Some b, _ | None, Some b -> b
    | None, None -> fail "compact: no size bound (open with ?max_bytes)"
  in
  if budget <= 0 then fail "max_bytes must be positive";
  let entries = ref [] in
  let total = ref 0 in
  let shards = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.iter
    (fun shard ->
      let sdir = Filename.concat t.dir shard in
      if (try Sys.is_directory sdir with Sys_error _ -> false) then
        Array.iter
          (fun name ->
            if (not (is_tmp name)) && Filename.check_suffix name ".db" then begin
              let path = Filename.concat sdir name in
              match Unix.stat path with
              | exception Unix.Unix_error _ -> ()
              | st ->
                  total := !total + st.Unix.st_size;
                  entries :=
                    (st.Unix.st_mtime, st.Unix.st_size, path) :: !entries
            end)
          (try Sys.readdir sdir with Sys_error _ -> [||]))
    shards;
  let evicted = ref 0 in
  if !total > budget then begin
    let by_age =
      List.sort
        (fun (ma, _, pa) (mb, _, pb) ->
          match compare (ma : float) mb with 0 -> compare pa pb | c -> c)
        !entries
    in
    List.iter
      (fun (_, size, path) ->
        if !total > budget then (
          match Sys.remove path with
          | () ->
              total := !total - size;
              incr evicted
          | exception Sys_error _ -> ()))
      by_age
  end;
  if !evicted > 0 then begin
    Atomic.fetch_and_add t.evicted !evicted |> ignore;
    Db_obs.Obs.incr ~by:!evicted "serve.store.evicted"
  end;
  !evicted

(* Best-effort write-through with jittered backoff.  Losing a write only
   costs a future regeneration, so after the retry budget the failure is
   counted and swallowed — a full disk must never fail a request that
   already holds its design. *)
let store t ~key design =
  let path = entry_path t ~key in
  let content = encode ~version:t.version ~key design in
  let attempts = 3 in
  let rec go n =
    match
      mkdir_p (Filename.dirname path);
      write_once t ~path content
    with
    | () ->
        Db_obs.Obs.incr "serve.store.write";
        if t.max_bytes <> None then ignore (compact t)
    | exception (Sys_error _ | Unix.Unix_error _ | Db_util.Error.Deepburning_error _)
      when n < attempts ->
        (* Deterministic jitter from the attempt counter: enough to
           de-phase two writers racing on one shard, no RNG state. *)
        Atomic.incr t.write_retries;
        Db_obs.Obs.incr "serve.retries";
        Unix.sleepf (0.001 *. float_of_int (1 + ((n * 7) mod 5)));
        go (n + 1)
    | exception (Sys_error _ | Unix.Unix_error _ | Db_util.Error.Deepburning_error _) ->
        Atomic.incr t.write_failures;
        Db_obs.Obs.incr "serve.store.write_failed"
  in
  go 1

let attach t =
  Db_core.Design_cache.set_second_level
    (Some
       {
         Db_core.Design_cache.sl_lookup = (fun key -> lookup t ~key);
         sl_store = (fun key design -> store t ~key design);
       })

let detach () = Db_core.Design_cache.set_second_level None
