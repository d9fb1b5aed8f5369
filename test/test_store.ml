(* Crash-safety of the persistent design store: every way an entry can be
   damaged — truncation, bit rot, a stale format, a writer killed
   mid-write — must be recovered by silent recomputation, counted on the
   corrupt counter, and never surface as a wrong design.  Correctness is
   pinned the strong way: the RTL of a design served from disk is
   byte-identical to a fresh [Generator.generate]. *)

module Store = Db_store.Disk_store
module Cache = Db_core.Design_cache

let sha = Db_store.Sha256.hex

(* --- primitive vectors --------------------------------------------------- *)

let test_sha256_vectors () =
  Alcotest.(check string)
    "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (sha "");
  Alcotest.(check string)
    "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (sha "abc");
  Alcotest.(check string)
    "448-bit" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_crc32_vector () =
  Alcotest.(check int) "check value" 0xCBF43926 (Db_fault.Ecc.crc32 "123456789")

(* --- fixtures ------------------------------------------------------------ *)

let net = lazy (Db_nn.Caffe.import_string Db_workloads.Model_zoo.mlp_prototxt)
let cons = Db_core.Constraints.db_medium

let tmp_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbstore-test-%s-%d" name (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  dir

let generate () = Db_core.Generator.generate cons (Lazy.force net)

let key () = Cache.cache_key cons (Lazy.force net)

let rtl_sha design = sha (Db_core.Design.verilog design)

(* --- roundtrip ----------------------------------------------------------- *)

let test_roundtrip () =
  let t = Store.open_store ~dir:(tmp_dir "roundtrip") () in
  let design = generate () in
  let key = key () in
  Alcotest.(check bool) "initial miss" true (Store.lookup t ~key = None);
  Store.store t ~key design;
  (match Store.lookup t ~key with
  | None -> Alcotest.fail "stored entry not found"
  | Some restored ->
      Alcotest.(check string) "byte-identical RTL" (rtl_sha design)
        (rtl_sha restored));
  let s = Store.stats t in
  Alcotest.(check int) "one hit" 1 s.Store.st_hits;
  Alcotest.(check int) "one miss" 1 s.Store.st_misses;
  Alcotest.(check int) "no corruption" 0 s.Store.st_corrupt

(* Each corruption mode must land on the same path: counted, unlinked,
   then a miss (so the caller regenerates); never an exception, never a
   wrong design. *)
let corruption_recovers name mutate =
  let t = Store.open_store ~dir:(tmp_dir name) () in
  let design = generate () in
  let key = key () in
  Store.store t ~key design;
  let path = Store.entry_path t ~key in
  mutate path;
  (match Store.lookup t ~key with
  | None -> ()
  | Some restored ->
      (* Version skew aside, a surviving entry must still be correct. *)
      Alcotest.(check string) "still correct" (rtl_sha design) (rtl_sha restored));
  Alcotest.(check bool)
    (name ^ " counted corrupt") true
    ((Store.stats t).Store.st_corrupt >= 1);
  Alcotest.(check bool)
    (name ^ " entry dropped") false (Sys.file_exists path);
  (* The slot is reusable: store again, hit again. *)
  Store.store t ~key design;
  match Store.lookup t ~key with
  | None -> Alcotest.fail "store did not recover after corruption"
  | Some restored ->
      Alcotest.(check string) "recovered RTL" (rtl_sha design) (rtl_sha restored)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_truncated () =
  corruption_recovers "truncate" (fun path ->
      let content = read_bytes path in
      write_bytes path (String.sub content 0 (String.length content / 3)))

let test_bitflip () =
  corruption_recovers "bitflip" (fun path ->
      let content = Bytes.of_string (read_bytes path) in
      let i = Bytes.length content / 2 in
      Bytes.set content i (Char.chr (Char.code (Bytes.get content i) lxor 0x10));
      write_bytes path (Bytes.to_string content))

let test_bad_magic () =
  corruption_recovers "magic" (fun path ->
      let content = read_bytes path in
      write_bytes path ("XXSTORE9" ^ String.sub content 8 (String.length content - 8)))

let test_empty_entry () = corruption_recovers "empty" (fun path -> write_bytes path "")

(* An entry written by a different compiler (or salted test "compiler")
   must be treated as corrupt, not unmarshalled. *)
let test_version_skew () =
  let dir = tmp_dir "skew" in
  let old = Store.open_store ~dir ~version_salt:"+old" () in
  let design = generate () in
  let key = key () in
  Store.store old ~key design;
  let current = Store.open_store ~dir () in
  Alcotest.(check bool) "skewed entry is a miss" true
    (Store.lookup current ~key = None);
  Alcotest.(check bool) "counted corrupt" true
    ((Store.stats current).Store.st_corrupt >= 1);
  Alcotest.(check bool) "skewed entry dropped" false
    (Sys.file_exists (Store.entry_path current ~key))

(* A writer killed between tmp-write and rename leaves only a tmp file;
   reopening the store sweeps it and the entry simply does not exist. *)
let test_kill_mid_write_tmp_sweep () =
  let dir = tmp_dir "sweep" in
  let t = Store.open_store ~dir () in
  let design = generate () in
  let key = key () in
  Store.store t ~key design;
  let path = Store.entry_path t ~key in
  let shard = Filename.dirname path in
  (* Simulate the crash: the tmp file exists, the rename never happened. *)
  let tmp = Filename.concat shard ".deadwriter.12345.0.tmp" in
  write_bytes tmp (read_bytes path);
  Sys.remove path;
  let reopened = Store.open_store ~dir () in
  Alcotest.(check bool) "tmp swept" false (Sys.file_exists tmp);
  Alcotest.(check bool) "swept count" true
    ((Store.stats reopened).Store.st_swept_tmp >= 1);
  Alcotest.(check bool) "entry absent, not half-visible" true
    (Store.lookup reopened ~key = None)

(* An entry written under the previous store format must be recognised
   from its header and never decoded: a format bump marks a change in the
   marshalled shape of [Design.t] (a constructor added to [Rtl.body], say),
   under which an old payload could decode as the wrong variant.  The
   record mirrors the store's own entry layout. *)
type forged_entry = {
  e_format : int;
  e_ocaml : string;
  e_key : string;
  e_payload : string;
}

let forge_previous_format path ~key design =
  let body =
    Marshal.to_string
      {
        e_format = Store.format_version - 1;
        e_ocaml = Sys.ocaml_version;
        e_key = key;
        e_payload = Marshal.to_string (design : Db_core.Design.t) [];
      }
      []
  in
  write_bytes path
    (Printf.sprintf "DBSTORE1%08x%s" (Db_fault.Ecc.crc32 body) body)

(* --- size-bounded LRU compaction ----------------------------------------- *)

(* Eviction must be loss-free: the generator is deterministic, so an
   evicted design is recomputed bit-identically on its next request.  The
   sweep is LRU by mtime, and [lookup] bumps the mtime, so a hot entry
   survives a compaction that evicts colder ones. *)
let test_lru_compaction_recomputes () =
  let t = Store.open_store ~dir:(tmp_dir "lru") () in
  let design = generate () in
  let key = key () in
  let cold = key ^ "#cold" and warm = key ^ "#warm" in
  Store.store t ~key design;
  Store.store t ~key:cold design;
  Store.store t ~key:warm design;
  let entry_size k = (Unix.stat (Store.entry_path t ~key:k)).Unix.st_size in
  let total = entry_size key + entry_size cold + entry_size warm in
  (* Age everything, then touch the hot entry the way a request would:
     through [lookup]. *)
  Unix.utimes (Store.entry_path t ~key:cold) 1000.0 1000.0;
  Unix.utimes (Store.entry_path t ~key:warm) 2000.0 2000.0;
  Unix.utimes (Store.entry_path t ~key) 3000.0 3000.0;
  Alcotest.(check bool) "hot entry hit" true (Store.lookup t ~key <> None);
  (* One byte over budget: exactly the least-recently-used entry goes. *)
  let evicted = Store.compact ~max_bytes:(total - 1) t in
  Alcotest.(check int) "one eviction" 1 evicted;
  Alcotest.(check int) "eviction counted" 1 (Store.stats t).Store.st_evicted;
  Alcotest.(check bool) "coldest entry evicted" false
    (Sys.file_exists (Store.entry_path t ~key:cold));
  Alcotest.(check bool) "warm entry kept" true
    (Sys.file_exists (Store.entry_path t ~key:warm));
  Alcotest.(check bool) "hot entry kept by the lookup bump" true
    (Sys.file_exists (Store.entry_path t ~key));
  (* The evicted key is now a miss; recompute and re-store — the design
     coming back must be byte-identical to what was evicted. *)
  Alcotest.(check bool) "evicted key is a miss" true
    (Store.lookup t ~key:cold = None);
  Store.store t ~key:cold (generate ());
  (match Store.lookup t ~key:cold with
  | None -> Alcotest.fail "recomputed entry not found"
  | Some restored ->
      Alcotest.(check string) "recompute is byte-identical" (rtl_sha design)
        (rtl_sha restored));
  Alcotest.(check int) "nothing counted corrupt" 0 (Store.stats t).Store.st_corrupt

(* A store opened with [?max_bytes] compacts itself after every
   successful write-through: the newest entry always survives. *)
let test_auto_compaction_on_write () =
  let dir = tmp_dir "auto-lru" in
  let unbounded = Store.open_store ~dir () in
  let design = generate () in
  let key = key () in
  Store.store unbounded ~key design;
  let size = (Unix.stat (Store.entry_path unbounded ~key)).Unix.st_size in
  Unix.utimes (Store.entry_path unbounded ~key) 1000.0 1000.0;
  let bounded = Store.open_store ~dir ~max_bytes:(size + (size / 2)) () in
  Store.store bounded ~key:(key ^ "#new") design;
  Alcotest.(check bool) "write-through auto-compacted" true
    ((Store.stats bounded).Store.st_evicted >= 1);
  Alcotest.(check bool) "newest entry survives" true
    (Store.lookup bounded ~key:(key ^ "#new") <> None)

(* --- second-level wiring under Design_cache ------------------------------ *)

let with_attached dir f =
  let t = Store.open_store ~dir () in
  Store.attach t;
  Fun.protect ~finally:Store.detach (fun () -> f t)

let test_cache_write_through () =
  let dir = tmp_dir "write-through" in
  with_attached dir (fun t ->
      Cache.clear ();
      let design = Cache.generate cons (Lazy.force net) in
      let key = key () in
      Alcotest.(check bool) "written through" true
        (Sys.file_exists (Store.entry_path t ~key));
      (* Same process, L1 hit: the store is not consulted again. *)
      let again = Cache.generate cons (Lazy.force net) in
      Alcotest.(check string) "L1 serves the same design" (rtl_sha design)
        (rtl_sha again));
  (* "Restart": a fresh L1 with the same store serves the design from
     disk — zero L1 hits, one store hit, no regeneration. *)
  with_attached dir (fun t ->
      Cache.clear ();
      let design = Cache.generate cons (Lazy.force net) in
      let fresh = Db_core.Generator.generate cons (Lazy.force net) in
      Alcotest.(check string) "disk-served RTL is byte-identical"
        (rtl_sha fresh) (rtl_sha design);
      Alcotest.(check int) "served from the store" 1 (Store.stats t).Store.st_hits)

let test_cache_poisoned_entry_recomputes () =
  let dir = tmp_dir "poisoned" in
  with_attached dir (fun t ->
      Cache.clear ();
      let design = Cache.generate cons (Lazy.force net) in
      let key = key () in
      let path = Store.entry_path t ~key in
      (* Poison the persisted entry, then force the L1 to forget it. *)
      let content = Bytes.of_string (read_bytes path) in
      Bytes.set content (Bytes.length content - 1) '\x00';
      write_bytes path (Bytes.to_string content);
      Cache.clear ();
      let served = Cache.generate cons (Lazy.force net) in
      Alcotest.(check string) "silently recomputed, still correct"
        (rtl_sha design) (rtl_sha served);
      Alcotest.(check bool) "corruption counted" true
        ((Store.stats t).Store.st_corrupt >= 1))

let test_previous_format_regenerates () =
  let dir = tmp_dir "format" in
  with_attached dir (fun t ->
      let design = generate () in
      let key = key () in
      Store.store t ~key design;
      forge_previous_format (Store.entry_path t ~key) ~key design;
      Alcotest.(check bool) "previous format is a miss" true
        (Store.lookup t ~key = None);
      Alcotest.(check int) "counted corrupt" 1 (Store.stats t).Store.st_corrupt;
      Cache.clear ();
      let served = Cache.generate cons (Lazy.force net) in
      Alcotest.(check string) "regenerated byte-identically" (rtl_sha design)
        (rtl_sha served);
      match Store.lookup t ~key with
      | None -> Alcotest.fail "regenerated design not written through"
      | Some restored ->
          Alcotest.(check string) "rewritten in the current format"
            (rtl_sha design) (rtl_sha restored))

(* A second level that throws must never fail generation. *)
let test_cache_absorbs_second_level_failure () =
  Cache.set_second_level
    (Some
       {
         Cache.sl_lookup = (fun _ -> failwith "broken lookup");
         sl_store = (fun _ _ -> failwith "broken store");
       });
  Fun.protect ~finally:Store.detach (fun () ->
      Cache.clear ();
      let design = Cache.generate cons (Lazy.force net) in
      Alcotest.(check bool) "generated despite broken second level" true
        (String.length (Db_core.Design.verilog design) > 0))

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "truncated entry recovers" `Quick test_truncated;
        Alcotest.test_case "bit flip recovers" `Quick test_bitflip;
        Alcotest.test_case "bad magic recovers" `Quick test_bad_magic;
        Alcotest.test_case "empty entry recovers" `Quick test_empty_entry;
        Alcotest.test_case "version skew regenerates" `Quick test_version_skew;
        Alcotest.test_case "previous format regenerates" `Quick
          test_previous_format_regenerates;
        Alcotest.test_case "kill mid-write sweeps tmp" `Quick
          test_kill_mid_write_tmp_sweep;
        Alcotest.test_case "LRU compaction recomputes losslessly" `Quick
          test_lru_compaction_recomputes;
        Alcotest.test_case "bounded store auto-compacts on write" `Quick
          test_auto_compaction_on_write;
        Alcotest.test_case "design cache writes through" `Quick
          test_cache_write_through;
        Alcotest.test_case "poisoned entry silently recomputes" `Quick
          test_cache_poisoned_entry_recomputes;
        Alcotest.test_case "broken second level absorbed" `Quick
          test_cache_absorbs_second_level_failure;
      ] );
  ]
