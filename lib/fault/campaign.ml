module Tensor = Db_tensor.Tensor
module Fixed = Db_fixed.Fixed
module Rng = Db_util.Rng
module Pool = Db_parallel.Pool
module Graph = Db_ir.Graph
module Params = Db_nn.Params
module Quantized = Db_nn.Quantized
module Access_pattern = Db_mem.Access_pattern
module Compiler = Db_core.Compiler
module Design = Db_core.Design
module Resource = Db_fpga.Resource

let fail fmt = Db_util.Error.failf_at ~component:"fault" fmt

type protection = {
  weights : Protect.scheme;
  biases : Protect.scheme;
  luts : Protect.scheme;
  buffers : Protect.scheme;
  agu : Protect.scheme;
}

let unprotected =
  {
    weights = Protect.Unprotected;
    biases = Protect.Unprotected;
    luts = Protect.Unprotected;
    buffers = Protect.Unprotected;
    agu = Protect.Unprotected;
  }

let scheme_for p = function
  | Site.Weights -> p.weights
  | Site.Biases -> p.biases
  | Site.Lut_tables -> p.luts
  | Site.Data_buffer -> p.buffers
  | Site.Agu_config -> p.agu
  | Site.Control_fsm -> Protect.Unprotected
  (* training-only storage: protection schemes are a Train_campaign
     concern; the inference campaign never enables these classes *)
  | Site.Grad_buffers | Site.Update_fsm -> Protect.Unprotected

type engine = Generic | Specialized

type config = {
  seed : int;
  trials : int;
  cycle_budget : int;
  protection : protection;
  rates : float list;
  targets : Site.target_class list;
  engine : engine;
}

let default_config =
  {
    seed = 42;
    trials = 200;
    cycle_budget = 200_000;
    protection = unprotected;
    rates = [ 1e-7; 1e-6; 1e-5; 1e-4; 1e-3 ];
    targets = Site.all_classes;
    engine = Specialized;
  }

type outcome = Masked | Sdc | Top1_flip | Corrected | Retried | Hang

let outcome_name = function
  | Masked -> "masked"
  | Sdc -> "sdc"
  | Top1_flip -> "top1-flip"
  | Corrected -> "corrected"
  | Retried -> "retried"
  | Hang -> "hang"

type counts = {
  injections : int;
  masked : int;
  sdc : int;
  top1_flips : int;
  corrected : int;
  retried : int;
  hangs : int;
}

let zero_counts =
  {
    injections = 0;
    masked = 0;
    sdc = 0;
    top1_flips = 0;
    corrected = 0;
    retried = 0;
    hangs = 0;
  }

let add_outcome c o =
  let c = { c with injections = c.injections + 1 } in
  match o with
  | Masked -> { c with masked = c.masked + 1 }
  | Sdc -> { c with sdc = c.sdc + 1 }
  | Top1_flip -> { c with top1_flips = c.top1_flips + 1 }
  | Corrected -> { c with corrected = c.corrected + 1 }
  | Retried -> { c with retried = c.retried + 1 }
  | Hang -> { c with hangs = c.hangs + 1 }

let silent_fraction c =
  if c.injections = 0 then 0.0
  else float_of_int (c.sdc + c.top1_flips) /. float_of_int c.injections

type row = { row_label : string; row_counts : counts }

type result = {
  res_seed : int;
  res_trials : int;
  res_space_bits : int;
  res_protection : protection;
  res_total : counts;
  res_per_class : row list;
  res_per_layer : row list;
  res_degradation : (float * float) list;
  res_overheads : (string * string * Resource.t * float) list;
}

(* ------------------------------------------------------------------ *)
(* Bit-pattern plumbing                                               *)

let sign_extend bits w =
  if w land (1 lsl (bits - 1)) <> 0 then w - (1 lsl bits) else w

(* ------------------------------------------------------------------ *)
(* AGU configuration-register corruption                               *)

let agu_mask = (1 lsl Site.agu_register_bits) - 1

let agu_field_value (p : Access_pattern.t) = function
  | Site.Start -> p.Access_pattern.start
  | Site.X_length -> p.Access_pattern.x_length
  | Site.Y_length -> p.Access_pattern.y_length
  | Site.Stride -> p.Access_pattern.stride
  | Site.Offset -> p.Access_pattern.offset
  | Site.Repeat -> p.Access_pattern.repeat

let agu_with_field (p : Access_pattern.t) field v =
  match field with
  | Site.Start -> { p with Access_pattern.start = v }
  | Site.X_length -> { p with Access_pattern.x_length = v }
  | Site.Y_length -> { p with Access_pattern.y_length = v }
  | Site.Stride -> { p with Access_pattern.stride = v }
  | Site.Offset -> { p with Access_pattern.offset = v }
  | Site.Repeat -> { p with Access_pattern.repeat = v }

(* The counters issue [start + block*offset + row*stride + col]; a stride
   is never read by a one-row pattern, nor an offset by a one-block one.
   Any other new value moves the address at index 0 (start), [x_length]
   (stride) or [x_length * y_length] (offset), or changes the word count
   (a length), so the stream differs. *)
let agu_upset_masked (p : Access_pattern.t) = function
  | Site.Stride -> p.Access_pattern.y_length = 1
  | Site.Offset -> p.Access_pattern.repeat = 1
  | Site.Start | Site.X_length | Site.Y_length | Site.Repeat -> false

(* A zeroed length register makes the down-counter wrap through 2^24 —
   the watchdog is what ends that run, so it classifies as Hang, as does
   any corrupted pattern whose cycle count exceeds the budget. *)
let classify_agu ~budget field corrupted =
  if
    corrupted.Access_pattern.x_length <= 0
    || corrupted.Access_pattern.y_length <= 0
    || corrupted.Access_pattern.repeat <= 0
  then Hang
  else if Db_mem.Agu_sim.cycles_estimate corrupted > budget then Hang
  else if agu_upset_masked corrupted field then Masked
  else Sdc

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)

type trial = {
  t_class : Site.target_class;
  t_layer : string option;
  t_outcome : outcome;
}

(* One pool task's private copy of the stored parameter words.  [read]
   and [write] address one word as a Q-word; [forward] evaluates one input
   (under an evaluator, faulted for LUT upsets) to the output blob's
   words, valid until the next [forward] on the same copy.  A fault writes
   its flipped words, runs, and writes the old words back, so a copy holds
   the fault-free words between draws. *)
type working_copy = {
  read : node:string -> tensor:int -> word:int -> int;
  write : node:string -> tensor:int -> word:int -> int -> unit;
  forward : Quantized.function_eval -> Tensor.t -> Quantized.qtensor;
}

let run ~design ~params ~input_blob ~inputs (config : config) =
  Db_obs.Obs.with_span "faults.campaign"
    ~attrs:
      [
        ("trials", string_of_int config.trials);
        ("seed", string_of_int config.seed);
      ]
  @@ fun () ->
  if Array.length inputs = 0 then fail "campaign needs at least one input";
  if config.trials <= 0 then
    fail "campaign needs a positive trial count (got %d)" config.trials;
  if config.cycle_budget <= 0 then
    fail "campaign needs a positive cycle budget (got %d)" config.cycle_budget;
  List.iter
    (fun r ->
      (* false for NaN and the infinities too *)
      if not (r >= 0.0 && r <= 1.0) then
        fail "fault rate must be a finite number in [0, 1] (got %g)" r)
    config.rates;
  let fmt = design.Design.datapath.Db_sched.Datapath.fmt in
  let word_bits = fmt.Fixed.total_bits in
  let word_mask = (1 lsl word_bits) - 1 in
  let net = design.Design.network in
  (* The stored words of the design's Approx LUTs: a flip lands on
     exactly a ROM word, and a cancelled flip is Masked. *)
  let luts = design.Design.program.Compiler.luts in
  (* The one engine dispatch.  The specialized engine binds its own
     quantized words, replays through its own arena and judges healthy
     runs with its trace's evaluator, so they read its activation tables;
     the generic oracle keeps its own float parameters and re-interprets
     them, a word written back as [to_float] — in-range Q-words round-trip
     exactly through to_float/of_float, so both see the same fault. *)
  let eval, working_copy =
    match config.engine with
    | Specialized ->
        let spec = Db_sim.Specialize.of_design design in
        ( Db_sim.Specialize.lut_eval spec,
          fun () ->
          let bound = Db_sim.Specialize.bind spec params in
          let arena = Db_sim.Specialize.new_arena spec in
          let qdata node tensor =
            (List.nth (Db_sim.Specialize.node_qparams bound ~node) tensor)
              .Quantized.qdata
          in
          {
            read = (fun ~node ~tensor ~word -> (qdata node tensor).(word));
            write =
              (fun ~node ~tensor ~word v -> (qdata node tensor).(word) <- v);
            forward =
              (fun eval input ->
                Db_sim.Specialize.qoutput ~eval ~arena bound
                  ~inputs:[ (input_blob, input) ]);
          } )
    | Generic ->
        ( Db_sim.Lut_eval.of_set luts,
          fun () ->
          let params = Params.copy params in
          let tensor_of node i = List.nth (Params.get params node) i in
          {
            read =
              (fun ~node ~tensor ~word ->
                Fixed.of_float fmt (Tensor.get (tensor_of node tensor) word));
            write =
              (fun ~node ~tensor ~word v ->
                Tensor.set (tensor_of node tensor) word (Fixed.to_float fmt v));
            forward =
              (fun eval input ->
                Quantized.qoutput ~eval ~fmt net params
                  ~inputs:[ (input_blob, input) ]);
          } )
  in
  (* One working copy per pool task, made on first use.  [chunked n f]
     cuts [0, n) into one contiguous chunk per task, as
     {!Db_sim.Specialize.output_batch} does, and runs [f copy i] over each
     chunk with that task's copy: memory is O(jobs x params), whatever the
     trial count. *)
  let copies =
    Array.init (Pool.job_count ()) (fun _ -> lazy (working_copy ()))
  in
  let chunked n f =
    let tasks = Int.min n (Array.length copies) in
    Pool.parallel_for ~chunk:1 ~lo:0 ~hi:tasks (fun k ->
        for i = k * n / tasks to ((k + 1) * n / tasks) - 1 do
          f copies.(k) i
        done)
  in
  let classifier = Db_nn.Network.classifier_output net in
  let qtop1_of (q : Quantized.qtensor) =
    if classifier then q.Quantized.qdata.(0)
    else begin
      let d = q.Quantized.qdata in
      if Array.length d = 0 then
        Db_util.Error.failf_at ~component:"tensor" "max_index: empty tensor";
      let best = ref 0 in
      for i = 1 to Array.length d - 1 do
        if Array.unsafe_get d i > Array.unsafe_get d !best then best := i
      done;
      !best
    end
  in
  (* Copied out of the arena, once per input. *)
  let golden = Array.make (Array.length inputs) None in
  chunked (Array.length inputs) (fun copy i ->
      let q = (Lazy.force copy).forward eval inputs.(i) in
      golden.(i) <- Some { q with Quantized.qdata = Array.copy q.Quantized.qdata });
  let golden = Array.map Option.get golden in
  let golden_top1 = Array.map qtop1_of golden in
  let stored_bits cls ~word_bits =
    Protect.stored_bits (scheme_for config.protection cls) ~word_bits
  in
  let input_words = Tensor.numel inputs.(0) in
  let space =
    Site.enumerate ~design ~params ~input_blob ~input_words ~stored_bits
      ~targets:config.targets ()
  in
  let qwords_equal a b =
    Array.length a = Array.length b
    &&
    let n = Array.length a in
    let rec go i =
      i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
    in
    go 0
  in
  let classify copy eval input_idx input =
    let q = (Lazy.force copy).forward eval input in
    if qwords_equal q.Quantized.qdata golden.(input_idx).Quantized.qdata then
      Masked
    else if qtop1_of q = golden_top1.(input_idx) then Sdc
    else Top1_flip
  in
  let run_trial copy t =
    let rng = Rng.create (config.seed + t) in
    let g, word, bit = Site.pick space rng in
    let input_idx = Rng.int rng (Array.length inputs) in
    let scheme = scheme_for config.protection g.Site.g_class in
    (* Push one flip of stored word [v] through the protection scheme; a
       silent survivor that changed the word is classified by
       [corrupt v']. *)
    let upset v ~corrupt =
      match
        Protect.transmit scheme ~word_bits ~word:(v land word_mask)
          ~flips:[ bit ]
      with
      | Protect.Corrected -> Corrected
      | Protect.Reloaded -> Retried
      | Protect.Silent w ->
          let v' = sign_extend word_bits w in
          if v' = v then Masked else corrupt v'
    in
    let input = inputs.(input_idx) in
    let outcome =
      match g.Site.g_payload with
      | Site.P_param { node; tensor } ->
          let c = Lazy.force copy in
          let v = c.read ~node ~tensor ~word in
          upset v ~corrupt:(fun v' ->
              c.write ~node ~tensor ~word v';
              let outcome = classify copy eval input_idx input in
              c.write ~node ~tensor ~word v;
              outcome)
      | Site.P_lut { lut = name } ->
          upset (Db_core.Lut_set.word luts ~name word) ~corrupt:(fun v' ->
              let luts' = Db_core.Lut_set.with_word luts ~name word v' in
              classify copy (Db_sim.Lut_eval.of_set luts') input_idx input)
      | Site.P_buffer _ ->
          upset (Fixed.of_float fmt (Tensor.get input word)) ~corrupt:(fun v' ->
              let input' = Tensor.copy input in
              Tensor.set input' word (Fixed.to_float fmt v');
              classify copy eval input_idx input')
      | Site.P_grad _ | Site.P_upd_fsm _ ->
          (* never enumerated without [?train]; inference campaigns
             cannot reach these — training upsets live in Train_campaign *)
          fail "training fault sites require the training campaign"
      | Site.P_agu { program; transfer } -> (
          let p = List.nth design.Design.program.Compiler.programs program in
          let tr = List.nth p.Compiler.transfers transfer in
          let pat = tr.Compiler.pattern in
          let field = Site.agu_fields.(word) in
          let full = agu_field_value pat field in
          let v = full land agu_mask in
          match
            Protect.transmit scheme ~word_bits:Site.agu_register_bits ~word:v
              ~flips:[ bit ]
          with
          | Protect.Corrected -> Corrected
          | Protect.Reloaded -> Retried
          | Protect.Silent w ->
              if w = v then Masked
              else
                let corrupted =
                  agu_with_field pat field (full land lnot agu_mask lor w)
                in
                classify_agu ~budget:config.cycle_budget field corrupted)
      | Site.P_fsm _ ->
          (* A stuck one-hot state register — the coordinator's or an AGU's —
             re-enters its state forever and never raises done, so under any
             positive budget the watchdog always fires. *)
          Hang
    in
    Db_obs.Obs.incr "faults.trials";
    Db_obs.Obs.incr ("faults.outcome." ^ outcome_name outcome);
    { t_class = g.Site.g_class; t_layer = g.Site.g_layer; t_outcome = outcome }
  in
  let slots =
    Array.make config.trials
      { t_class = Site.Weights; t_layer = None; t_outcome = Masked }
  in
  chunked config.trials (fun copy t -> slots.(t) <- run_trial copy t);
  let total =
    Array.fold_left (fun acc tr -> add_outcome acc tr.t_outcome) zero_counts slots
  in
  let rows_of labels =
    List.filter_map
      (fun (label, matches) ->
        let c =
          Array.fold_left
            (fun acc tr ->
              if matches tr then add_outcome acc tr.t_outcome else acc)
            zero_counts slots
        in
        if c.injections = 0 then None
        else Some { row_label = label; row_counts = c })
      labels
  in
  let per_class =
    rows_of
      (List.filter (fun c -> List.mem c config.targets) Site.all_classes
      |> List.map (fun c -> (Site.class_name c, fun tr -> tr.t_class = c)))
  in
  let per_layer =
    rows_of
      (List.rev
         (Graph.fold design.Design.ir ~init:[] ~f:(fun acc n ->
              ( n.Graph.node_name,
                fun tr -> tr.t_layer = Some n.Graph.node_name )
              :: acc))
      @ [ ("(global)", fun tr -> tr.t_layer = None) ])
  in
  (* Degradation sweeps raw fabric sensitivity, so it always injects into
     unprotected architectural bits of the data-carrying classes. *)
  let data_space =
    Site.enumerate ~design ~params ~input_blob ~input_words
      ~stored_bits:(fun _ ~word_bits -> word_bits)
      ~targets:[ Site.Weights; Site.Biases; Site.Data_buffer ]
      ()
  in
  let degradation =
    List.mapi
      (fun ri rate ->
        let n = Array.length inputs in
        let hits = Array.make n false in
        chunked n (fun copy i ->
            let rng = Rng.create (config.seed + (1_000_003 * (ri + 1)) + i) in
            let expected = rate *. float_of_int data_space.Site.total_bits in
            let base = int_of_float expected in
            let nflips =
              base
              + (if Rng.float rng 1.0 < expected -. float_of_int base then 1
                 else 0)
            in
            if nflips = 0 then hits.(i) <- true
            else begin
              let c = Lazy.force copy in
              let flip_q v bit =
                sign_extend word_bits ((v land word_mask) lxor (1 lsl bit))
              in
              (* Each flip's (node, tensor, word, old word), newest first:
                 written back in that order after the pass, so a word
                 flipped twice ends up fault-free. *)
              let undo = ref [] in
              let input' = Tensor.copy inputs.(i) in
              for _ = 1 to nflips do
                let g, word, bit = Site.pick data_space rng in
                match g.Site.g_payload with
                | Site.P_param { node; tensor } ->
                    let v = c.read ~node ~tensor ~word in
                    c.write ~node ~tensor ~word (flip_q v bit);
                    undo := (node, tensor, word, v) :: !undo
                | Site.P_buffer _ ->
                    let v = Fixed.of_float fmt (Tensor.get input' word) in
                    Tensor.set input' word (Fixed.to_float fmt (flip_q v bit))
                | _ -> ()
              done;
              hits.(i) <- qtop1_of (c.forward eval input') = golden_top1.(i);
              List.iter
                (fun (node, tensor, word, v) -> c.write ~node ~tensor ~word v)
                !undo
            end);
        let correct =
          Array.fold_left (fun a h -> if h then a + 1 else a) 0 hits
        in
        (rate, 100.0 *. float_of_int correct /. float_of_int n))
      config.rates
  in
  let overheads =
    let usage = Design.resource_usage design in
    List.filter_map
      (fun cls ->
        let scheme = scheme_for config.protection cls in
        if scheme = Protect.Unprotected then None
        else
          let words = Site.class_words space cls in
          if words = 0 then None
          else
            let wb =
              if cls = Site.Agu_config then Site.agu_register_bits
              else word_bits
            in
            let ov = Protect.resource_overhead scheme ~word_bits:wb ~words in
            let pct = 100.0 *. Resource.utilisation ov ~within:usage in
            Some (Site.class_name cls, Protect.name scheme, ov, pct))
      [
        Site.Weights; Site.Biases; Site.Lut_tables; Site.Agu_config;
        Site.Data_buffer;
      ]
  in
  {
    res_seed = config.seed;
    res_trials = config.trials;
    res_space_bits = space.Site.total_bits;
    res_protection = config.protection;
    res_total = total;
    res_per_class = per_class;
    res_per_layer = per_layer;
    res_degradation = degradation;
    res_overheads = overheads;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let protection_fields p =
  [
    ("weights", p.weights);
    ("biases", p.biases);
    ("luts", p.luts);
    ("buffers", p.buffers);
    ("agu", p.agu);
  ]

let count_cells c =
  [
    string_of_int c.injections;
    string_of_int c.masked;
    string_of_int c.sdc;
    string_of_int c.top1_flips;
    string_of_int c.corrected;
    string_of_int c.retried;
    string_of_int c.hangs;
    Printf.sprintf "%.1f%%" (100.0 *. silent_fraction c);
  ]

let count_headers =
  [ "inj"; "masked"; "sdc"; "top1-flip"; "corrected"; "retried"; "hang"; "silent" ]

let render_text r =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "fault campaign: %d trials, seed %d, %d stored bits\n"
    r.res_trials r.res_seed r.res_space_bits;
  Printf.bprintf buf "protection: %s\n\n"
    (String.concat " "
       (List.map
          (fun (k, s) -> Printf.sprintf "%s=%s" k (Protect.name s))
          (protection_fields r.res_protection)));
  Buffer.add_string buf "outcomes by target class:\n";
  Buffer.add_string buf
    (Db_report.Table.render
       ~headers:("class" :: count_headers)
       ~rows:
         (List.map
            (fun row -> row.row_label :: count_cells row.row_counts)
            r.res_per_class
         @ [ "total" :: count_cells r.res_total ]));
  Buffer.add_string buf "\nper-layer sensitivity:\n";
  Buffer.add_string buf
    (Db_report.Table.render
       ~headers:("layer" :: count_headers)
       ~rows:
         (List.map
            (fun row -> row.row_label :: count_cells row.row_counts)
            r.res_per_layer));
  if r.res_degradation <> [] then begin
    Buffer.add_string buf
      "\ntop-1 accuracy vs raw fault rate (unprotected weight/bias/buffer bits):\n";
    Buffer.add_string buf
      (Db_report.Table.render
         ~headers:[ "fault rate"; "top-1 accuracy" ]
         ~rows:
           (List.map
              (fun (rate, acc) ->
                [ Printf.sprintf "%g" rate; Printf.sprintf "%.1f%%" acc ])
              r.res_degradation))
  end;
  if r.res_overheads <> [] then begin
    Buffer.add_string buf "\nprotection overhead:\n";
    Buffer.add_string buf
      (Db_report.Table.render
         ~headers:[ "class"; "scheme"; "luts"; "ffs"; "bram bits"; "of design" ]
         ~rows:
           (List.map
              (fun (cls, scheme, (ov : Resource.t), pct) ->
                [
                  cls; scheme;
                  string_of_int ov.Resource.luts;
                  string_of_int ov.Resource.ffs;
                  string_of_int ov.Resource.bram_bits;
                  Printf.sprintf "%.2f%%" pct;
                ])
              r.res_overheads))
  end;
  Buffer.contents buf

let json_counts c =
  Printf.sprintf
    "{\"injections\": %d, \"masked\": %d, \"sdc\": %d, \"top1_flips\": %d, \
     \"corrected\": %d, \"retried\": %d, \"hangs\": %d}"
    c.injections c.masked c.sdc c.top1_flips c.corrected c.retried c.hangs

let render_json r =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"seed\": %d,\n  \"trials\": %d,\n" r.res_seed
    r.res_trials;
  Printf.bprintf buf "  \"space_bits\": %d,\n" r.res_space_bits;
  Printf.bprintf buf "  \"protection\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun (k, s) -> Printf.sprintf "\"%s\": \"%s\"" k (Protect.name s))
          (protection_fields r.res_protection)));
  Printf.bprintf buf "  \"total\": %s,\n" (json_counts r.res_total);
  let row_objects label rows =
    Printf.sprintf "  \"%s\": [\n%s\n  ]" label
      (String.concat ",\n"
         (List.map
            (fun row ->
              Printf.sprintf "    {\"label\": \"%s\", \"counts\": %s}"
                (Db_util.Minijson.escape row.row_label)
                (json_counts row.row_counts))
            rows))
  in
  Buffer.add_string buf (row_objects "per_class" r.res_per_class);
  Buffer.add_string buf ",\n";
  Buffer.add_string buf (row_objects "per_layer" r.res_per_layer);
  Buffer.add_string buf ",\n";
  Printf.bprintf buf "  \"degradation\": [\n%s\n  ],\n"
    (String.concat ",\n"
       (List.map
          (fun (rate, acc) ->
            Printf.sprintf "    {\"rate\": %g, \"top1_accuracy\": %.6g}" rate
              acc)
          r.res_degradation));
  Printf.bprintf buf "  \"protection_overhead\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (cls, scheme, (ov : Resource.t), pct) ->
            Printf.sprintf
              "    {\"class\": \"%s\", \"scheme\": \"%s\", \"luts\": %d, \
               \"ffs\": %d, \"bram_bits\": %d, \"percent_of_design\": %.6g}"
              cls scheme ov.Resource.luts ov.Resource.ffs ov.Resource.bram_bits
              pct)
          r.res_overheads));
  Buffer.contents buf
