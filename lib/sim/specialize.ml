(* Per-design specialized simulation engine: partial-evaluates a generated
   design's schedule, folding plan and AGU address patterns into a flat
   compiled trace, then replays it with tight loops.

   The contract is bitwise identity with the generic engine
   ({!Quantized.qoutput} + {!Db_mem.Agu_sim}): same outputs, same observable
   counters, same exceptions at the same logical points, at any
   DEEPBURNING_JOBS.  Three facts make the fast paths sound:

   - the quantized conv / FC kernels accumulate in native ints, whose
     addition and multiplication are modular (mod 2^63), so the specialized
     kernels may reorder and unroll the MACs without changing a single bit,
     even where a sum wraps (the checker's DB-R003 gate proves none does on
     a checked design);
   - an activation's result depends only on its input word, so for formats
     of at most 16 bits it is tabulated once per design;
   - a healthy AGU pattern's word and cycle counts are closed forms of its
     six registers ({!Db_mem.Access_pattern.word_count},
     {!Db_mem.Agu_sim.cycles_estimate}), so control replay reduces to
     summing precomputed per-transfer cycle counts under the same watchdog,
     and compiling the trace costs O(transfers), not O(addresses).

   Every other op (pooling, LRN, LCN, softmax, concat, recurrent, ...)
   runs its one quantized kernel, {!Quantized.eval_node}, into its slot.
   A conv / FC node whose parameters fail the fast path's shape guard runs
   that kernel too, on a buffer that does not fit, so its result and
   errors stay the generic engine's.

   Every node writes into a per-task arena: one [int array] per node,
   sized at compile time from {!Db_nn.Shape_infer} and overwritten by
   every sample the arena replays (see [eval_slots]). *)

module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Fixed = Db_fixed.Fixed
module Design = Db_core.Design
module Compiler = Db_core.Compiler
module Network = Db_nn.Network
module Layer = Db_nn.Layer
module Quantized = Db_nn.Quantized
module Params = Db_nn.Params
module Shape_infer = Db_nn.Shape_infer
module Pool = Db_parallel.Pool

(* The specialized engine must be indistinguishable from the generic one,
   so its functional errors carry the interpreter's component. *)
let qfail fmt = Db_util.Error.failf_at ~component:"quantized" fmt

let sfail fmt = Db_util.Error.failf_at ~component:"simulator" fmt

(* --- compiled control trace ---------------------------------------------- *)

type control_step =
  | Healthy of { words : int; cycles : int }
  | Invalid of exn
      (** the exception pattern validation raised, replayed at the same
          point the generic engine would hit it *)

(* --- compiled functional plan --------------------------------------------- *)

(* An activation tabulated over every word of a format of at most 16 bits,
   indexed by [word - Fixed.min_value fmt]. *)
type act_table = (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t

type kernel =
  | K_input of { top : string; shape : Shape.t }
  | K_bad_input  (** input node without exactly one top *)
  | K_conv of { stride : int; pad : int; group : int; has_bias : bool }
  | K_fc of { has_bias : bool }
  | K_act of {
      act : Layer.activation;
      table : act_table option;  (** [act] under the design's own LUTs *)
    }
  | K_eval  (** {!Quantized.eval_node} into the node's slot *)

type node_plan = {
  np_name : string;
  np_layer : Layer.t;
  np_bottoms : (string * int) array;  (** blob name, producing slot *)
  np_kernel : kernel;
  np_words : int;  (** size of the node's arena slot: its output blob's words *)
}

type out_spec =
  | Out_single of { slot : int; classifier : bool }
  | Out_multi of int

type t = {
  sp_fmt : Fixed.format;
  sp_eval : Quantized.function_eval;
  sp_plan : node_plan array;
  sp_out : out_spec;
  sp_control : control_step array;
  sp_control_cycles : int;  (** healthy whole-trace replay cost *)
}

let qformat t = t.sp_fmt

let lut_eval t = t.sp_eval

let control_cycles t = t.sp_control_cycles

let activation_table t act =
  Array.find_map
    (fun np ->
      match np.np_kernel with
      | K_act { act = a; table = Some tbl; _ } when a = act ->
          Some (Array.init (Bigarray.Array1.dim tbl) (Bigarray.Array1.get tbl))
      | _ -> None)
    t.sp_plan

(* --- trace compilation ---------------------------------------------------- *)

(* One control step per compiled transfer, in the order the generic replay
   clocks them.  A pattern's word and cycle counts are closed forms of its
   six registers, so no address is ever generated; a pattern that fails
   validation keeps the exception [Agu_sim.create] would raise on it. *)
let compile_control (design : Design.t) =
  Array.of_list
    (List.concat_map
       (fun (p : Compiler.fold_program) ->
         List.map
           (fun (tr : Compiler.transfer) ->
             let pat = tr.Compiler.pattern in
             match Db_mem.Access_pattern.validate pat with
             | () ->
                 Healthy
                   {
                     words = Db_mem.Access_pattern.word_count pat;
                     cycles = Db_mem.Agu_sim.cycles_estimate pat;
                   }
             | exception e -> Invalid e)
           p.Compiler.transfers)
       design.Design.program.Compiler.programs)

(* Widest format whose activations are tabulated: a 16-bit table holds
   65536 two-byte entries, 128 KB per distinct activation. *)
let table_bits = 16

(* [of_float fmt (f (to_float fmt v))] for every word [v] of [fmt], the
   very expression the closure path evaluates per word. *)
let act_table fmt f : act_table =
  let lo = Fixed.min_value fmt in
  let tbl =
    Bigarray.Array1.create Bigarray.int16_signed Bigarray.c_layout
      (Fixed.max_value fmt - lo + 1)
  in
  for i = 0 to Bigarray.Array1.dim tbl - 1 do
    Bigarray.Array1.unsafe_set tbl i
      (Fixed.of_float fmt (f (Fixed.to_float fmt (lo + i))))
  done;
  tbl

let compile (design : Design.t) =
  Db_obs.Obs.with_span "simulate.compile_trace"
    ~attrs:[ ("network", design.Design.network.Network.net_name) ]
  @@ fun () ->
  let net = design.Design.network in
  let fmt = design.Design.datapath.Db_sched.Datapath.fmt in
  let sp_eval = Lut_eval.of_set design.Design.program.Compiler.luts in
  let tables = ref [] in
  let table_of act =
    if fmt.Fixed.total_bits > table_bits then None
    else
      match List.assoc_opt act !tables with
      | Some tbl -> Some tbl
      | None ->
          let tbl = act_table fmt (sp_eval.Quantized.eval_activation act) in
          tables := (act, tbl) :: !tables;
          Some tbl
  in
  let shapes = Shape_infer.infer net in
  let blob_slot = Hashtbl.create 16 in
  let plans = ref [] in
  let next = ref 0 in
  Network.iter net (fun node ->
      let slot = !next in
      incr next;
      let kernel =
        match node.Network.layer with
        | Layer.Input { shape } -> begin
            match node.Network.tops with
            | [ top ] -> K_input { top; shape }
            | [] | _ :: _ :: _ -> K_bad_input
          end
        | Layer.Conv { stride; pad; group; bias; _ } ->
            K_conv { stride; pad; group; has_bias = bias }
        | Layer.Fc { bias; _ } -> K_fc { has_bias = bias }
        | Layer.Act act -> K_act { act; table = table_of act }
        | _ -> K_eval
      in
      let np_bottoms =
        Array.of_list
          (List.map
             (fun b ->
               (b, Option.value ~default:(-1) (Hashtbl.find_opt blob_slot b)))
             node.Network.bottoms)
      in
      List.iter (fun top -> Hashtbl.replace blob_slot top slot) node.Network.tops;
      let np_words =
        match node.Network.tops with
        | top :: _ -> Shape.numel (Shape_infer.blob_shape shapes top)
        | [] -> 0
      in
      plans :=
        { np_name = node.Network.node_name; np_layer = node.Network.layer;
          np_bottoms; np_kernel = kernel; np_words }
        :: !plans);
  let sp_out =
    match Network.output_blobs net with
    | [ blob ] ->
        let classifier = Network.classifier_output net in
        Out_single { slot = Hashtbl.find blob_slot blob; classifier }
    | blobs -> Out_multi (List.length blobs)
  in
  let sp_control = compile_control design in
  let sp_control_cycles =
    Array.fold_left
      (fun acc -> function Healthy { cycles; _ } -> acc + cycles | Invalid _ -> acc)
      0 sp_control
  in
  {
    sp_fmt = fmt;
    sp_eval;
    sp_plan = Array.of_list (List.rev !plans);
    sp_out;
    sp_control;
    sp_control_cycles;
  }

module Cache = Db_core.Design_cache.Artifact (struct
  type nonrec t = t
end)

let of_design design = Cache.find design ~compile

(* --- control replay -------------------------------------------------------- *)

(* Exact replica of the generic [Simulator.replay_control] semantics: the
   per-transfer budget pre-check fires with the cycles spent so far; a
   mid-transfer overrun re-raises at budget + 1 (the generic path's
   [max_cycles + 1] watchdog cycle folded into the running total); [agu.*]
   counters are recorded per healthy transfer exactly as
   [Agu_sim.run_to_completion] records them on success. *)
let replay_control ~cycle_budget t =
  Db_obs.Obs.with_span "simulate.replay" @@ fun () ->
  let spent = ref 0 in
  Array.iter
    (fun step ->
      if cycle_budget - !spent <= 0 then
        Db_util.Error.timeout ~component:"simulator" ~cycles:!spent
          ~budget:cycle_budget;
      match step with
      | Invalid e -> raise e
      | Healthy { words; cycles } ->
          if cycles > cycle_budget - !spent then
            Db_util.Error.timeout ~component:"simulator"
              ~cycles:(cycle_budget + 1) ~budget:cycle_budget;
          if Db_obs.Obs.enabled () then begin
            Db_obs.Obs.incr "agu.runs";
            Db_obs.Obs.incr ~by:cycles "agu.cycles";
            Db_obs.Obs.incr ~by:words "agu.addresses";
            Db_obs.Obs.incr ~by:(cycles - words) "agu.stall_cycles"
          end;
          spent := !spent + cycles)
    t.sp_control;
  !spent

(* --- specialized kernels --------------------------------------------------- *)

(* Output positions [lo, hi] along one axis whose input coordinate
   [o * stride + tap - pad] falls inside [0, n): the taps that land in the
   padding are cut off once here, not tested per MAC.  [hi < lo] when the
   tap never reaches the input. *)
let tap_ranges ~n ~out ~stride ~pad ~k =
  let lo = Array.make k 0 and hi = Array.make k (-1) in
  for tap = 0 to k - 1 do
    let off = tap - pad in
    lo.(tap) <- (if off >= 0 then 0 else (stride - 1 - off) / stride);
    if n - 1 - off >= 0 then hi.(tap) <- Int.min (out - 1) ((n - 1 - off) / stride)
  done;
  (lo, hi)

(* Output channels per register block of the tap-major kernel. *)
let block = 4

(* Tap-major convolution on unsafe indices, entered only once [conv_kernel]
   has proved every index in bounds.  Each task owns one block of up to
   four output channels of one group: it seeds their planes with the
   shifted bias, then for every tap (ic, ky, kx) adds [input * weight] over
   the tap's precomputed output window, and rescales the planes in place.
   The accumulation order differs from the generic kernel's, but OCaml
   [int] arithmetic is modular, so every order yields the same words. *)
let conv_blocks fmt ~idata ~wdata ~bias ~out ~stride ~pad ~group ~cin_g ~cout
    ~k ~h ~w ~oh ~ow =
  let plane = oh * ow and kk = k * k in
  let cout_g = cout / group in
  let blocks_per_group = (cout_g + block - 1) / block in
  let y_lo, y_hi = tap_ranges ~n:h ~out:oh ~stride ~pad ~k in
  let x_lo, x_hi = tap_ranges ~n:w ~out:ow ~stride ~pad ~k in
  (* Distance between the same tap of consecutive output channels. *)
  let wstride = cin_g * kk in
  let run b =
    let g = b / blocks_per_group in
    let oc0 = (g * cout_g) + (b mod blocks_per_group * block) in
    let nb = Int.min block (((g + 1) * cout_g) - oc0) in
    let obase = oc0 * plane in
    (* [out] holds the previous sample's words: seed every plane. *)
    (match bias with
    | None -> Array.fill out obase (nb * plane) 0
    | Some (bt : Quantized.qtensor) ->
        for c = 0 to nb - 1 do
          Array.fill out
            (obase + (c * plane))
            plane
            (Array.unsafe_get bt.Quantized.qdata (oc0 + c) lsl fmt.Fixed.frac_bits)
        done);
    for ic = 0 to cin_g - 1 do
      let ibase_c = ((g * cin_g) + ic) * h * w in
      for ky = 0 to k - 1 do
        for kx = 0 to k - 1 do
          let xlo = Array.unsafe_get x_lo kx and xhi = Array.unsafe_get x_hi kx in
          let ioff = ibase_c + kx - pad in
          let wtap = (((oc0 * cin_g) + ic) * kk) + (ky * k) + kx in
          if nb = block then begin
            let w0 = Array.unsafe_get wdata wtap
            and w1 = Array.unsafe_get wdata (wtap + wstride)
            and w2 = Array.unsafe_get wdata (wtap + (2 * wstride))
            and w3 = Array.unsafe_get wdata (wtap + (3 * wstride)) in
            for oy = Array.unsafe_get y_lo ky to Array.unsafe_get y_hi ky do
              let irow = ioff + (((oy * stride) + ky - pad) * w) in
              let o0 = obase + (oy * ow) in
              for ox = xlo to xhi do
                let v = Array.unsafe_get idata (irow + (ox * stride)) in
                let o = o0 + ox in
                Array.unsafe_set out o (Array.unsafe_get out o + (v * w0));
                let o = o + plane in
                Array.unsafe_set out o (Array.unsafe_get out o + (v * w1));
                let o = o + plane in
                Array.unsafe_set out o (Array.unsafe_get out o + (v * w2));
                let o = o + plane in
                Array.unsafe_set out o (Array.unsafe_get out o + (v * w3))
              done
            done
          end
          else
            for c = 0 to nb - 1 do
              let wc = Array.unsafe_get wdata (wtap + (c * wstride)) in
              for oy = Array.unsafe_get y_lo ky to Array.unsafe_get y_hi ky do
                let irow = ioff + (((oy * stride) + ky - pad) * w) in
                let o0 = obase + (c * plane) + (oy * ow) in
                for ox = xlo to xhi do
                  let o = o0 + ox in
                  Array.unsafe_set out o
                    (Array.unsafe_get out o
                    + (Array.unsafe_get idata (irow + (ox * stride)) * wc))
                done
              done
            done
        done
      done
    done;
    for i = obase to obase + (nb * plane) - 1 do
      Array.unsafe_set out i (Quantized.rescale_acc fmt (Array.unsafe_get out i))
    done
  in
  (* Blocks write disjoint channel planes; at jobs=1 or on a small layer
     the loop runs inline on the calling domain. *)
  Pool.parallel_for ~work:(cout * plane * cin_g * kk) ~lo:0
    ~hi:(group * blocks_per_group) run

let numel_matches (q : Quantized.qtensor) =
  Array.length q.Quantized.qdata = Shape.numel q.Quantized.qshape

let conv_kernel fmt ~(input : Quantized.qtensor) ~(weights : Quantized.qtensor)
    ~bias ~stride ~pad ~group ~out =
  (* Dimension extraction in the generic kernel's order, so a malformed
     weight shape raises the same error here. *)
  let ish = input.Quantized.qshape in
  let cin = Shape.channels ish and h = Shape.height ish and w = Shape.width ish in
  let wsh = weights.Quantized.qshape in
  let cout = Shape.dim wsh 0 and cin_g = Shape.dim wsh 1 and k = Shape.dim wsh 2 in
  let oh =
    Db_tensor.Ops.conv_output_dim ~input:h ~kernel:k ~stride ~pad_lo:pad
      ~pad_hi:pad
  in
  let ow =
    Db_tensor.Ops.conv_output_dim ~input:w ~kernel:k ~stride ~pad_lo:pad
      ~pad_hi:pad
  in
  let guard =
    group > 0 && cin mod group = 0 && cout mod group = 0
    && cin_g = cin / group && Shape.rank wsh = 4
    && Shape.dim wsh 3 = k
    && Array.length input.Quantized.qdata = cin * h * w
    && Array.length out = cout * oh * ow
    && numel_matches weights
    && (match bias with
       | None -> true
       | Some (bt : Quantized.qtensor) -> Array.length bt.Quantized.qdata >= cout)
  in
  if not guard then None
  else begin
    conv_blocks fmt ~idata:input.Quantized.qdata ~wdata:weights.Quantized.qdata
      ~bias ~out ~stride ~pad ~group ~cin_g ~cout ~k ~h ~w ~oh ~ow;
    Some { Quantized.qshape = Shape.chw ~channels:cout ~height:oh ~width:ow; qdata = out }
  end

let fc_kernel fmt ~(input : Quantized.qtensor) ~(weights : Quantized.qtensor)
    ~bias ~nin ~nout ~out =
  let idata = input.Quantized.qdata and wdata = weights.Quantized.qdata in
  for o = 0 to nout - 1 do
    let base = o * nin in
    let acc =
      ref
        (match bias with
        | None -> 0
        | Some (bt : Quantized.qtensor) ->
            Array.unsafe_get bt.Quantized.qdata o lsl fmt.Fixed.frac_bits)
    in
    for i = 0 to nin - 1 do
      acc :=
        !acc + (Array.unsafe_get wdata (base + i) * Array.unsafe_get idata i)
    done;
    Array.unsafe_set out o (Quantized.rescale_acc fmt !acc)
  done;
  { Quantized.qshape = Shape.vector nout; qdata = out }

(* --- bound traces ---------------------------------------------------------- *)

type bound = {
  bd_spec : t;
  bd_qparams : Quantized.qtensor list array;  (** pre-quantized, per slot *)
}

let bind t params =
  {
    bd_spec = t;
    bd_qparams =
      Array.map
        (fun np ->
          match np.np_kernel with
          | K_input _ | K_bad_input -> []
          | K_conv _ | K_fc _ | K_act _ | K_eval ->
              List.map (Quantized.quantize t.sp_fmt) (Params.get params np.np_name))
        t.sp_plan;
  }

let spec bound = bound.bd_spec

let node_slot bound ~node =
  let found = ref (-1) in
  Array.iteri
    (fun i np -> if np.np_name = node then found := i)
    bound.bd_spec.sp_plan;
  if !found < 0 then sfail "specialized trace has no node %S" node;
  !found

let node_qparams bound ~node = bound.bd_qparams.(node_slot bound ~node)

let with_node_params bound ~node qparams =
  let qp = Array.copy bound.bd_qparams in
  qp.(node_slot bound ~node) <- qparams;
  { bound with bd_qparams = qp }

(* --- functional playback --------------------------------------------------- *)

external table_get : act_table -> int -> int = "%caml_ba_unsafe_ref_1"

let no_table : act_table =
  Bigarray.Array1.create Bigarray.int16_signed Bigarray.c_layout 0

(* [dst.(j) <- of_float fmt (f (to_float fmt src.(j)))], read from [tbl]
   for the words it covers.  A word outside the format (which no
   saturating kernel produces) and every word under [no_table] go through
   the closure [f]. *)
let map_activation fmt (tbl : act_table) f ~src ~dst =
  let lo = Fixed.min_value fmt and n = Bigarray.Array1.dim tbl in
  for j = 0 to Array.length src - 1 do
    let v = Array.unsafe_get src j in
    let i = v - lo in
    Array.unsafe_set dst j
      (if i >= 0 && i < n then table_get tbl i
       else Fixed.of_float fmt (f (Fixed.to_float fmt v)))
  done

(* One buffer per node, [np_words] long.  An arena belongs to one pool
   task, which replays its samples through it one after another. *)
type arena = int array array

let new_arena t = Array.map (fun np -> Array.make np.np_words 0) t.sp_plan

(* Every slot of one forward pass.  Node [i] writes its words into
   [arena.(i)], overwriting the previous sample's; only a conv / FC node
   whose guard fails returns a fresh array, from {!Quantized.eval_node}.
   Results therefore alias the arena: they are valid until the next pass
   through the same arena. *)
let eval_slots ?eval bound (arena : arena) ~inputs =
  let t = bound.bd_spec in
  let fmt = t.sp_fmt in
  let eval = Option.value eval ~default:t.sp_eval in
  let n = Array.length t.sp_plan in
  let slots =
    Array.make n { Quantized.qshape = Shape.scalar; qdata = [||] }
  in
  for i = 0 to n - 1 do
    let np = Array.unsafe_get t.sp_plan i in
    let out = Array.unsafe_get arena i in
    let generic ~out qparams bottoms =
      Quantized.eval_node fmt eval np.np_layer ~params:qparams ~bottoms ~out
    in
    let result =
      match np.np_kernel with
      | K_bad_input -> qfail "input node must have exactly one top"
      | K_input { top; shape } -> begin
          match List.assoc_opt top inputs with
          | Some tensor ->
              if not (Shape.equal (Tensor.shape tensor) shape) then
                qfail "input %S: shape mismatch" top;
              Fixed.quantize_into fmt tensor out;
              { Quantized.qshape = shape; qdata = out }
          | None -> qfail "missing input tensor for blob %S" top
        end
      | (K_conv _ | K_fc _ | K_act _ | K_eval) as kernel -> (
          let bottoms =
            List.map
              (fun (name, slot) ->
                if slot < 0 then qfail "blob %S not available" name
                else slots.(slot))
              (Array.to_list np.np_bottoms)
          in
          let qparams = bound.bd_qparams.(i) in
          match kernel, qparams, bottoms with
          | K_conv { stride; pad; group; has_bias }, _, [ input ] -> begin
              match qparams, has_bias with
              | ([ weights ], false | [ weights; _ ], true) -> begin
                  let bias =
                    match qparams with [ _; b ] -> Some b | _ -> None
                  in
                  match
                    conv_kernel fmt ~input ~weights ~bias ~stride ~pad ~group
                      ~out
                  with
                  | Some result -> result
                  | None -> generic ~out:[||] qparams bottoms
                end
              | _ -> generic ~out:[||] qparams bottoms
            end
          | K_fc { has_bias }, _, [ input ] -> begin
              match qparams, has_bias with
              | ([ weights ], false | [ weights; _ ], true) ->
                  let bias =
                    match qparams with [ _; b ] -> Some b | _ -> None
                  in
                  let wsh = weights.Quantized.qshape in
                  let nout = Shape.dim wsh 0 and nin = Shape.dim wsh 1 in
                  if Array.length input.Quantized.qdata <> nin then
                    qfail "fc: input size mismatch";
                  let guard =
                    Shape.rank wsh = 2 && numel_matches weights
                    && Array.length out = nout
                    && (match bias with
                       | None -> true
                       | Some bt -> Array.length bt.Quantized.qdata >= nout)
                  in
                  if guard then fc_kernel fmt ~input ~weights ~bias ~nin ~nout ~out
                  else generic ~out:[||] qparams bottoms
              | _ -> generic ~out:[||] qparams bottoms
            end
          | K_act { act; table }, _, [ input ] ->
              (* [eval_node] runs [qmap fmt (eval.eval_activation act)] and
                 ignores the node's parameters; the same map with the
                 evaluator dispatched once, outside the element loop.  The
                 table holds exactly the design evaluator's words, so it
                 stands in for it alone: any other evaluator (a campaign's
                 faulted LUTs) keeps the closure. *)
              let src = input.Quantized.qdata in
              let len = Array.length src in
              let dst = if Array.length out = len then out else Array.make len 0 in
              let tbl =
                match table with
                | Some tbl when eval == t.sp_eval -> tbl
                | Some _ | None -> no_table
              in
              map_activation fmt tbl (eval.Quantized.eval_activation act) ~src
                ~dst;
              { input with Quantized.qdata = dst }
          | _ -> generic ~out qparams bottoms)
    in
    Array.unsafe_set slots i result
  done;
  slots

let output_slot t slots =
  match t.sp_out with
  | Out_multi n -> qfail "network has %d output blobs, expected one" n
  | Out_single { slot; _ } -> slots.(slot)

(* The output words as a fresh tensor, copied out of the arena. *)
let tensor_of_output t (q : Quantized.qtensor) =
  match t.sp_out with
  | Out_single { classifier = true; _ } ->
      Tensor.of_array q.Quantized.qshape (Array.map float_of_int q.Quantized.qdata)
  | Out_single _ | Out_multi _ -> Quantized.dequantize t.sp_fmt q

(* Without [?arena], a fresh arena per call: the caller owns the words it
   gets back.  With one, the result may alias it until its next pass. *)
let qoutput ?eval ?arena bound ~inputs =
  let t = bound.bd_spec in
  let arena = match arena with Some a -> a | None -> new_arena t in
  output_slot t (eval_slots ?eval bound arena ~inputs)

let output ?eval bound ~inputs =
  tensor_of_output bound.bd_spec (qoutput ?eval bound ~inputs)

(* Batched playback: samples are independent forward passes over one bound
   trace.  The batch is cut into one contiguous chunk per pool domain, and
   each chunk's task replays its samples through one arena, copying every
   output out before the next sample overwrites it.  The functional path
   records no per-sample counters (only [pool.*] scheduling counters, which
   were never part of the determinism contract), and each sample's words
   depend on nothing but its inputs — the batch is bitwise-identical to a
   sequential loop at any DEEPBURNING_JOBS. *)
let output_batch ?eval bound ~batch =
  let t = bound.bd_spec in
  let samples = Array.of_list batch in
  let n = Array.length samples in
  let tasks = Int.min n (Pool.job_count ()) in
  let outputs = Array.make n None in
  Pool.parallel_for ~chunk:1 ~lo:0 ~hi:tasks (fun k ->
      let arena = new_arena t in
      for s = k * n / tasks to ((k + 1) * n / tasks) - 1 do
        let slots = eval_slots ?eval bound arena ~inputs:samples.(s) in
        outputs.(s) <- Some (tensor_of_output t (output_slot t slots))
      done);
  Array.to_list (Array.map Option.get outputs)
