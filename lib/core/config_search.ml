module Resource = Db_fpga.Resource
module Shape = Db_tensor.Shape
module Op = Db_ir.Op
module Graph = Db_ir.Graph

type result = {
  datapath : Db_sched.Datapath.t;
  schedule : Db_sched.Schedule.t;
  layout : Db_mem.Layout.t;
  block_set : Block_set.t;
}

let fail fmt = Db_util.Error.failf_at ~component:"config-search" fmt

(* Fold [f] over every node's exploitable output parallelism (the same
   quantity spatial folding cuts into lane-sized segments). *)
let fold_parallelism (g : Graph.t) ~init ~f =
  Graph.fold g ~init ~f:(fun acc node ->
      match Op.num_output node.Graph.op with
      | Some num_output -> f acc num_output
      | None -> begin
          match node.Graph.op, node.Graph.in_shapes with
          | (Op.Pool _ | Op.Global_pool _), [ bottom ] ->
              f acc (Shape.channels bottom)
          | _ -> acc
        end)

let useful_lanes (g : Graph.t) = fold_parallelism g ~init:1 ~f:Stdlib.max

(* Smallest lane count that keeps every layer's spatial fold count equal to
   what it is at [lanes]: for a layer of parallelism [c] split into
   [ceil (c / lanes)] folds, [ceil (c / folds)] lanes produce the same
   split.  Anything between that and [lanes] buys no schedule shortening —
   it only spends lanes on padding the last fold. *)
let fold_preserving_lanes (g : Graph.t) ~lanes =
  fold_parallelism g ~init:1 ~f:(fun acc c ->
      if c <= 0 then acc
      else
        let folds = (c + lanes - 1) / lanes in
        Stdlib.max acc ((c + folds - 1) / folds))

let rec pow2_at_most n = if n < 2 then 1 else 2 * pow2_at_most (n / 2)

let port_words_for lanes = Stdlib.min 16 (Stdlib.max 2 (pow2_at_most lanes))

(* Buffers: a quarter of the BRAM budget each (leaving headroom for the
   Approx-LUT ROMs), power-of-two words, at least 1K.
   Capped at 64K words (1 Mb per buffer at 16 bits): a single monolithic
   buffer wider than that would not meet timing at 100 MHz, and the cap is
   what makes ImageNet-scale feature maps spill — the situation the
   paper's folding and Method-1 tiling exist for. *)
let buffer_words_cap = 65536

let buffer_words_for (cons : Constraints.t) =
  let word_bits = cons.Constraints.fmt.Db_fixed.Fixed.total_bits in
  let budget_words = cons.Constraints.budget.Resource.bram_bits / word_bits in
  Stdlib.min buffer_words_cap (Stdlib.max 1024 (pow2_at_most (budget_words / 4)))

let evaluate cons (g : Graph.t) ~lanes =
  Db_obs.Obs.with_span "evaluate"
    ~attrs:[ ("lanes", string_of_int lanes) ]
    (fun () ->
      let buffer_words = buffer_words_for cons in
      (* Minimal accumulator width proven by the range analysis (assumed
         Xavier-bounded weights: parameters are not materialized during
         the search); sizes the per-lane accumulators below. *)
      let acc_bits =
        Db_check.Range.min_acc_bits ~fmt:cons.Constraints.fmt g
      in
      let datapath =
        Db_sched.Datapath.make ~lanes ~simd:1 ~port_words:(port_words_for lanes)
          ~fmt:cons.Constraints.fmt ~feature_buffer_words:buffer_words
          ~weight_buffer_words:buffer_words
          ~lut_entries:cons.Constraints.lut_entries ()
      in
      let schedule =
        Db_obs.Obs.with_span "schedule" (fun () ->
            Db_sched.Schedule.build datapath g)
      in
      let layout =
        Db_obs.Obs.with_span "layout" (fun () ->
            Db_mem.Layout.build
              ~bytes_per_word:(Db_fixed.Fixed.word_bytes cons.Constraints.fmt)
              ~port_width:datapath.Db_sched.Datapath.port_words g)
      in
      let block_set =
        Db_obs.Obs.with_span "block_set" (fun () ->
            Block_set.build ~acc_bits g datapath ~schedule ~layout)
      in
      { datapath; schedule; layout; block_set })

(* The dominance axes the first-fit refinement scores on: schedule length
   (total folds, the structural stand-in for cycles at a fixed memory
   interface) plus the four resource classes.  The same comparison the
   design-space explorer's archive uses ({!Objective.dominates}). *)
let search_axes =
  Objective.[ Cycles; Luts; Ffs; Dsps; Bram_bits ]

let search_objective (r : result) =
  Objective.of_resources
    ~cycles:(float_of_int (Db_sched.Schedule.fold_count r.schedule))
    r.block_set.Block_set.total

(* The first feasible point of the downward lane walk is not always
   undominated: when the walk stops at a lane count whose last fold is
   mostly padding (lanes > ceil (c / folds) for every layer), the
   fold-preserving slimmer datapath executes the *same* schedule on
   strictly fewer resources.  Replace the pick only under an identical
   memory interface (equal port width) and identical fold count, so the
   refined design's control structure — and hence its cycle behaviour —
   matches the point it dominates. *)
let refine cons (g : Graph.t) (first : result) =
  let lanes = first.datapath.Db_sched.Datapath.lanes in
  let slim = fold_preserving_lanes g ~lanes in
  if slim >= lanes || port_words_for slim <> port_words_for lanes then first
  else
    let candidate = evaluate cons g ~lanes:slim in
    if
      Resource.fits candidate.block_set.Block_set.total
        ~within:cons.Constraints.budget
      && Db_sched.Schedule.fold_count candidate.schedule
         = Db_sched.Schedule.fold_count first.schedule
      && Objective.dominates ~axes:search_axes (search_objective candidate)
           (search_objective first)
    then begin
      Db_obs.Obs.incr "config_search.refined";
      candidate
    end
    else first

let search cons (g : Graph.t) =
  (* Range-infeasible Q-formats are rejected before any point is costed:
     if the format cannot represent the canonical input range, every
     candidate datapath saturates on arrival and the search would only
     rank garbage. *)
  (match Db_check.Range.format_feasibility cons.Constraints.fmt with
  | Ok () -> ()
  | Error why ->
      fail "format %a is infeasible for network %S: %s" Db_fixed.Fixed.pp_format
        cons.Constraints.fmt g.Graph.graph_name why);
  let cap = Stdlib.max 1 cons.Constraints.budget.Resource.dsps in
  let upper = Stdlib.min cap (useful_lanes g) in
  let rec try_lanes lanes =
    if lanes < 1 then
      fail "no datapath fits budget %a for network %S" Resource.pp
        cons.Constraints.budget g.Graph.graph_name
    else begin
      let candidate = evaluate cons g ~lanes in
      if
        Resource.fits candidate.block_set.Block_set.total
          ~within:cons.Constraints.budget
      then refine cons g candidate
      else
        (* Large steps far from fitting, fine steps close by. *)
        let next = if lanes > 16 then lanes * 7 / 8 else lanes - 1 in
        try_lanes (Stdlib.min (lanes - 1) next)
    end
  in
  try_lanes upper

let select = search
