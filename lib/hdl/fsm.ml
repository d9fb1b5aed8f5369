type transition = {
  from_state : string;
  guard : string option;
  to_state : string;
  actions : string list;
}

type t = {
  fsm_name : string;
  states : string list;
  initial : string;
  inputs : string list;
  outputs : string list;
  transitions : transition list;
  counts : (string * int) list;
}

let fail fmt = Db_util.Error.failf_at ~component:"fsm" fmt

let validate t =
  if t.states = [] then fail "%s: no states" t.fsm_name;
  let state_set = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Hashtbl.mem state_set s then fail "%s: duplicate state %S" t.fsm_name s;
      Hashtbl.add state_set s ())
    t.states;
  if not (Hashtbl.mem state_set t.initial) then
    fail "%s: initial state %S not declared" t.fsm_name t.initial;
  let check_unique what names =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun n ->
        if Hashtbl.mem tbl n then fail "%s: duplicate %s %S" t.fsm_name what n
        else Hashtbl.add tbl n ())
      names
  in
  check_unique "input" t.inputs;
  check_unique "output" t.outputs;
  List.iter
    (fun i ->
      if List.mem i t.outputs then
        fail "%s: %S declared as both input and output" t.fsm_name i)
    t.inputs;
  (* Hash sets for guard/action membership keep validation linear in the
     machine's size. *)
  let input_set = Hashtbl.create 16 and output_set = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace input_set i ()) t.inputs;
  List.iter (fun o -> Hashtbl.replace output_set o ()) t.outputs;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      if not (Hashtbl.mem state_set tr.from_state) then
        fail "%s: transition from unknown state %S" t.fsm_name tr.from_state;
      if not (Hashtbl.mem state_set tr.to_state) then
        fail "%s: transition to unknown state %S" t.fsm_name tr.to_state;
      (match tr.guard with
      | Some g when not (Hashtbl.mem input_set g) ->
          fail "%s: guard %S is not a declared input" t.fsm_name g
      | Some _ | None -> ());
      List.iter
        (fun a ->
          if not (Hashtbl.mem output_set a) then
            fail "%s: action %S is not a declared output" t.fsm_name a)
        tr.actions;
      let key = (tr.from_state, tr.guard) in
      if Hashtbl.mem seen key then
        fail "%s: nondeterministic transitions out of %S" t.fsm_name
          tr.from_state;
      Hashtbl.add seen key ())
    t.transitions;
  let counted = Hashtbl.create 16 in
  List.iter
    (fun (s, n) ->
      if not (Hashtbl.mem state_set s) then
        fail "%s: count for unknown state %S" t.fsm_name s;
      if Hashtbl.mem counted s then
        fail "%s: duplicate count for state %S" t.fsm_name s;
      if n < 1 then fail "%s: state %S counts %d pulses" t.fsm_name s n;
      Hashtbl.add counted s ())
    t.counts

let count t s = Option.value ~default:1 (List.assoc_opt s t.counts)

let counter_bits t =
  let largest = List.fold_left (fun m (_, n) -> Stdlib.max m n) 1 t.counts in
  let rec bits b = if 1 lsl b >= largest then b else bits (b + 1) in
  bits 0

let chain ~name ~advance ~output_prefix labels =
  let state l = "s_" ^ l and output l = output_prefix ^ l in
  let edge ~guard from_state l =
    { from_state; guard = Some guard; to_state = state l; actions = [ output l ] }
  in
  let rec link current acc = function
    | [] ->
        List.rev
          ({ from_state = current; guard = Some advance; to_state = "idle";
             actions = [] }
          :: acc)
    | l :: rest -> link (state l) (edge ~guard:advance current l :: acc) rest
  in
  let names = List.map fst labels in
  let t =
    {
      fsm_name = name;
      states = "idle" :: List.map state names;
      initial = "idle";
      inputs = [ "start"; advance ];
      outputs = List.map output names;
      transitions =
        (match names with
        | [] -> []
        | first :: rest ->
            link (state first) [ edge ~guard:"start" "idle" first ] rest);
      counts =
        List.filter_map
          (fun (l, n) -> if n = 1 then None else Some (state l, n))
          labels;
    }
  in
  validate t;
  t

let step t ~state:(state, position) ~asserted =
  let candidates = List.filter (fun tr -> tr.from_state = state) t.transitions in
  let fired =
    match
      List.find_opt
        (fun tr ->
          match tr.guard with
          | Some g -> List.mem g asserted
          | None -> false)
        candidates
    with
    | Some tr -> Some tr
    | None -> List.find_opt (fun tr -> tr.guard = None) candidates
  in
  match fired with
  | Some _ when position + 1 < count t state -> ((state, position + 1), [])
  | Some tr -> ((tr.to_state, 0), tr.actions)
  | None -> ((state, position), [])

let run t ~asserted =
  let rec go state inputs acc =
    match inputs with
    | [] -> List.rev acc
    | cycle :: rest ->
        let next, actions = step t ~state ~asserted:cycle in
        go next rest ((next, actions) :: acc)
  in
  go (t.initial, 0) asserted []

let reachable_states t =
  (* Precomputed adjacency and an explicit worklist: linear in states +
     transitions and independent of the OCaml stack. *)
  let succ = Hashtbl.create 64 in
  List.iter (fun tr -> Hashtbl.add succ tr.from_state tr.to_state) t.transitions;
  let visited = Hashtbl.create 16 in
  let work = ref [ t.initial ] in
  while !work <> [] do
    match !work with
    | [] -> ()
    | s :: rest ->
        work := rest;
        if not (Hashtbl.mem visited s) then begin
          Hashtbl.add visited s ();
          List.iter
            (fun next -> if not (Hashtbl.mem visited next) then work := next :: !work)
            (Hashtbl.find_all succ s)
        end
  done;
  List.filter (Hashtbl.mem visited) t.states

let state_const states s =
  let width = Stdlib.max 1 (List.length states) in
  let idx =
    match List.find_index (String.equal s) states with
    | Some i -> i
    | None -> 0
  in
  Printf.sprintf "%d'b%s" width
    (String.init width (fun i -> if width - 1 - i = idx then '1' else '0'))

let clock = "clk"
let reset = "rst"

let lower t =
  validate t;
  let state_width = Stdlib.max 1 (List.length t.states) in
  let counter = counter_bits t in
  let lines = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  emit "reg [%d:0] state;" (state_width - 1);
  if counter > 0 then emit "reg [%d:0] position;" (counter - 1);
  List.iter (fun o -> emit "reg %s;" o) t.outputs;
  emit "always @(posedge %s) begin" clock;
  emit "  if (%s) begin" reset;
  emit "    state <= %s;" (state_const t.states t.initial);
  if counter > 0 then emit "    position <= %d'd0;" counter;
  List.iter (fun o -> emit "    %s <= 1'b0;" o) t.outputs;
  emit "  end else begin";
  List.iter (fun o -> emit "    %s <= 1'b0;" o) t.outputs;
  emit "    case (state)";
  List.iter
    (fun s ->
      emit "      %s: begin" (state_const t.states s);
      let out = List.filter (fun tr -> tr.from_state = s) t.transitions in
      let guarded = List.filter (fun tr -> tr.guard <> None) out in
      let unguarded = List.find_opt (fun tr -> tr.guard = None) out in
      let emit_actions indent tr =
        emit "%sstate <= %s;" indent (state_const t.states tr.to_state);
        List.iter (fun a -> emit "%s%s <= 1'b1;" indent a) tr.actions
      in
      (* A counted state leaves on the last of its [n] firings and
         advances [position] on the others. *)
      let emit_fire indent tr =
        match count t s with
        | 1 -> emit_actions indent tr
        | n ->
            emit "%sif (position == %d'd%d) begin" indent counter (n - 1);
            emit "%s  position <= %d'd0;" indent counter;
            emit_actions (indent ^ "  ") tr;
            emit "%send else position <= position + 1'b1;" indent
      in
      let rec emit_guards first = function
        | [] -> begin
            match unguarded with
            | Some tr ->
                if first then emit_fire "        " tr
                else begin
                  emit "        else begin";
                  emit_fire "          " tr;
                  emit "        end"
                end
            | None -> ()
          end
        | tr :: rest ->
            let g = Option.get tr.guard in
            emit "        %s (%s) begin" (if first then "if" else "else if") g;
            emit_fire "          " tr;
            emit "        end";
            emit_guards false rest
      in
      emit_guards true guarded;
      emit "      end")
    t.states;
  emit "      default: state <= %s;" (state_const t.states t.initial);
  emit "    endcase";
  emit "  end";
  emit "end";
  List.rev !lines
