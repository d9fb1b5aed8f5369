type state = Idle | Burst | Row_turn | Block_turn | Done

type t = {
  pattern : Access_pattern.t;
  mutable st : state;
  mutable cursor_x : int;
  mutable cursor_y : int;
  mutable cursor_block : int;
}

type cycle_output = { addr : int option; busy : bool; done_pulse : bool }

let create pattern =
  Access_pattern.validate pattern;
  { pattern; st = Idle; cursor_x = 0; cursor_y = 0; cursor_block = 0 }

let trigger t =
  match t.st with
  | Idle | Done ->
      t.st <- Burst;
      t.cursor_x <- 0;
      t.cursor_y <- 0;
      t.cursor_block <- 0
  | Burst | Row_turn | Block_turn -> ()  (* trigger ignored mid-pattern *)

let current_addr t =
  let p = t.pattern in
  p.Access_pattern.start
  + (t.cursor_block * p.Access_pattern.offset)
  + (t.cursor_y * p.Access_pattern.stride)
  + t.cursor_x

let step t =
  let p = t.pattern in
  match t.st with
  | Idle -> { addr = None; busy = false; done_pulse = false }
  | Done ->
      t.st <- Idle;
      { addr = None; busy = false; done_pulse = false }
  | Burst ->
      let addr = current_addr t in
      if t.cursor_x + 1 < p.Access_pattern.x_length then begin
        t.cursor_x <- t.cursor_x + 1;
        { addr = Some addr; busy = true; done_pulse = false }
      end
      else if t.cursor_y + 1 < p.Access_pattern.y_length then begin
        t.st <- Row_turn;
        { addr = Some addr; busy = true; done_pulse = false }
      end
      else if t.cursor_block + 1 < p.Access_pattern.repeat then begin
        t.st <- Block_turn;
        { addr = Some addr; busy = true; done_pulse = false }
      end
      else begin
        t.st <- Done;
        { addr = Some addr; busy = false; done_pulse = true }
      end
  | Row_turn ->
      (* Counter reload bubble. *)
      t.cursor_x <- 0;
      t.cursor_y <- t.cursor_y + 1;
      t.st <- Burst;
      { addr = None; busy = true; done_pulse = false }
  | Block_turn ->
      t.cursor_x <- 0;
      t.cursor_y <- 0;
      t.cursor_block <- t.cursor_block + 1;
      t.st <- Burst;
      { addr = None; busy = true; done_pulse = false }

let cycles_estimate p =
  let words = Access_pattern.word_count p in
  let row_turns = (p.Access_pattern.y_length - 1) * p.Access_pattern.repeat in
  let block_turns = p.Access_pattern.repeat - 1 in
  words + row_turns + block_turns

let run_to_completion ?max_cycles t =
  let budget =
    match max_cycles with
    | Some m -> m
    | None -> 2 + (10 * cycles_estimate t.pattern)
  in
  (match t.st with Idle | Done -> trigger t | Burst | Row_turn | Block_turn -> ());
  let addrs = ref [] in
  let rec clock n =
    if n > budget then
      Db_util.Error.timeout ~component:"agu-sim" ~cycles:n ~budget;
    let out = step t in
    (match out.addr with Some a -> addrs := a :: !addrs | None -> ());
    if out.done_pulse then n else clock (n + 1)
  in
  let cycles = clock 1 in
  let addrs = List.rev !addrs in
  (* One counter update per completed pattern, accumulated from the local
     address list, never per cycle: stalls are the reload bubbles plus the
     trailing done cycle (cycles with no address issued). *)
  if Db_obs.Obs.enabled () then begin
    let issued = List.length addrs in
    Db_obs.Obs.incr "agu.runs";
    Db_obs.Obs.incr ~by:cycles "agu.cycles";
    Db_obs.Obs.incr ~by:issued "agu.addresses";
    Db_obs.Obs.incr ~by:(Stdlib.max 0 (cycles - issued)) "agu.stall_cycles"
  end;
  (addrs, cycles)
