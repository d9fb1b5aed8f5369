type t = {
  pattern_name : string;
  start : int;
  footprint : int;
  x_length : int;
  y_length : int;
  stride : int;
  offset : int;
  repeat : int;
}

let fail fmt = Db_util.Error.failf_at ~component:"access-pattern" fmt

let word_count t = t.x_length * t.y_length * t.repeat

let last_address t =
  t.start
  + ((t.repeat - 1) * t.offset)
  + ((t.y_length - 1) * t.stride)
  + t.x_length - 1

let validate t =
  if t.x_length <= 0 || t.y_length <= 0 || t.repeat <= 0 then
    fail "%s: lengths must be positive" t.pattern_name;
  if t.start < 0 || t.stride < 0 || t.offset < 0 then
    fail "%s: start/stride/offset must be non-negative" t.pattern_name;
  if t.footprint <= 0 then fail "%s: footprint must be positive" t.pattern_name;
  let last = last_address t in
  if last >= t.start + t.footprint then
    fail "%s: address %d escapes footprint [%d, %d)" t.pattern_name last
      t.start (t.start + t.footprint)

let addresses t =
  validate t;
  let total = word_count t in
  let row_words = t.x_length in
  let block_words = t.x_length * t.y_length in
  Seq.init total (fun i ->
      let block = i / block_words in
      let within = i mod block_words in
      let row = within / row_words in
      let col = within mod row_words in
      t.start + (block * t.offset) + (row * t.stride) + col)

let addresses_list t = List.of_seq (addresses t)

let contiguous ~name ~start ~length =
  {
    pattern_name = name;
    start;
    footprint = length;
    x_length = length;
    y_length = 1;
    stride = 0;
    offset = 0;
    repeat = 1;
  }

let rows ~name ~start ~x_length ~y_length ~stride =
  {
    pattern_name = name;
    start;
    footprint = ((y_length - 1) * stride) + x_length;
    x_length;
    y_length;
    stride;
    offset = 0;
    repeat = 1;
  }

let sequential_fraction t =
  let total = word_count t in
  if total <= 1 then 1.0
  else begin
    (* Within a row every address but the first is sequential; a row
       boundary is sequential iff stride = x_length; a block boundary is
       sequential iff offset = y_length * stride (contiguous blocks). *)
    let within_rows = (t.x_length - 1) * t.y_length * t.repeat in
    let row_bounds = (t.y_length - 1) * t.repeat in
    let row_seq = if t.stride = t.x_length then row_bounds else 0 in
    let block_bounds = t.repeat - 1 in
    let block_seq =
      if
        t.offset = ((t.y_length - 1) * t.stride) + t.x_length
        || (t.y_length = 1 && t.offset = t.x_length)
      then block_bounds
      else 0
    in
    float_of_int (within_rows + row_seq + block_seq) /. float_of_int (total - 1)
  end

let to_fsm t =
  validate t;
  let multi_row = t.y_length > 1 in
  let multi_block = t.repeat > 1 in
  let states =
    [ "idle"; "burst_row" ]
    @ (if multi_row then [ "next_row" ] else [])
    @ if multi_block then [ "next_block" ] else []
  in
  let transitions =
    [
      {
        Db_hdl.Fsm.from_state = "idle";
        guard = Some "trigger";
        to_state = "burst_row";
        actions = [ "addr_valid" ];
      };
      {
        Db_hdl.Fsm.from_state = "burst_row";
        guard = Some "row_done";
        to_state =
          (if multi_row then "next_row"
           else if multi_block then "next_block"
           else "idle");
        actions = (if multi_row || multi_block then [] else [ "done_pulse" ]);
      };
      {
        Db_hdl.Fsm.from_state = "burst_row";
        guard = None;
        to_state = "burst_row";
        actions = [ "addr_valid" ];
      };
    ]
    @ (if multi_row then
         [
           {
             Db_hdl.Fsm.from_state = "next_row";
             guard = Some "all_rows_done";
             to_state = (if multi_block then "next_block" else "idle");
             actions = (if multi_block then [] else [ "done_pulse" ]);
           };
           {
             Db_hdl.Fsm.from_state = "next_row";
             guard = None;
             to_state = "burst_row";
             actions = [ "addr_valid" ];
           };
         ]
       else [])
    @
    if multi_block then
      [
        {
          Db_hdl.Fsm.from_state = "next_block";
          guard = Some "all_blocks_done";
          to_state = "idle";
          actions = [ "done_pulse" ];
        };
        {
          Db_hdl.Fsm.from_state = "next_block";
          guard = None;
          to_state = "burst_row";
          actions = [ "addr_valid" ];
        };
      ]
    else []
  in
  let fsm =
    {
      (* Pattern names carry layer/fold markers such as "layer0-fold0_feat";
         module names must stay legal Verilog identifiers. *)
      Db_hdl.Fsm.fsm_name = Db_hdl.Rtl.identifier ("agu_" ^ t.pattern_name);
      states;
      initial = "idle";
      inputs = [ "trigger"; "row_done"; "all_rows_done"; "all_blocks_done" ];
      outputs = [ "addr_valid"; "done_pulse" ];
      transitions;
      counts = [];
    }
  in
  Db_hdl.Fsm.validate fsm;
  fsm
