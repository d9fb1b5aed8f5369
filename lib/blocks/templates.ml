module Rtl = Db_hdl.Rtl

let in_port name width = { Rtl.port_name = name; direction = Rtl.Input; width }

let out_port name width = { Rtl.port_name = name; direction = Rtl.Output; width }

let clk_rst = [ in_port "clk" 1; in_port "rst" 1 ]

let behavioural name ports localparams lines =
  { Rtl.mod_name = name; ports; localparams; body = Rtl.Behavioral lines }

let word fmt = fmt.Db_fixed.Fixed.total_bits

let synergy_neuron ~name ~fmt ~simd =
  let w = word fmt in
  let frac = fmt.Db_fixed.Fixed.frac_bits in
  let lines = ref [] in
  let emit f = Printf.ksprintf (fun s -> lines := s :: !lines) f in
  for i = 0 to simd - 1 do
    emit "wire signed [%d:0] prod%d = feature[%d:%d] * weight[%d:%d];"
      ((2 * w) - 1) i
      (((i + 1) * w) - 1)
      (i * w)
      (((i + 1) * w) - 1)
      (i * w)
  done;
  let sum =
    String.concat " + " (List.init simd (fun i -> Printf.sprintf "prod%d" i))
  in
  emit "wire signed [%d:0] tree = %s;" ((2 * w) + simd - 1) sum;
  emit "reg signed [%d:0] acc;" ((2 * w) + 7);
  emit "always @(posedge clk) begin";
  emit "  if (rst || clear) acc <= 0;";
  emit "  else if (valid_in) acc <= acc + tree;";
  emit "end";
  emit "assign partial_sum = acc[%d:%d];" (w + frac - 1) frac;
  behavioural name
    (clk_rst
    @ [
        in_port "clear" 1;
        in_port "valid_in" 1;
        in_port "feature" (simd * w);
        in_port "weight" (simd * w);
        out_port "partial_sum" w;
      ])
    [ ("SIMD", simd); ("WIDTH", w) ]
    (List.rev !lines)

let accumulator ~name ~fmt ~depth ~acc_bits =
  let w = word fmt in
  behavioural name
    (clk_rst
    @ [
        in_port "valid_in" 1;
        in_port "clear" 1;
        in_port "value" w;
        out_port "total" w;
      ])
    [ ("DEPTH", depth); ("WIDTH", w); ("ACC_BITS", acc_bits) ]
    [
      Printf.sprintf "reg signed [%d:0] acc;" (acc_bits - 1);
      "always @(posedge clk) begin";
      "  if (rst || clear) acc <= 0;";
      "  else if (valid_in) acc <= acc + value;";
      "end";
      Printf.sprintf "assign total = acc[%d:0];" (w - 1);
    ]

let pooling_unit ~name ~fmt ~window ~average =
  let w = word fmt in
  let area = window * window in
  let body =
    if average then
      [
        Printf.sprintf "reg signed [%d:0] acc;" (w + 11);
        "always @(posedge clk) begin";
        "  if (rst || clear) acc <= 0;";
        "  else if (valid_in) acc <= acc + value;";
        "end";
        Printf.sprintf "// divide by the %dx%d window via the shifting latch" window
          window;
        Printf.sprintf "assign result = acc / %d;" area;
      ]
    else
      [
        Printf.sprintf "reg signed [%d:0] best;" (w - 1);
        "always @(posedge clk) begin";
        Printf.sprintf "  if (rst || clear) best <= -%d'sd1 <<< %d;" w (w - 1);
        "  else if (valid_in && $signed(value) > $signed(best)) best <= value;";
        "end";
        "assign result = best;";
      ]
  in
  behavioural name
    (clk_rst
    @ [ in_port "clear" 1; in_port "valid_in" 1; in_port "value" w; out_port "result" w ])
    [ ("WINDOW", window) ]
    body

(* The ROMs of a unit, one [approx_lut_<name>] instance per table: the
   top bits of [src] index every table, the remainder interpolates.  The
   first table drives [value]; each further table [t] drives [value_t]. *)
let rom_lines ~fmt ~src ~src_bits luts =
  let w = word fmt in
  List.concat
    (List.mapi
       (fun i lut ->
         let rom = Approx_lut.to_module lut ~fmt in
         let addr_bits =
           match rom.Rtl.ports with
           | { Rtl.port_name = "key"; width; _ } :: _ -> width
           | _ -> 8
         in
         let suffix = if i = 0 then "" else "_" ^ lut.Approx_lut.lut_name in
         (Printf.sprintf "// range [%g, %g] mapped onto the %d-entry %s table"
            lut.Approx_lut.lo lut.Approx_lut.hi (Approx_lut.entries lut)
            lut.Approx_lut.lut_name
         :: (if i > 0 then []
             else
               [
                 (if addr_bits <= src_bits then
                    Printf.sprintf "wire [%d:0] key = %s[%d:%d];" (addr_bits - 1)
                      src (src_bits - 1) (src_bits - addr_bits)
                  else
                    Printf.sprintf "wire [%d:0] key = {{%d{1'b0}}, %s};"
                      (addr_bits - 1) (addr_bits - src_bits) src);
                 Printf.sprintf "wire [%d:0] frac = %s << %d;" (w - 1) src
                   (Stdlib.min addr_bits (w - 1));
               ]))
         @ [
             Printf.sprintf "wire [%d:0] value%s;" (w - 1) suffix;
             Printf.sprintf "%s rom%s_i (.key(key), .frac(frac), .value(value%s));"
               rom.Rtl.mod_name suffix suffix;
           ])
       luts)

let lut_entries = function
  | [] -> []
  | lut :: _ -> [ ("LUT_ENTRIES", Approx_lut.entries lut) ]

let activation_unit ~name ~fmt ~fn ~roms =
  let w = word fmt in
  let extra = match roms with [] -> [] | _ :: extra -> extra in
  let body =
    match roms with
    | [] ->
        (* ReLU and Sign are comparators on the sign bit, not tables. *)
        let one = 1 lsl fmt.Db_fixed.Fixed.frac_bits in
        [
          Printf.sprintf "// %s: a comparator on the sign bit" fn;
          (if fn = "sign" then
             Printf.sprintf "assign y = x[%d] ? -%d'sd%d : %d'sd%d;" (w - 1) w
               one w one
           else Printf.sprintf "assign y = x[%d] ? %d'd0 : x;" (w - 1) w);
        ]
    | _ :: _ ->
        rom_lines ~fmt ~src:"x" ~src_bits:w roms
        @ "assign y = value;"
          :: List.map
               (fun lut ->
                 let n = lut.Approx_lut.lut_name in
                 Printf.sprintf "assign y_%s = value_%s;" n n)
               extra
  in
  behavioural name
    (clk_rst
    @ [ in_port "x" w; out_port "y" w ]
    @ List.map (fun lut -> out_port ("y_" ^ lut.Approx_lut.lut_name) w) extra)
    (lut_entries roms) body

let lrn_unit ~name ~fmt ~local_size ~power =
  let w = word fmt and frac = fmt.Db_fixed.Fixed.frac_bits in
  let power = Option.to_list power in
  behavioural name
    (clk_rst
    @ [
        in_port "valid_in" 1;
        in_port "centre" w;
        in_port "neighbours" (local_size * w);
        out_port "normalised" w;
      ])
    (("LOCAL_SIZE", local_size) :: lut_entries power)
    ([
       "// sum of squares over the local window, then centre * scale^-beta";
       Printf.sprintf "reg signed [%d:0] sumsq;" ((2 * w) + 3);
       "always @(posedge clk) if (valid_in) sumsq <= sumsq + centre * centre;";
     ]
    @
    match power with
    | [] ->
        (* LCN divides through the reciprocal unit's table *)
        [ "assign normalised = centre;" ]
    | _ :: _ ->
        (* scale - k indexes the compiler-filled power table *)
        rom_lines ~fmt ~src:"sumsq" ~src_bits:((2 * w) + 4) power
        @ [
            Printf.sprintf "wire signed [%d:0] scaled = centre * value;"
              ((2 * w) - 1);
            Printf.sprintf "assign normalised = scaled[%d:%d];" (w + frac - 1)
              frac;
          ])

let dropout_unit ~name ~fmt =
  let w = word fmt in
  behavioural name
    (clk_rst @ [ in_port "enable_inference" 1; in_port "x" w; out_port "y" w ])
    []
    [ "// inference-time dropout passes through (Caffe scales at training)";
      "assign y = x;" ]

let connection_box ~name ~fmt ~in_ports ~out_ports ~shift_latch =
  let w = word fmt in
  let sel_bits =
    Stdlib.max 1
      (int_of_float (Float.ceil (log (float_of_int in_ports) /. log 2.0)))
  in
  let lines = ref [] in
  let emit f = Printf.ksprintf (fun s -> lines := s :: !lines) f in
  emit "// %dx%d crossbar; select vector reconfigured by the coordinator"
    in_ports out_ports;
  for o = 0 to out_ports - 1 do
    emit "wire [%d:0] sel%d = select[%d:%d];" (sel_bits - 1) o
      (((o + 1) * sel_bits) - 1)
      (o * sel_bits);
    emit "assign out_bus[%d:%d] = in_bus >> (sel%d * %d);"
      (((o + 1) * w) - 1)
      (o * w) o w
  done;
  if shift_latch then begin
    emit "// shifting latch: approximate division of the forwarded value";
    emit "assign shifted = $signed(out_bus[%d:0]) >>> shift_amount;" (w - 1)
  end;
  behavioural name
    (clk_rst
    @ [
        in_port "in_bus" (in_ports * w);
        in_port "select" (out_ports * sel_bits);
        in_port "shift_amount" 4;
        out_port "out_bus" (out_ports * w);
      ]
    @ (if shift_latch then [ out_port "shifted" w ] else []))
    [ ("IN_PORTS", in_ports); ("OUT_PORTS", out_ports) ]
    (List.rev !lines)

let classifier_ksorter ~name ~fmt ~k ~fan_in =
  let w = word fmt in
  behavioural name
    (clk_rst
    @ [
        in_port "valid_in" 1;
        in_port "scores" (fan_in * w);
        out_port "top_indices" (k * 16);
      ])
    [ ("K", k); ("FAN_IN", fan_in) ]
    ([
       "// compare-and-keep sorter: retains the k largest scores seen so far";
       Printf.sprintf "reg [%d:0] best_idx [0:%d];" 15 (k - 1);
       Printf.sprintf "reg signed [%d:0] best_val [0:%d];" (w - 1) (k - 1);
       Printf.sprintf "wire signed [%d:0] head = scores[%d:0];" (w - 1) (w - 1);
       "integer i;";
       "always @(posedge clk) begin";
       "  if (rst) begin";
       Printf.sprintf "    for (i = 0; i < %d; i = i + 1) begin" k;
       "      best_idx[i] <= 16'd0;";
       Printf.sprintf "      best_val[i] <= -%d'sd1 <<< %d;" w (w - 1);
       "    end";
       "  end else if (valid_in) begin";
       "    if ($signed(head) > $signed(best_val[0])) begin";
       "      best_val[0] <= head;";
       "      best_idx[0] <= best_idx[0] + 16'd1;";
       "    end";
       "  end";
       "end";
     ]
    @ List.init k (fun j ->
          Printf.sprintf "assign top_indices[%d:%d] = best_idx[%d];"
            (((j + 1) * 16) - 1)
            (j * 16) j))

let agu ~name ~kind_label ~pattern_count ~addr_bits =
  behavioural name
    (clk_rst
    @ [
        in_port "trigger" 1;
        in_port "pattern_select" (Stdlib.max 1 pattern_count);
        out_port "addr" addr_bits;
        out_port "addr_valid" 1;
        out_port "done_pulse" 1;
      ])
    [ ("PATTERNS", pattern_count); ("ADDR_BITS", addr_bits) ]
    [
      Printf.sprintf "// %s: replays one of %d compiler-generated patterns"
        kind_label pattern_count;
      Printf.sprintf "reg [%d:0] cursor_x;" (addr_bits - 1);
      Printf.sprintf "reg [%d:0] base;" (addr_bits - 1);
      "reg running;";
      "// start / x_length / y_length / stride / offset / repeat come from";
      "// the per-pattern constant tables synthesised alongside this module";
      "always @(posedge clk) begin";
      "  if (rst) begin";
      "    running <= 1'b0;";
      "    cursor_x <= 0;";
      "    base <= 0;";
      "  end else if (trigger && !running) begin";
      "    running <= 1'b1;";
      "    cursor_x <= 0;";
      "    base <= base + pattern_select[0];";
      "  end else if (running) begin";
      "    cursor_x <= cursor_x + 1'b1;";
      "    if (&cursor_x) running <= 1'b0;";
      "  end";
      "end";
      "assign addr = base + cursor_x;";
      "assign addr_valid = running;";
      "assign done_pulse = running && (&cursor_x);";
    ]

let transpose_port ~name ~fmt ~rows ~cols =
  let w = word fmt in
  let addr_bits =
    Stdlib.max 1
      (int_of_float (Float.ceil (log (float_of_int (rows * cols)) /. log 2.0)))
  in
  behavioural name
    (clk_rst
    @ [
        in_port "rd_row" addr_bits;
        in_port "rd_col" addr_bits;
        in_port "mem_q" w;
        out_port "t_addr" addr_bits;
        out_port "t_data" w;
      ])
    [ ("ROWS", rows); ("COLS", cols) ]
    [
      Printf.sprintf
        "// transposed read of the shared %dx%d weight memory: BP walks"
        rows cols;
      "// W^T column-by-column through the row-major array";
      Printf.sprintf "wire [%d:0] flat = (rd_row * %d) + rd_col;"
        ((2 * addr_bits) - 1) cols;
      Printf.sprintf "reg [%d:0] t_reg;" (w - 1);
      "always @(posedge clk) begin";
      "  if (rst) t_reg <= 0;";
      "  else t_reg <= mem_q;";
      "end";
      Printf.sprintf "assign t_addr = flat[%d:0];" (addr_bits - 1);
      "assign t_data = t_reg;";
    ]

let grad_buffer ~name ~fmt ~words ~port_words ~acc_bits =
  let w = word fmt in
  let addr_bits =
    Stdlib.max 1 (int_of_float (Float.ceil (log (float_of_int words) /. log 2.0)))
  in
  behavioural name
    (clk_rst
    @ [
        in_port "wr_en" 1;
        in_port "accumulate" 1;
        in_port "wr_addr" addr_bits;
        in_port "wr_data" w;
        in_port "rd_addr" addr_bits;
        out_port "rd_data" acc_bits;
      ])
    [ ("WORDS", words); ("PORT_WORDS", port_words); ("ACC_BITS", acc_bits) ]
    [
      "// gradient accumulator bank: read-modify-write adds in full";
      "// accumulator precision; a plain write (accumulate=0) clears";
      Printf.sprintf "reg signed [%d:0] mem [0:%d];" (acc_bits - 1) (words - 1);
      Printf.sprintf "reg signed [%d:0] rd_reg;" (acc_bits - 1);
      Printf.sprintf "wire signed [%d:0] wext = {{%d{wr_data[%d]}}, wr_data};"
        (acc_bits - 1) (acc_bits - w) (w - 1);
      "always @(posedge clk) begin";
      "  if (wr_en) mem[wr_addr] <= accumulate ? mem[wr_addr] + wext : wext;";
      "  rd_reg <= mem[rd_addr];";
      "end";
      "assign rd_data = rd_reg;";
    ]

let update_unit ~name ~fmt ~lanes =
  let w = word fmt in
  let frac = fmt.Db_fixed.Fixed.frac_bits in
  let lines = ref [] in
  let emit f = Printf.ksprintf (fun s -> lines := s :: !lines) f in
  emit "// on-chip SGD: per lane v' = momentum*v - eta*g, w' = w + v'";
  for i = 0 to lanes - 1 do
    let hi = ((i + 1) * w) - 1 and lo = i * w in
    emit "wire signed [%d:0] gscale%d = eta * grad[%d:%d];" ((2 * w) - 1) i hi
      lo;
    emit "wire signed [%d:0] vscale%d = momentum * vel_in[%d:%d];"
      ((2 * w) - 1) i hi lo;
    emit "wire signed [%d:0] vnew%d = (vscale%d >>> %d) - (gscale%d >>> %d);"
      (w - 1) i i frac i frac;
    emit "assign vel_out[%d:%d] = vnew%d;" hi lo i;
    emit "assign weight_out[%d:%d] = weight_in[%d:%d] + vnew%d;" hi lo hi lo i
  done;
  behavioural name
    (clk_rst
    @ [
        in_port "valid_in" 1;
        in_port "eta" w;
        in_port "momentum" w;
        in_port "grad" (lanes * w);
        in_port "weight_in" (lanes * w);
        in_port "vel_in" (lanes * w);
        out_port "weight_out" (lanes * w);
        out_port "vel_out" (lanes * w);
      ])
    [ ("LANES", lanes); ("FRAC", frac) ]
    (List.rev !lines)

let buffer ~name ~fmt ~words ~port_words =
  let w = word fmt in
  let addr_bits =
    Stdlib.max 1 (int_of_float (Float.ceil (log (float_of_int words) /. log 2.0)))
  in
  behavioural name
    (clk_rst
    @ [
        in_port "wr_en" 1;
        in_port "wr_addr" addr_bits;
        in_port "wr_data" (port_words * w);
        in_port "rd_addr" addr_bits;
        out_port "rd_data" (port_words * w);
      ])
    [ ("WORDS", words); ("PORT_WORDS", port_words) ]
    [
      Printf.sprintf "reg [%d:0] mem [0:%d];" ((port_words * w) - 1)
        ((words / port_words) - 1);
      Printf.sprintf "reg [%d:0] rd_reg;" ((port_words * w) - 1);
      "always @(posedge clk) begin";
      "  if (wr_en) mem[wr_addr] <= wr_data;";
      "  rd_reg <= mem[rd_addr];";
      "end";
      "assign rd_data = rd_reg;";
    ]
