type stimulus = {
  input_words : int list;
  expected_words : int list;
  word_bits : int;
  watchdog_cycles : int;
}

let fail fmt = Db_util.Error.failf_at ~component:"testbench" fmt

let generate ~top stimulus =
  if stimulus.word_bits <= 0 || stimulus.word_bits > 32 then
    fail "generate: word_bits out of range";
  if stimulus.watchdog_cycles <= 0 then
    fail "generate: watchdog must be positive";
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let mask v = v land ((1 lsl stimulus.word_bits) - 1) in
  let n_in = List.length stimulus.input_words in
  let n_out = List.length stimulus.expected_words in
  out "// Self-checking testbench generated alongside the accelerator.";
  out "// Stimulus and expectations come from the DeepBurning simulator run.";
  out "`timescale 1ns/1ps";
  out "module %s_tb;" top;
  out "  reg clk = 1'b0;";
  out "  reg rst = 1'b1;";
  out "  reg start = 1'b0;";
  out "  wire [31:0] m_axi_araddr;";
  out "  reg  [63:0] m_axi_rdata = 64'd0;";
  out "  wire [31:0] m_axi_awaddr;";
  out "  wire [63:0] m_axi_wdata;";
  out "  wire done;";
  out "";
  out "  %s dut (" top;
  out "    .clk(clk), .rst(rst), .start(start),";
  out "    .m_axi_araddr(m_axi_araddr), .m_axi_rdata(m_axi_rdata),";
  out "    .m_axi_awaddr(m_axi_awaddr), .m_axi_wdata(m_axi_wdata),";
  out "    .done(done)";
  out "  );";
  out "";
  out "  always #5 clk = ~clk;  // 100 MHz";
  out "";
  if n_in > 0 then begin
    out "  reg [%d:0] stimulus [0:%d];" (stimulus.word_bits - 1) (n_in - 1);
    out "  integer stim_i = 0;"
  end;
  if n_out > 0 then begin
    out "  reg [%d:0] expected [0:%d];" (stimulus.word_bits - 1) (n_out - 1);
    out "  integer exp_i = 0;";
    out "  integer errors = 0;"
  end;
  out "  integer cycles = 0;";
  out "";
  out "  initial begin";
  List.iteri
    (fun i v -> out "    stimulus[%d] = %d'h%x;" i stimulus.word_bits (mask v))
    stimulus.input_words;
  List.iteri
    (fun i v -> out "    expected[%d] = %d'h%x;" i stimulus.word_bits (mask v))
    stimulus.expected_words;
  out "    repeat (4) @(posedge clk);";
  out "    rst = 1'b0;";
  out "    @(posedge clk);";
  out "    start = 1'b1;";
  out "    @(posedge clk);";
  out "    start = 1'b0;";
  out "  end";
  out "";
  if n_in > 0 then begin
    out "  // Serve read data in stimulus order (the AGUs drive the order).";
    out "  always @(posedge clk) begin";
    out "    if (!rst && stim_i < %d) begin" n_in;
    out "      m_axi_rdata <= {%d'd0, stimulus[stim_i]};"
      (64 - stimulus.word_bits);
    out "      stim_i <= stim_i + 1;";
    out "    end";
    out "  end";
    out ""
  end;
  if n_out > 0 then begin
    out "  // Check write-backs against the simulator's expected words.";
    out "  always @(posedge clk) begin";
    out "    if (!rst && done && exp_i < %d) begin" n_out;
    out "      if (m_axi_wdata[%d:0] !== expected[exp_i]) begin"
      (stimulus.word_bits - 1);
    out "        $display(\"MISMATCH at word %%0d: got %%h want %%h\",";
    out "                 exp_i, m_axi_wdata[%d:0], expected[exp_i]);"
      (stimulus.word_bits - 1);
    out "        errors = errors + 1;";
    out "      end";
    out "      exp_i = exp_i + 1;";
    out "      if (exp_i == %d) begin" n_out;
    out "        if (errors == 0) $display(\"PASS: %d words checked\");" n_out;
    out "        else $display(\"FAIL: %%0d mismatches\", errors);";
    out "        $finish;";
    out "      end";
    out "    end";
    out "  end";
    out ""
  end;
  out "  // Watchdog.";
  out "  always @(posedge clk) begin";
  out "    cycles = cycles + 1;";
  out "    if (cycles > %d) begin" stimulus.watchdog_cycles;
  out "      $display(\"FAIL: watchdog after %%0d cycles\", cycles);";
  out "      $finish;";
  out "    end";
  out "  end";
  out "endmodule";
  Buffer.contents buf
