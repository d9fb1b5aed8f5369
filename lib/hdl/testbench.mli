(** Verilog testbench generation.

    The paper verifies each generated accelerator by RTL simulation of the
    forward propagation in Vivado.  This module emits a self-checking
    testbench for a design's top module: clock and reset generation, a
    start pulse, stimulus words driven onto the AXI read-data port, and
    expected result words checked against the write-data port, with a
    cycle watchdog.  Inputs and expected outputs come from the OCaml
    simulator, so a user with a real simulator can replay our run. *)

type stimulus = {
  input_words : int list;  (** datapath words streamed to the DUT *)
  expected_words : int list;  (** words the DUT must eventually write *)
  word_bits : int;
  watchdog_cycles : int;  (** simulation aborts (and fails) after this *)
}

val generate : top:string -> stimulus -> string
(** The testbench Verilog text ([<top>_tb] module).  The DUT's ports must
    follow the generator's top-level convention (clk, rst, start,
    m_axi_rdata, m_axi_wdata, done). *)
