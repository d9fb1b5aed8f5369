module Datapath = Db_sched.Datapath
module Folding = Db_sched.Folding
module Compiler = Db_core.Compiler

type fold_cycles = {
  fc_event : string;
  compute_cycles : int;
  memory_cycles : int;
  fold_cycles : int;
  dram_bytes : int;
}

let reconfiguration_overhead_cycles = 4

let div_ceil a b = (a + b - 1) / b

(* The board's one off-chip memory: every DRAM price below reads it. *)
let dram = Db_mem.Dram.zynq_ddr3

let transfer_bytes dp (tr : Compiler.transfer) =
  tr.Compiler.words * Db_fixed.Fixed.word_bytes dp.Datapath.fmt

let transfer_cycles dp (tr : Compiler.transfer) =
  Db_mem.Dram.transfer_cycles dram ~bytes:(transfer_bytes dp tr)
    ~sequential_fraction:tr.Compiler.seq_fraction

let burst_cycles ~bytes =
  Db_mem.Dram.transfer_cycles dram ~bytes ~sequential_fraction:1.0

let pipeline_fill_cycles dp =
  (* multiplier + adder tree + activation + crossbar *)
  5
  + (if dp.Datapath.simd <= 1 then 0
     else
       int_of_float
         (Float.ceil (log (float_of_int dp.Datapath.simd) /. log 2.0)))

let fold_cost dp (p : Compiler.fold_program) =
  let fold = p.Compiler.fold in
  let macs_rate = Datapath.macs_per_cycle dp in
  let mac_cycles = div_ceil fold.Folding.macs macs_rate in
  let op_cycles = div_ceil fold.Folding.other_ops dp.Datapath.lanes in
  let feature_feed =
    div_ceil p.Compiler.buffer_feature_reads dp.Datapath.port_words
  in
  let weight_feed =
    div_ceil p.Compiler.buffer_weight_reads dp.Datapath.port_words
  in
  let compute_cycles =
    List.fold_left Stdlib.max 0 [ mac_cycles + op_cycles; feature_feed; weight_feed ]
    + pipeline_fill_cycles dp
  in
  let memory_cycles, dram_bytes =
    List.fold_left
      (fun (cyc, bytes) tr ->
        (cyc + transfer_cycles dp tr, bytes + transfer_bytes dp tr))
      (0, 0) p.Compiler.transfers
  in
  {
    fc_event = p.Compiler.event;
    compute_cycles;
    memory_cycles;
    fold_cycles =
      Stdlib.max compute_cycles memory_cycles + reconfiguration_overhead_cycles;
    dram_bytes;
  }
