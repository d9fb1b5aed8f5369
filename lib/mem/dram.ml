type t = {
  dram_name : string;
  peak_bytes_per_cycle : float;
  sequential_efficiency : float;
  random_efficiency : float;
  base_latency_cycles : int;
}

let zynq_ddr3 =
  {
    dram_name = "Zynq DDR3-1066 via AXI-HP";
    peak_bytes_per_cycle = 32.0;
    sequential_efficiency = 0.8;
    random_efficiency = 0.12;
    base_latency_cycles = 24;
  }

let fail fmt = Db_util.Error.failf_at ~component:"dram" fmt

let transfer_cycles t ~bytes ~sequential_fraction =
  if bytes < 0 then fail "transfer_cycles: negative byte count %d" bytes;
  if sequential_fraction < 0.0 || sequential_fraction > 1.0 then
    fail "transfer_cycles: sequential fraction %g out of [0, 1]" sequential_fraction;
  if bytes = 0 then 0
  else begin
    let eff =
      t.random_efficiency
      +. (sequential_fraction *. (t.sequential_efficiency -. t.random_efficiency))
    in
    let rate = t.peak_bytes_per_cycle *. eff in
    t.base_latency_cycles + int_of_float (Float.ceil (float_of_int bytes /. rate))
  end
