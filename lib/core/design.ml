type t = {
  network : Db_nn.Network.t;
  ir : Db_ir.Graph.t;
  constraints : Constraints.t;
  datapath : Db_sched.Datapath.t;
  schedule : Db_sched.Schedule.t;
  layout : Db_mem.Layout.t;
  block_set : Block_set.t;
  program : Compiler.t;
  rtl : Db_hdl.Rtl.design;
}

let resource_usage t = t.block_set.Block_set.total

let lanes t = t.datapath.Db_sched.Datapath.lanes

let verilog t = Db_hdl.Verilog.emit_design t.rtl

let analyze t = Db_analysis.Analyze.design t.rtl

let power t =
  Db_fpga.Power.accelerator_power
    ~device:t.constraints.Constraints.device
    ~used:(resource_usage t)
    ~clock_mhz:t.constraints.Constraints.clock_mhz ()

let pp_summary fmt t =
  Format.fprintf fmt "accelerator for %S on %s:@."
    t.network.Db_nn.Network.net_name
    t.constraints.Constraints.device.Db_fpga.Device.device_name;
  Format.fprintf fmt "  datapath: %a@." Db_sched.Datapath.pp t.datapath;
  Format.fprintf fmt "  folds: %d, reconfigurations: %d@."
    (Db_sched.Schedule.fold_count t.schedule)
    (Db_sched.Schedule.reconfigurations t.schedule);
  Format.fprintf fmt "  resources: %a@." Db_fpga.Resource.pp (resource_usage t);
  Format.fprintf fmt "  DRAM layout: %d words (%d bytes)@."
    t.layout.Db_mem.Layout.total_words
    (Db_mem.Layout.total_bytes t.layout);
  Format.fprintf fmt "  luts: %s@."
    (String.concat ", " (Lut_set.names t.program.Compiler.luts));
  Format.fprintf fmt "  rtl modules: %d@." (List.length t.rtl.Db_hdl.Rtl.modules)
