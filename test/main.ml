(* All suites across the repository except the specialized-engine
   equivalence suite, which [spec.exe] runs on its own under [@spec]. *)

let () =
  Suite_runner.run "deepburning"
    (Test_util.suite @ Test_parallel.suite @ Test_tensor.suite
   @ Test_fixed.suite @ Test_prototxt.suite @ Test_nn.suite @ Test_train.suite
   @ Test_hdl.suite @ Test_blocks.suite @ Test_fpga.suite @ Test_mem.suite
   @ Test_sched.suite @ Test_ir.suite @ Test_analysis.suite @ Test_core.suite
   @ Test_sim.suite @ Test_baseline.suite @ Test_workloads.suite
   @ Test_integration.suite @ Test_extensions.suite @ Test_fault.suite
   @ Test_obs.suite @ Test_fuzz.suite @ Test_check.suite @ Test_store.suite
   @ Test_serve.suite @ Test_dse.suite @ Test_trainhw.suite)
