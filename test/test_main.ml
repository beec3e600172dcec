let () =
  Alcotest.run "elfie"
    [ ("util", Test_util.suite); ("isa", Test_isa.suite);
      ("machine", Test_machine.suite); ("kernel", Test_kernel.suite);
      ("elf", Test_elf.suite); ("pinball", Test_pinball.suite);
      ("pin", Test_pin.suite); ("logger", Test_logger.suite);
      ("core", Test_core.suite);
      ("simpoint", Test_simpoint.suite); ("simulators", Test_sim.suite);
      ("workloads", Test_workloads.suite); ("harness", Test_harness.suite);
      ("asm", Test_asm.suite); ("debugger", Test_debug.suite);
      ("pintools", Test_tools.suite); ("criu", Test_criu.suite);
      ("check", Test_check.suite); ("supervise", Test_supervise.suite);
      ("obs", Test_obs.suite); ("perf", Test_perf_core.suite) ]
