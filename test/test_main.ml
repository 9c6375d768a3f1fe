let () =
  Alcotest.run "unroll_and_squash"
    [ ("ir", Test_ir.suite);
      ("parser", Test_parser.suite);
      ("surface", Test_surface.suite);
      ("analysis", Test_analysis.suite);
      ("dfg", Test_dfg.suite);
      ("sched-exact", Test_sched_exact.suite);
      ("squash", Test_squash.suite);
      ("transforms", Test_transforms.suite);
      ("extra-transforms", Test_extra_transforms.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("decrypt", Test_decrypt.suite);
      ("hw", Test_hw.suite);
      ("pipeline-sim", Test_pipeline_sim.suite);
      ("pass", Test_pass.suite);
      ("rewrite", Test_rewrite.suite);
      ("core", Test_core.suite);
      ("runtime", Test_runtime.suite);
      ("store", Test_store.suite);
      ("fault", Test_fault.suite);
      ("differential", Test_differential.suite);
      ("fast-interp", Test_fast_interp.suite);
      ("bitwidth", Test_bitwidth.suite);
      ("c-export", Test_c_export.suite);
      ("goldens", Test_goldens.suite);
      ("misc", Test_misc.suite);
      ("service", Test_service.suite) ]
