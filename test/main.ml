let () =
  Alcotest.run "pibe"
    [
      ("util", Test_util.suite);
      ("trace", Test_trace.suite);
      ("ir", Test_ir.suite);
      ("cpu", Test_cpu.suite);
      ("backend", Test_backend.suite);
      ("callgraph", Test_callgraph.suite);
      ("profile", Test_profile.suite);
      ("opt", Test_opt.suite);
      ("cleanup", Test_cleanup.suite);
      ("harden", Test_harden.suite);
      ("v1-scan", Test_v1_scan.suite);
      ("kernel", Test_kernel.suite);
      ("attack", Test_attack.suite);
      ("pipeline", Test_pipeline.suite);
      ("stale", Test_stale.suite);
      ("pm", Test_pm.suite);
      ("online", Test_online.suite);
      ("core", Test_core.suite);
      ("measure", Test_measure.suite);
      ("experiments", Test_experiments.suite);
      ("cli", Test_cli.suite);
    ]
