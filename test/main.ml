let () =
  Alcotest.run "xguard"
    (List.concat
       [
         Test_sim.tests;
         Test_stats.tests;
         Test_proto.tests;
         Test_network.tests;
         Test_accel_l1.tests;
         Test_hammer.tests;
         Test_mesi.tests;
         Test_xg_integration.tests;
         Test_safety.tests;
         Test_xg_units.tests;
         Test_workload.tests;
         Test_conformance.tests;
         Test_accel_l2.tests;
         Test_xg_core.tests;
         Test_trace.tests;
         Test_regression_seeds.tests;
         Test_coverage_floor.tests;
         Test_campaign.tests;
         Test_topology.tests;
         Test_faults.tests;
         Test_spans.tests;
         Test_metrics.tests;
         Test_check.tests;
       ])
