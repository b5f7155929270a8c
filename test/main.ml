(* The full alcotest runner: one suite per library area. *)

let () =
  Alcotest.run "ffault"
    (Test_prng.suites @ Test_objects.suites @ Test_history.suites @ Test_hoare.suites
   @ Test_fault.suites @ Test_sim.suites @ Test_consensus.suites @ Test_verify.suites
   @ Test_impossibility.suites @ Test_runtime.suites @ Test_stats.suites
   @ Test_extensions.suites @ Test_primitives.suites @ Test_critical.suites
   @ Test_engine_edge.suites @ Test_conformance.suites @ Test_crash_tolerance.suites
   @ Test_experiments.suites @ Test_campaign.suites @ Test_telemetry.suites
   @ Test_lint.suites @ Test_supervise.suites @ Test_dist.suites @ Test_netsim.suites
   @ Test_observability.suites @ Test_recover.suites @ Test_json.suites)
