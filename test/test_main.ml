let () =
  Alcotest.run "treaty"
    [
      ("crypto", Test_crypto.suite);
      ("util", Test_util.suite);
      ("netsim", Test_netsim.suite);
      ("sim", Test_sim.suite);
      ("tee", Test_tee.suite);
      ("storage", Test_storage.suite);
      ("rpc", Test_rpc.suite);
      ("counter", Test_counter.suite);
      ("cas", Test_cas.suite);
      ("core", Test_core.suite);
      ("txn_wire", Test_txn_wire.suite);
      ("durability", Test_durability.suite);
      ("sanitizer", Test_sanitizer.suite);
      ("chaos", Test_chaos.suite);
      ("workload", Test_workload.suite);
      ("obs", Test_obs.suite);
    ]
