let () =
  Alcotest.run "redo"
    [
      "digraph", T_digraph.suite;
      "value/expr", T_value_expr.suite;
      "op/state/exec", T_op_state.suite;
      "conflict graph", T_conflict.suite;
      "state graph", T_state_graph.suite;
      "exposed", T_exposed.suite;
      "explain", T_explain.suite;
      "replay", T_replay.suite;
      "recovery", T_recovery.suite;
      "partition", T_partition.suite;
      "write graph", T_write_graph.suite;
      "storage", T_storage.suite;
      "wal", T_wal.suite;
      "group commit", T_group_commit.suite;
      "codec/stable log", T_codec.suite;
      "checkpoint installer", T_ckpt.suite;
      "btree", T_btree.suite;
      "methods", T_methods.suite;
      "workload", T_workload.suite;
      "kv store", T_kv.suite;
      "mailbox", T_mailbox.suite;
      "sharded store", T_sharded_store.suite;
      "theory check", T_theory_check.suite;
      "fault injection", T_faults.suite;
      "projection", T_projection.suite;
      "beyond the theory", T_beyond_theory.suite;
      "persistent app", T_persist.suite;
      "obs", T_obs.suite;
      "span profiler", T_span.suite;
      "flight recorder", T_flight.suite;
      "oplat", T_oplat.suite;
      "instant restart", T_restart.suite;
      "page redo", T_page_redo.suite;
      "master record", T_master.suite;
    ]
