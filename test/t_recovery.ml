open Redo_core

let universe = Var.Set.of_list [ Util.x; Util.y ]

let log_of exec = Log.of_conflict_graph (Conflict_graph.of_exec exec)

let test_log_consistency () =
  let cg = Conflict_graph.of_exec Scenario.figure_4 in
  let log = Log.of_conflict_graph cg in
  Alcotest.(check int) "three records" 3 (Log.length log);
  (* P and O are unordered in log-vs-conflict terms? No: O -> P is a
     conflict edge, so P cannot precede O. *)
  (match Log.reorder log [ "P"; "O"; "Q" ] with
  | exception Log.Inconsistent _ -> ()
  | _ -> Alcotest.fail "expected Inconsistent: P before O violates O->P");
  (* O, P, Q is the only consistent order here. *)
  ignore (Log.reorder log [ "O"; "P"; "Q" ])

let test_log_labels () =
  let cg = Conflict_graph.of_exec Scenario.figure_4 in
  let log = Log.of_conflict_graph ~labels:(fun id -> [ "lsn", id ]) cg in
  let r = List.hd (Log.records log) in
  Alcotest.(check (option string)) "label" (Some "O") (Log.label r "lsn")

let test_recover_from_scratch () =
  (* Empty checkpoint, initial state, redo everything: recovery replays
     the whole log and reaches the final state. *)
  let exec = Scenario.figure_4 in
  let log = log_of exec in
  let result =
    Recovery.recover ~trace:true Recovery.always_redo ~state:(Exec.initial exec) ~log
      ~checkpoint:Digraph.Node_set.empty
  in
  Alcotest.(check bool) "succeeded" true (Recovery.succeeded ~universe ~log result);
  Util.check_set "everything redone" [ "O"; "P"; "Q" ] result.Recovery.redo_set;
  (match Recovery.check_invariant ~universe ~log result with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected violation: %a" Recovery.pp_violation v)

let test_recover_scenario2_with_checkpoint () =
  let s = Scenario.scenario_2 in
  let log = log_of s.Scenario.exec in
  let result =
    Recovery.recover ~trace:true Recovery.always_redo ~state:s.Scenario.crash_state ~log
      ~checkpoint:s.Scenario.claimed_installed
  in
  Alcotest.(check bool) "succeeded" true (Recovery.succeeded ~universe ~log result);
  Util.check_set "only B redone" [ "B" ] result.Recovery.redo_set;
  Alcotest.(check (option string)) "invariant held" None
    (Option.map (fun v -> v.Recovery.reason) (Recovery.check_invariant ~universe ~log result))

let test_recover_scenario1_detected () =
  (* A bogus checkpoint claims B is installed; recovery then replays only
     A against the corrupt state. The run fails and the invariant checker
     pinpoints why. *)
  let s = Scenario.scenario_1 in
  let log = log_of s.Scenario.exec in
  let result =
    Recovery.recover ~trace:true Recovery.always_redo ~state:s.Scenario.crash_state ~log
      ~checkpoint:s.Scenario.claimed_installed
  in
  Alcotest.(check bool) "recovery failed" false (Recovery.succeeded ~universe ~log result);
  (match Recovery.check_invariant ~universe ~log result with
  | Some v ->
    Alcotest.(check string) "non-prefix detected"
      "installed set is not an installation-graph prefix" v.Recovery.reason
  | None -> Alcotest.fail "expected an invariant violation")

let test_redo_if () =
  (* A state-dependent redo test: skip operations whose effects are
     already present (a toy version of the LSN test). Scenario 3: the
     crash state contains C's y but stale x; an idempotence check that
     compares effects against the state replays C (x stale!) — which is
     exactly the kind of bogus redo test the invariant checker flags,
     because C's replay against the crash state double-increments y. *)
  let s = Scenario.scenario_3 in
  let log = log_of s.Scenario.exec in
  let effects_present op state =
    List.for_all
      (fun (v, value) -> Value.equal (State.get state v) value)
      (Op.effects op state)
  in
  let spec = Recovery.redo_if (fun op state -> not (effects_present op state)) in
  let result = Recovery.recover ~trace:true spec ~state:s.Scenario.crash_state ~log ~checkpoint:Digraph.Node_set.empty in
  Alcotest.(check bool) "bogus redo test fails to recover" false
    (Recovery.succeeded ~universe ~log result);
  Alcotest.(check bool) "checker catches it" true
    (Recovery.check_invariant ~universe ~log result <> None)

let test_untraced_matches_traced () =
  (* The default (untraced) single-pass loop computes the same recovery
     as the instrumented one; it just skips the per-iteration
     snapshots. *)
  let s = Scenario.scenario_2 in
  let log = log_of s.Scenario.exec in
  let run ?trace () =
    Recovery.recover ?trace Recovery.always_redo ~state:s.Scenario.crash_state ~log
      ~checkpoint:s.Scenario.claimed_installed
  in
  let traced = run ~trace:true () and untraced = run () in
  Alcotest.(check bool) "same redo set" true
    (Digraph.Node_set.equal traced.Recovery.redo_set untraced.Recovery.redo_set);
  Alcotest.(check bool) "same final state" true
    (State.equal_on universe traced.Recovery.final untraced.Recovery.final);
  Alcotest.(check int) "no snapshots retained" 0
    (List.length untraced.Recovery.iterations);
  Alcotest.(check bool) "untraced run succeeded" true
    (Recovery.succeeded ~universe ~log untraced)

let test_streaming_audit_matches_posthoc () =
  (* An auditor fed through [~sink] checks the same points as a post-hoc
     [audit] of a [~trace:true] run, without the run retaining any
     snapshots. *)
  let s = Scenario.scenario_2 in
  let log = log_of s.Scenario.exec in
  let run ?trace ?sink () =
    Recovery.recover ?trace ?sink Recovery.always_redo ~state:s.Scenario.crash_state ~log
      ~checkpoint:s.Scenario.claimed_installed
  in
  let traced = run ~trace:true () in
  let posthoc = Recovery.audit ~universe ~log traced in
  let a = Recovery.auditor ~universe ~log ~redo_set:traced.Recovery.redo_set () in
  let streamed = run ~sink:(Recovery.audit_observe a) () in
  let report = Recovery.audit_finish a ~final:streamed.Recovery.final in
  Alcotest.(check bool) "no violation" true (report.Recovery.violation = None);
  Alcotest.(check bool) "audited every iteration" true
    (posthoc.Recovery.iterations_checked > 0);
  Alcotest.(check int) "same audit depth" posthoc.Recovery.iterations_checked
    report.Recovery.iterations_checked;
  Alcotest.(check int) "streaming run retains no snapshots" 0
    (List.length streamed.Recovery.iterations);
  (* The documented caveat: an untraced, sink-less result can only be
     audited at its final state. *)
  Alcotest.(check int) "untraced audit depth is zero" 0
    (Recovery.audit ~universe ~log (run ())).Recovery.iterations_checked

let test_streaming_audit_detects_violation () =
  let s = Scenario.scenario_1 in
  let log = log_of s.Scenario.exec in
  let traced =
    Recovery.recover ~trace:true Recovery.always_redo ~state:s.Scenario.crash_state ~log
      ~checkpoint:s.Scenario.claimed_installed
  in
  let a = Recovery.auditor ~universe ~log ~redo_set:traced.Recovery.redo_set () in
  List.iter (Recovery.audit_observe a) traced.Recovery.iterations;
  let report = Recovery.audit_finish a ~final:traced.Recovery.final in
  match report.Recovery.violation with
  | Some v ->
    Alcotest.(check string) "streaming auditor pinpoints the violation"
      "installed set is not an installation-graph prefix" v.Recovery.reason
  | None -> Alcotest.fail "expected an invariant violation"

let test_installed_at () =
  let log = log_of Scenario.figure_4 in
  let redo_set = Util.ids [ "P"; "Q" ] in
  let installed =
    Recovery.installed_at ~log ~redo_set ~unrecovered:(Util.ids [ "Q" ])
  in
  (* P was redone already (not unrecovered anymore): it counts as
     installed; Q is still pending redo. *)
  Util.check_set "installed" [ "O"; "P" ] installed

(* Corollary 4 as a property: take a random installation prefix sigma
   explaining the state; let the checkpoint be exactly sigma and redo
   everything else. Recovery must succeed and the invariant must hold at
   every iteration. *)
let prop_corollary4 seed =
  let exec = Redo_workload.Op_gen.exec seed in
  let cg = Conflict_graph.of_exec exec in
  let log = Log.of_conflict_graph cg in
  let rng = Random.State.make [| seed; 8 |] in
  let prefix = Redo_workload.Op_gen.random_installation_prefix rng cg in
  let state =
    State.scramble
      (Explain.state_determined_by_prefix cg ~prefix)
      (Exposed.unexposed_vars cg ~installed:prefix)
  in
  let result = Recovery.recover ~trace:true Recovery.always_redo ~state ~log ~checkpoint:prefix in
  Recovery.succeeded ~log result && Recovery.check_invariant ~log result = None

(* The converse direction: when recovery succeeds from a state for the
   trivial reason that the state was already final and nothing is redone,
   the invariant also holds (the full graph explains the final state). *)
let prop_final_state_needs_no_redo seed =
  let exec = Redo_workload.Op_gen.exec seed in
  let cg = Conflict_graph.of_exec exec in
  let log = Log.of_conflict_graph cg in
  let state = Exec.final_state exec in
  let result =
    Recovery.recover ~trace:true (Recovery.redo_if (fun _ _ -> false)) ~state ~log
      ~checkpoint:(Exec.op_id_set exec)
  in
  Recovery.succeeded ~log result && Recovery.check_invariant ~log result = None

(* Per-shard checkpoint horizons are only a representation change: a
   random installation prefix, expressed as one horizon per conflict
   component, must recover exactly like the same prefix as a global
   checkpoint — same final state, same redo set — at 1, 2 and 4
   domains. The no-checkpoint runs (empty horizons vs empty global
   checkpoint) must agree the same way. *)
let prop_sharded_horizons_equal_global seed =
  let exec = Redo_workload.Op_gen.exec seed in
  let cg = Conflict_graph.of_exec exec in
  let log = Log.of_conflict_graph cg in
  let universe = Exec.vars exec in
  let rng = Random.State.make [| seed; 0x5a4d |] in
  let prefix = Redo_workload.Op_gen.random_installation_prefix rng cg in
  let state =
    State.scramble
      (Explain.state_determined_by_prefix cg ~prefix)
      (Exposed.unexposed_vars cg ~installed:prefix)
  in
  let global = Recovery.recover Recovery.always_redo ~state ~log ~checkpoint:prefix in
  let no_ckpt =
    Recovery.recover Recovery.always_redo ~state ~log ~checkpoint:Digraph.Node_set.empty
  in
  let full_plan = Partition.plan ~log ~checkpoint:Digraph.Node_set.empty in
  let horizons =
    List.map
      (fun (s : Partition.shard) ->
        {
          Recovery.scope = s.Partition.vars;
          installed = Digraph.Node_set.inter prefix s.Partition.ops;
        })
      full_plan.Partition.shards
  in
  Digraph.Node_set.equal (Recovery.checkpoint_of_horizons horizons) prefix
  && List.for_all
       (fun domains ->
         let agrees (expected : Recovery.result) horizons =
           let sh =
             Recovery.recover
               ~schedule:(Recovery.Shards { domains; pool = None; shard_sink = None })
               ~horizons Recovery.always_redo ~state ~log ~checkpoint:Digraph.Node_set.empty
           in
           State.equal_on universe sh.Recovery.final expected.Recovery.final
           && Digraph.Node_set.equal sh.Recovery.redo_set expected.Recovery.redo_set
         in
         agrees global horizons && agrees no_ckpt [])
       [ 1; 2; 4 ]

(* Demand order is one more schedule Theorem 3 licenses: whatever order
   the home variables are touched in — a random permutation of every
   variable, or a random partial list whose untouched rest is swept in
   log order — replay must reach the log-order final state with the
   log-order redo set. The redo test replays a random subset of the
   unrecovered operations, so the redo sets being equal says something. *)
let prop_touch_order_equals_log_order seed =
  let exec = Redo_workload.Op_gen.exec seed in
  let cg = Conflict_graph.of_exec exec in
  let log = Log.of_conflict_graph cg in
  let universe = Exec.vars exec in
  let rng = Random.State.make [| seed; 0x70c4 |] in
  let prefix = Redo_workload.Op_gen.random_installation_prefix rng cg in
  let state =
    State.scramble
      (Explain.state_determined_by_prefix cg ~prefix)
      (Exposed.unexposed_vars cg ~installed:prefix)
  in
  let chosen =
    Digraph.Node_set.filter (fun _ -> Random.State.int rng 4 > 0) (Log.operations log)
  in
  let spec = Recovery.redo_if (fun op _ -> Digraph.Node_set.mem (Op.id op) chosen) in
  let expected = Recovery.recover spec ~state ~log ~checkpoint:prefix in
  let shuffle l =
    List.map (fun x -> Random.State.bits rng, x) l |> List.sort compare |> List.map snd
  in
  let vars = shuffle (Var.Set.elements universe) in
  let partial = List.filter (fun _ -> Random.State.bool rng) vars in
  List.for_all
    (fun vs ->
      let r =
        Recovery.recover ~schedule:(Recovery.Touch_order (Some vs)) spec ~state ~log
          ~checkpoint:prefix
      in
      State.equal_on universe r.Recovery.final expected.Recovery.final
      && Digraph.Node_set.equal r.Recovery.redo_set expected.Recovery.redo_set)
    [ vars; partial ]

let suite =
  [
    Alcotest.test_case "log consistency" `Quick test_log_consistency;
    Alcotest.test_case "log labels" `Quick test_log_labels;
    Alcotest.test_case "recover from scratch" `Quick test_recover_from_scratch;
    Alcotest.test_case "recover with checkpoint (scenario 2)" `Quick
      test_recover_scenario2_with_checkpoint;
    Alcotest.test_case "bogus checkpoint detected (scenario 1)" `Quick
      test_recover_scenario1_detected;
    Alcotest.test_case "bogus redo test detected" `Quick test_redo_if;
    Alcotest.test_case "untraced recovery matches traced" `Quick
      test_untraced_matches_traced;
    Alcotest.test_case "streaming audit matches post-hoc" `Quick
      test_streaming_audit_matches_posthoc;
    Alcotest.test_case "streaming audit detects violation" `Quick
      test_streaming_audit_detects_violation;
    Alcotest.test_case "installed_at" `Quick test_installed_at;
    Util.qtest ~count:200 "corollary 4 (recovery correctness)" prop_corollary4;
    Util.qtest "final state needs no redo" prop_final_state_needs_no_redo;
    Util.qtest ~count:100 "sharded horizons = global checkpoint = none (1/2/4 domains)"
      prop_sharded_horizons_equal_global;
    Util.qtest ~count:100 "touch orders = log order (permutations, partial lists)"
      prop_touch_order_equals_log_order;
  ]
