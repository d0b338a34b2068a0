open Redo_kv

let all_methods = Store.[ Logical; Physical; Physiological; Generalized ]

let test_basic () =
  List.iter
    (fun m ->
      let name = Store.method_name m in
      let store = Store.create ~partitions:4 m in
      Store.put store "k1" "v1";
      Store.put store "k2" "v2";
      Store.put store "k1" "v1b";
      Store.delete store "k2";
      Alcotest.(check (option string)) (name ^ " get") (Some "v1b") (Store.get store "k1");
      Alcotest.(check (option string)) (name ^ " deleted") None (Store.get store "k2");
      Alcotest.(check (list (pair string string))) (name ^ " dump") [ "k1", "v1b" ]
        (Store.dump store))
    all_methods

let test_empty_key_rejected () =
  let store = Store.create Store.Physiological in
  match Store.put store "" "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_crash_recover_cycle () =
  List.iter
    (fun m ->
      let name = Store.method_name m in
      let store = Store.create ~cache_capacity:4 ~partitions:4 m in
      let trace = Redo_workload.Kv_trace.generate ~profile:{ Redo_workload.Kv_trace.uniform_profile with Redo_workload.Kv_trace.ops = 80; key_space = 20 } 3 in
      List.iter
        (function
          | Redo_workload.Kv_trace.Put (k, v) -> Store.put store k v
          | Redo_workload.Kv_trace.Del k -> Store.delete store k)
        trace;
      Store.sync store;
      Store.crash store;
      (match Store.verify_recovery_invariant store with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s invariant: %s" name msg);
      Store.recover store;
      Alcotest.(check (list (pair string string)))
        (name ^ " contents after recovery")
        (Redo_workload.Kv_trace.apply_to_assoc trace)
        (Store.dump store))
    all_methods

let test_double_recover_idempotent () =
  List.iter
    (fun m ->
      let name = Store.method_name m in
      let store = Store.create ~partitions:4 m in
      Store.put store "a" "1";
      Store.put store "b" "2";
      Store.sync store;
      Store.crash store;
      Store.recover store;
      let first = Store.dump store in
      (* Crash again immediately and recover again: same contents. *)
      Store.crash store;
      Store.recover store;
      Alcotest.(check (list (pair string string))) (name ^ " idempotent") first
        (Store.dump store))
    all_methods

let test_stats_accumulate () =
  let store = Store.create Store.Physical in
  Store.put store "a" "1";
  Store.delete store "a";
  Store.checkpoint store;
  Store.sync store;
  Store.crash store;
  Store.recover store;
  let s = Store.stats store in
  Alcotest.(check int) "puts" 1 s.Store.puts;
  Alcotest.(check int) "deletes" 1 s.Store.deletes;
  Alcotest.(check int) "checkpoints" 1 s.Store.checkpoints;
  Alcotest.(check int) "recoveries" 1 s.Store.recoveries;
  Alcotest.(check bool) "log bytes counted" true (Store.log_bytes store > 0)

let test_durable_ops_horizon () =
  let store = Store.create Store.Physiological in
  Store.put store "a" "1";
  Store.sync store;
  Store.put store "b" "2";
  Alcotest.(check int) "only the synced op is durable" 1 (Store.durable_ops store)

let prop_zipf_workload_recovers seed =
  (* Skewed workloads hammer one partition; recovery must still be exact. *)
  let store = Store.create ~cache_capacity:4 ~partitions:4 Store.Generalized in
  let profile =
    { Redo_workload.Kv_trace.skewed_profile with Redo_workload.Kv_trace.ops = 60; key_space = 15 }
  in
  let trace = Redo_workload.Kv_trace.generate ~profile seed in
  List.iter
    (function
      | Redo_workload.Kv_trace.Put (k, v) -> Store.put store k v
      | Redo_workload.Kv_trace.Del k -> Store.delete store k)
    trace;
  Store.sync store;
  Store.crash store;
  Store.recover store;
  Store.dump store = Redo_workload.Kv_trace.apply_to_assoc trace

let test_crash_flight_marker () =
  (* The store facade models a plain process kill: each crash stamps one
     clean marker, numbered by the recoveries so far. *)
  let module Flight = Redo_obs.Flight in
  Flight.reset ();
  Flight.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.reset ())
  @@ fun () ->
  let store = Store.create Store.Physiological in
  for _ = 1 to 2 do
    Store.put store "k" "v";
    Store.sync store;
    Store.crash store;
    Store.recover store
  done;
  Alcotest.(check (list (pair int bool))) "clean markers, in order"
    [ 1, false; 2, false ]
    (List.filter_map
       (fun f ->
         match f.Flight.event with
         | Flight.Crash { crash; torn } -> Some (crash, torn)
         | _ -> None)
       (Flight.scan ()).Flight.frames)

let suite =
  [
    Alcotest.test_case "basic operations" `Quick test_basic;
    Alcotest.test_case "empty key rejected" `Quick test_empty_key_rejected;
    Alcotest.test_case "crash/recover cycle (all methods)" `Quick test_crash_recover_cycle;
    Alcotest.test_case "double recover idempotent" `Quick test_double_recover_idempotent;
    Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
    Alcotest.test_case "durable ops horizon" `Quick test_durable_ops_horizon;
    Util.qtest ~count:40 "zipf workload recovers exactly" prop_zipf_workload_recovers;
    Alcotest.test_case "crash stamps a clean flight marker" `Quick test_crash_flight_marker;
  ]
