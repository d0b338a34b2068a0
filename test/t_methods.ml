open Redo_methods
open Redo_sim

let short_config =
  {
    Simulator.default_config with
    Simulator.total_ops = 120;
    crash_every = Some 40;
    checkpoint_every = Some 25;
    partitions = 4;
    cache_capacity = 6;
  }

let run_method ?(config = short_config) name seed =
  let make = Registry.find name in
  let instance = make ~cache_capacity:config.Simulator.cache_capacity
      ~partitions:config.Simulator.partitions ()
  in
  Simulator.run { config with Simulator.seed } instance

let check_outcome name (o : Simulator.outcome) =
  Alcotest.(check (list string)) (name ^ ": no verification failures") [] o.Simulator.verify_failures;
  let theory_failures =
    List.filter_map (fun r -> r.Theory_check.failure) o.Simulator.theory_reports
  in
  Alcotest.(check (list string)) (name ^ ": theory invariant holds at every crash") []
    theory_failures;
  Alcotest.(check bool) (name ^ ": crashed at least twice") true (o.Simulator.crashes >= 2)

let test_method name () = check_outcome name (run_method name 7)

let test_methods_disagree_on_redo_work () =
  (* Same workload: physical/logical redo everything since the
     checkpoint, while the LSN-based methods skip installed operations. *)
  let outcome name = run_method name 11 in
  let physiological = outcome "physiological" in
  Alcotest.(check bool) "physiological skips some records" true
    (physiological.Simulator.skipped > 0);
  let physical = outcome "physical" in
  Alcotest.(check int) "physical never skips" 0 physical.Simulator.skipped

type make = ?cache_capacity:int -> ?partitions:int -> unit -> Method_intf.instance

let test_basic_api () =
  List.iter
    (fun (name, (make : make)) ->
      let i = make ~cache_capacity:8 ~partitions:4 () in
      Method_intf.instance_put i "alpha" "1";
      Method_intf.instance_put i "beta" "2";
      Method_intf.instance_put i "alpha" "3";
      Method_intf.instance_delete i "beta";
      Alcotest.(check (option string)) (name ^ " get") (Some "3")
        (Method_intf.instance_get i "alpha");
      Alcotest.(check (option string)) (name ^ " deleted") None
        (Method_intf.instance_get i "beta");
      Alcotest.(check (list (pair string string))) (name ^ " dump") [ "alpha", "3" ]
        (Method_intf.instance_dump i))
    Registry.all

let test_unsynced_ops_lost () =
  List.iter
    (fun (name, (make : make)) ->
      let i = make ~cache_capacity:8 ~partitions:4 () in
      Method_intf.instance_put i "durable" "yes";
      Method_intf.instance_sync i;
      Method_intf.instance_put i "volatile" "no";
      Method_intf.instance_crash i;
      let _ = Method_intf.instance_recover i in
      Alcotest.(check (option string)) (name ^ " durable survives") (Some "yes")
        (Method_intf.instance_get i "durable");
      Alcotest.(check (option string)) (name ^ " volatile lost") None
        (Method_intf.instance_get i "volatile");
      Alcotest.(check int) (name ^ " durable count") 1 (Method_intf.instance_durable_ops i))
    Registry.all

let test_checkpoint_bounds_scan () =
  List.iter
    (fun (name, (make : make)) ->
      let i = make ~cache_capacity:8 ~partitions:4 () in
      let rng = Random.State.make [| 3 |] in
      for k = 1 to 50 do
        Method_intf.instance_put i (Printf.sprintf "key%02d" k) "x"
      done;
      (* Fuzzy checkpoints only help as far as pages were flushed. *)
      for _ = 1 to 40 do
        Method_intf.instance_flush_some i rng
      done;
      Method_intf.instance_checkpoint i;
      for k = 1 to 5 do
        Method_intf.instance_put i (Printf.sprintf "tail%d" k) "y"
      done;
      Method_intf.instance_sync i;
      Method_intf.instance_crash i;
      let stats = Method_intf.instance_recover i in
      Alcotest.(check bool)
        (Printf.sprintf "%s scan (%d) shorter than full log" name stats.Method_intf.scanned)
        true
        (stats.Method_intf.scanned <= 20);
      Alcotest.(check int) (name ^ " contents intact") 55
        (List.length (Method_intf.instance_dump i)))
    Registry.all

let prop_sim_torture name seed =
  let o = run_method name seed in
  o.Simulator.verify_failures = []
  && List.for_all Theory_check.ok o.Simulator.theory_reports

(* Sharded checkpoints at every config: the same workload must verify
   (contents and theory) whether checkpoints go through the
   shard-parallel installer, the plain fuzzy path, or not at all —
   transitively, the three recover identical contents — at 1, 2 and 4
   domains. *)
let prop_sharded_checkpoint_equivalence name seed =
  List.for_all
    (fun domains ->
      List.for_all
        (fun (checkpoint_shards, checkpoint_every) ->
          let config =
            {
              short_config with
              Simulator.checkpoint_shards;
              checkpoint_every;
              domains;
            }
          in
          let o = run_method ~config name seed in
          o.Simulator.verify_failures = []
          && List.for_all Theory_check.ok o.Simulator.theory_reports)
        [ true, Some 25; false, Some 25; false, None ])
    [ 1; 2; 4 ]

(* Group commit must be invisible to crash-equivalence: the same
   workload verifies (contents and theory, at every crash, torn or not)
   with batched forces on and off, at 1, 2 and 4 domains — multi-domain
   runs exercise the Background flusher, domains=1 the Inline path —
   and with the sharded installer piggybacking its records on the
   batches. *)
let prop_group_commit_equivalence name seed =
  List.for_all
    (fun domains ->
      List.for_all
        (fun checkpoint_shards ->
          let config =
            { short_config with Simulator.group_commit = true; checkpoint_shards; domains }
          in
          let o = run_method ~config name seed in
          o.Simulator.verify_failures = []
          && List.for_all Theory_check.ok o.Simulator.theory_reports)
        [ false; true ])
    [ 1; 2; 4 ]

let test_group_commit_all_methods () =
  let config = { short_config with Simulator.group_commit = true; checkpoint_shards = true } in
  List.iter
    (fun (name, _) -> check_outcome name (run_method ~config name 7))
    Registry.all

let test_sharded_checkpoint_installs () =
  (* The installing methods actually install components through the
     sharded path (logical's checkpoint has nothing to install). *)
  let config = { short_config with Simulator.checkpoint_shards = true } in
  List.iter
    (fun name ->
      let o = run_method ~config name 7 in
      check_outcome name o;
      Alcotest.(check bool)
        (name ^ ": sharded checkpoints installed components")
        true (o.Simulator.ckpt_shards > 0))
    [ "physical"; "physiological"; "generalized" ];
  let logical = run_method ~config "logical" 7 in
  check_outcome "logical" logical;
  Alcotest.(check int) "logical installs no components" 0 logical.Simulator.ckpt_shards

(* A physiological recovery redoes each page's tail with one cache
   update, which must record the first LSN it redid as the page's
   recLSN, not the last: a fuzzy checkpoint's dirty-page table takes the
   cached pages' recLSNs, and the next redo skips what lies below them. *)
let test_batched_redo_rec_lsn () =
  let i = Registry.find "physiological" ~cache_capacity:8 ~partitions:4 () in
  let base = List.init 20 (fun k -> Printf.sprintf "b%02d" k, "v") in
  List.iter (fun (k, v) -> Method_intf.instance_put i k v) base;
  ignore (Method_intf.instance_checkpoint_sharded ~domains:1 i);
  (* Twenty puts on four pages: every page's tail holds several. *)
  let tail = List.init 20 (fun k -> Printf.sprintf "t%02d" k, string_of_int k) in
  List.iter (fun (k, v) -> Method_intf.instance_put i k v) tail;
  Method_intf.instance_sync i;
  let restart () =
    Method_intf.instance_crash i;
    ignore (Method_intf.instance_recover i)
  in
  restart ();
  Method_intf.instance_checkpoint i;
  restart ();
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) ("acknowledged write " ^ k) (Some v)
        (Method_intf.instance_get i k))
    (base @ tail)

let suite =
  [
    Alcotest.test_case "basic api (all methods)" `Quick test_basic_api;
    Alcotest.test_case "unsynced ops lost (all methods)" `Quick test_unsynced_ops_lost;
    Alcotest.test_case "checkpoint bounds the scan (all methods)" `Quick
      test_checkpoint_bounds_scan;
    Alcotest.test_case "sim: logical" `Quick (test_method "logical");
    Alcotest.test_case "sim: physical" `Quick (test_method "physical");
    Alcotest.test_case "sim: physiological" `Quick (test_method "physiological");
    Alcotest.test_case "sim: generalized" `Quick (test_method "generalized");
    Alcotest.test_case "redo work differs by method" `Quick test_methods_disagree_on_redo_work;
    Alcotest.test_case "recLSN of a batched redo: physiological" `Quick
      test_batched_redo_rec_lsn;
    Util.qtest ~count:15 "sim torture: physiological" (prop_sim_torture "physiological");
    Util.qtest ~count:15 "sim torture: generalized" (prop_sim_torture "generalized");
    Util.qtest ~count:10 "sim torture: physical" (prop_sim_torture "physical");
    Util.qtest ~count:10 "sim torture: logical" (prop_sim_torture "logical");
    Alcotest.test_case "sharded checkpoints install (all methods)" `Quick
      test_sharded_checkpoint_installs;
    Util.qtest ~count:4 "sharded = global = no checkpoint: physiological"
      (prop_sharded_checkpoint_equivalence "physiological");
    Util.qtest ~count:4 "sharded = global = no checkpoint: generalized"
      (prop_sharded_checkpoint_equivalence "generalized");
    Util.qtest ~count:3 "sharded = global = no checkpoint: physical"
      (prop_sharded_checkpoint_equivalence "physical");
    Util.qtest ~count:3 "sharded = global = no checkpoint: logical"
      (prop_sharded_checkpoint_equivalence "logical");
    Alcotest.test_case "group commit: sim across all methods" `Quick
      test_group_commit_all_methods;
    Util.qtest ~count:4 "group commit = direct forces: physiological"
      (prop_group_commit_equivalence "physiological");
    Util.qtest ~count:4 "group commit = direct forces: generalized"
      (prop_group_commit_equivalence "generalized");
    Util.qtest ~count:3 "group commit = direct forces: physical"
      (prop_group_commit_equivalence "physical");
    Util.qtest ~count:3 "group commit = direct forces: logical"
      (prop_group_commit_equivalence "logical");
  ]
