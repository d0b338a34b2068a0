(* The partition planner: conflict-closed shards, their determinism,
   and the equivalence of shard-parallel replay with the sequential
   Figure 6 pass (Theorem 3 exercised end to end). *)

open Redo_core

let op_assign id target expr = Op.of_assigns ~id [ Var.of_string target, expr ]

let log_of ops = Log.of_conflict_graph (Conflict_graph.of_exec (Exec.make ops))

let plan_of ?(checkpoint = Digraph.Node_set.empty) log = Partition.plan ~log ~checkpoint

let shard_ops (p : Partition.plan) =
  List.map (fun (s : Partition.shard) -> Digraph.Node_set.elements s.Partition.ops) p.shards

(* Operations on pairwise-disjoint variables: every operation is its own
   shard, ordered by log position. *)
let test_singletons () =
  let ops =
    List.init 5 (fun i -> op_assign (Printf.sprintf "op%d" i) (Printf.sprintf "x%d" i) Expr.(int i))
  in
  let p = plan_of (log_of ops) in
  Alcotest.(check int) "five shards" 5 (Partition.shard_count p);
  Alcotest.(check (list (list string)))
    "one op each, in log order"
    [ [ "op0" ]; [ "op1" ]; [ "op2" ]; [ "op3" ]; [ "op4" ] ]
    (shard_ops p);
  Alcotest.(check bool) "disjoint" true (Partition.disjoint p);
  List.iter
    (fun (s : Partition.shard) ->
      Alcotest.(check int) "one record" 1 (List.length s.Partition.records))
    p.Partition.shards

(* A shared variable chains everything into one component. *)
let test_giant_component () =
  let ops =
    List.init 6 (fun i ->
        op_assign (Printf.sprintf "op%d" i) "shared" Expr.(var (Var.of_string "shared") + int 1))
  in
  let p = plan_of (log_of ops) in
  Alcotest.(check int) "one shard" 1 (Partition.shard_count p);
  let s = List.hd p.Partition.shards in
  Alcotest.(check int) "all six ops" 6 (Digraph.Node_set.cardinal s.Partition.ops);
  Alcotest.(check (list string))
    "records in log order"
    [ "op0"; "op1"; "op2"; "op3"; "op4"; "op5" ]
    (List.map (fun r -> r.Log.op_id) s.Partition.records)

(* Transitive closure through a connector, and its disappearance when
   the checkpoint already installed the connector: installed operations
   constrain nothing. *)
let test_checkpoint_splits_components () =
  let ops =
    [
      op_assign "wx" "x" Expr.(int 1);
      op_assign "wy" "y" Expr.(int 2);
      Op.of_assigns ~id:"rxy"
        [ Var.of_string "z", Expr.(var (Var.of_string "x") + var (Var.of_string "y")) ];
    ]
  in
  let log = log_of ops in
  let joined = plan_of log in
  Alcotest.(check int) "connector joins all" 1 (Partition.shard_count joined);
  let split = plan_of ~checkpoint:(Digraph.Node_set.singleton "rxy") log in
  Alcotest.(check int) "checkpointed connector splits" 2 (Partition.shard_count split);
  Alcotest.(check (list (list string))) "components" [ [ "wx" ]; [ "wy" ] ] (shard_ops split);
  Alcotest.(check bool) "rxy in no shard" true (Partition.shard_of split "rxy" = None);
  match Partition.shard_of split "wy" with
  | None -> Alcotest.fail "wy must be sharded"
  | Some s -> Alcotest.(check int) "wy in second shard" 1 s.Partition.index

(* The plan is a deterministic function of (log, checkpoint): planning
   twice — and planning a structurally identical, independently built
   log — yields identical shards. *)
let prop_deterministic seed =
  let exec = Redo_workload.Op_gen.exec seed in
  let cg = Conflict_graph.of_exec exec in
  let log = Log.of_conflict_graph cg in
  let rng = Random.State.make [| seed; 21 |] in
  let checkpoint = Redo_workload.Op_gen.random_installation_prefix rng cg in
  let p1 = Partition.plan ~log ~checkpoint in
  let p2 = Partition.plan ~log ~checkpoint in
  let p3 =
    Partition.plan ~log:(Log.of_conflict_graph (Conflict_graph.of_exec exec)) ~checkpoint
  in
  let same (a : Partition.plan) (b : Partition.plan) =
    List.length a.Partition.shards = List.length b.Partition.shards
    && List.for_all2
         (fun (x : Partition.shard) (y : Partition.shard) ->
           x.Partition.index = y.Partition.index
           && Digraph.Node_set.equal x.Partition.ops y.Partition.ops
           && Var.Set.equal x.Partition.vars y.Partition.vars
           && List.map (fun r -> r.Log.op_id) x.Partition.records
              = List.map (fun r -> r.Log.op_id) y.Partition.records)
         a.Partition.shards b.Partition.shards
  in
  same p1 p2 && same p1 p3

(* Structural soundness on random executions: shards partition the
   unrecovered set, variable sets are pairwise disjoint, no conflict
   edge crosses shards, and the shard record lists tile the log. *)
let prop_conflict_closed seed =
  let exec = Redo_workload.Op_gen.exec seed in
  let cg = Conflict_graph.of_exec exec in
  let log = Log.of_conflict_graph cg in
  let rng = Random.State.make [| seed; 22 |] in
  let checkpoint = Redo_workload.Op_gen.random_installation_prefix rng cg in
  let p = Partition.plan ~log ~checkpoint in
  let cross_free =
    List.for_all
      (fun (a, b) ->
        match Partition.shard_of p a, Partition.shard_of p b with
        | Some sa, Some sb -> sa.Partition.index = sb.Partition.index
        | _ -> true)
      (Digraph.edges (Conflict_graph.graph cg))
  in
  let tiles =
    List.concat_map (fun (s : Partition.shard) -> s.Partition.records) p.Partition.shards
    |> List.map (fun r -> r.Log.op_id)
    |> List.sort compare
    = (Digraph.Node_set.elements p.Partition.unrecovered |> List.sort compare)
  in
  Partition.disjoint p && cross_free && tiles

(* Theorem 3, executed: shard-parallel replay from a scrambled crash
   state reaches exactly the sequential final state with exactly the
   sequential redo set, across random executions, random installation
   checkpoints and varying domain counts. *)
let prop_parallel_equivalence seed =
  let exec = Redo_workload.Op_gen.exec seed in
  let cg = Conflict_graph.of_exec exec in
  let log = Log.of_conflict_graph cg in
  let rng = Random.State.make [| seed; 23 |] in
  let prefix = Redo_workload.Op_gen.random_installation_prefix rng cg in
  let state =
    State.scramble
      (Explain.state_determined_by_prefix cg ~prefix)
      (Exposed.unexposed_vars cg ~installed:prefix)
  in
  let seq = Recovery.recover Recovery.always_redo ~state ~log ~checkpoint:prefix in
  let domains = 2 + (seed mod 3) in
  let par =
    Recovery.recover
      ~schedule:(Recovery.Shards { domains; pool = None; shard_sink = None })
      Recovery.always_redo ~state ~log ~checkpoint:prefix
  in
  let universe = Exec.vars exec in
  State.equal_on universe par.Recovery.final seq.Recovery.final
  && Digraph.Node_set.equal par.Recovery.redo_set seq.Recovery.redo_set
  && Recovery.succeeded ~log par

(* The merged trace of a traced parallel run audits clean shard by
   shard: each shard's iterations satisfy the Recovery Invariant on its
   own slice of the problem. *)
let test_parallel_shard_traces () =
  let exec = Redo_workload.Op_gen.exec 7 in
  let cg = Conflict_graph.of_exec exec in
  let log = Log.of_conflict_graph cg in
  let par =
    Recovery.recover ~trace:true
      ~schedule:(Recovery.Shards { domains = 3; pool = None; shard_sink = None })
      Recovery.always_redo ~state:State.empty ~log ~checkpoint:Digraph.Node_set.empty
  in
  let total =
    List.fold_left
      (fun acc sr ->
        acc + List.length sr.Recovery.shard_result.Recovery.iterations)
      0 par.Recovery.shard_runs
  in
  Alcotest.(check int)
    "every unrecovered op traced exactly once" (Log.length log) total;
  Alcotest.(check int)
    "merged trace concatenates the shards" (Log.length log)
    (List.length par.Recovery.iterations)

(* ---- the domain pool itself --------------------------------------- *)

let test_pool_map_order () =
  let pool = Redo_par.Domain_pool.create ~domains:3 in
  Fun.protect ~finally:(fun () -> Redo_par.Domain_pool.shutdown pool) @@ fun () ->
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "order preserved"
    (List.map (fun x -> x * x) xs)
    (Redo_par.Domain_pool.map pool (fun x -> x * x) xs);
  (* The pool survives a map and runs another. *)
  Alcotest.(check (list int))
    "pool is reusable" [ 1; 2; 3 ]
    (Redo_par.Domain_pool.map pool (fun x -> x + 1) [ 0; 1; 2 ])

let test_pool_exception () =
  let pool = Redo_par.Domain_pool.create ~domains:2 in
  Fun.protect ~finally:(fun () -> Redo_par.Domain_pool.shutdown pool) @@ fun () ->
  (match
     Redo_par.Domain_pool.map pool (fun x -> if x = 3 then failwith "boom" else x) [ 1; 2; 3; 4 ]
   with
  | _ -> Alcotest.fail "exception must propagate"
  | exception Failure msg -> Alcotest.(check string) "first failure" "boom" msg);
  (* A failed map leaves the pool usable. *)
  Alcotest.(check (list int)) "still alive" [ 2; 4 ] (Redo_par.Domain_pool.map pool (fun x -> 2 * x) [ 1; 2 ])

let test_pool_shutdown () =
  let pool = Redo_par.Domain_pool.create ~domains:2 in
  Redo_par.Domain_pool.shutdown pool;
  Redo_par.Domain_pool.shutdown pool;
  (* idempotent *)
  (match Redo_par.Domain_pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown must be rejected"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list int))
    "run ~domains:1 is plain map" [ 10; 20 ]
    (Redo_par.Domain_pool.run ~domains:1 [ (fun () -> 10); (fun () -> 20) ])

let suite =
  [
    Alcotest.test_case "disjoint vars make singleton shards" `Quick test_singletons;
    Alcotest.test_case "shared var makes one giant shard" `Quick test_giant_component;
    Alcotest.test_case "checkpointed connector splits components" `Quick
      test_checkpoint_splits_components;
    Alcotest.test_case "parallel shard traces tile the log" `Quick test_parallel_shard_traces;
    Alcotest.test_case "pool: map preserves order, pool reusable" `Quick test_pool_map_order;
    Alcotest.test_case "pool: exceptions propagate" `Quick test_pool_exception;
    Alcotest.test_case "pool: shutdown idempotent, submit rejected" `Quick test_pool_shutdown;
    Util.qtest ~count:150 "plans are deterministic" prop_deterministic;
    Util.qtest ~count:150 "shards are conflict-closed partitions" prop_conflict_closed;
    Util.qtest ~count:150 "parallel replay = sequential replay (fuzz)" prop_parallel_equivalence;
  ]
