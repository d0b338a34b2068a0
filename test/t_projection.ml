(* Unit tests for the system -> theory projection: each record kind must
   become a core operation whose replay matches what the real system
   does to its pages. *)

open Redo_core
open Redo_storage
open Redo_methods

let lsn = Lsn.of_int

let lookup_of bindings v =
  match List.assoc_opt v bindings with
  | Some value -> value
  | None -> Page.to_value Page.empty

let test_physical_op () =
  let op = Projection.physical_op ~lsn:(lsn 4) ~pid:3 (Util.kv [ "a", "1" ]) in
  Util.check_var_set "no reads" [] (Op.reads op);
  Util.check_var_set "writes the page" [ "pg:3" ] (Op.writes op);
  let effects = Op.effects op (State.make []) in
  (match effects with
  | [ (v, value) ] ->
    Alcotest.(check string) "var" "pg:3" (Var.to_string v);
    let page = Page.of_value value in
    Alcotest.(check int) "stamped lsn" 4 (Lsn.to_int (Page.lsn page));
    Alcotest.(check bool) "image" true (Page.data_equal (Page.data page) (Util.kv [ "a", "1" ]))
  | _ -> Alcotest.fail "expected one write")

let test_physiological_rmw () =
  let op = Projection.physiological_op ~lsn:(lsn 7) ~pid:2 (Page_op.Put ("k", "v")) in
  Util.check_var_set "reads its page" [ "pg:2" ] (Op.reads op);
  let before = Page.make ~lsn:(lsn 5) (Util.kv [ "j", "0" ]) in
  let state = State.make [ Var.page 2, Page.to_value before ] in
  let after = Page.of_value (List.assoc (Var.page 2) (Op.effects op state)) in
  Alcotest.(check int) "lsn bumped" 7 (Lsn.to_int (Page.lsn after));
  Alcotest.(check bool) "record added" true
    (Page.data_equal (Page.data after) (Util.kv [ "j", "0"; "k", "v" ]))

let test_physiological_blind () =
  let op = Projection.physiological_op ~lsn:(lsn 9) ~pid:2 (Page_op.Init_leaf [ "m", "1" ]) in
  Util.check_var_set "blind: no reads" [] (Op.reads op);
  let after = Page.of_value (List.assoc (Var.page 2) (Op.effects op (State.make []))) in
  Alcotest.(check bool) "formatted" true
    (Page.data_equal (Page.data after) (Util.leaf [ "m", "1" ]))

let test_multi_split () =
  let op =
    Projection.multi_op ~lsn:(lsn 11) (Multi_op.Split_to { src = 1; dst = 2; at = "m" })
  in
  Util.check_var_set "reads src" [ "pg:1" ] (Op.reads op);
  Util.check_var_set "writes dst" [ "pg:2" ] (Op.writes op);
  let src = Page.make ~lsn:(lsn 3) (Util.leaf [ "a", "1"; "m", "2"; "z", "3" ]) in
  let state = State.make [ Var.page 1, Page.to_value src ] in
  let dst = Page.of_value (List.assoc (Var.page 2) (Op.effects op state)) in
  Alcotest.(check bool) "upper half moved" true
    (Page.data_equal (Page.data dst) (Util.leaf [ "m", "2"; "z", "3" ]))

let test_logical_op () =
  let locate _ = 1 in
  let op =
    Projection.logical_op ~lsn:(lsn 2) ~universe:[ 0; 1 ] ~locate (Redo_wal.Record.Db_put ("k", "v"))
  in
  Util.check_var_set "reads all pages" [ "pg:0"; "pg:1" ] (Op.reads op);
  Util.check_var_set "writes all pages" [ "pg:0"; "pg:1" ] (Op.writes op);
  let initial = Projection.initial_state ~lsn_values:false [ 0; 1 ] in
  let effects = Op.effects op initial in
  let data_of pid = Page.data_of_value (List.assoc (Var.page pid) effects) in
  Alcotest.(check bool) "target page updated" true
    (Page.data_equal (data_of 1) (Util.kv [ "k", "v" ]));
  Alcotest.(check bool) "other page untouched" true (Page.data_equal (data_of 0) Page.Empty)

let test_stable_state_of_disk () =
  let disk = Disk.create () in
  Disk.write disk 0 (Page.make ~lsn:(lsn 6) (Util.kv [ "q", "7" ]));
  let st = Projection.stable_state_of_disk ~lsn_values:true disk [ 0; 1 ] in
  let p0 = Page.of_value (State.get st (Var.page 0)) in
  Alcotest.(check int) "page 0 lsn" 6 (Lsn.to_int (Page.lsn p0));
  let p1 = Page.of_value (State.get st (Var.page 1)) in
  Alcotest.(check bool) "missing page empty" true (Page.equal p1 Page.empty)

(* Replaying a method's projected operations from the projected initial
   state must land exactly on the method's own in-memory contents —
   the projection is faithful, not just plausible. *)
let prop_projection_replay_matches_store seed =
  let store = Redo_kv.Store.create ~cache_capacity:8 ~partitions:4 Redo_kv.Store.Physiological in
  let rng = Random.State.make [| seed; 77 |] in
  for i = 1 to 40 do
    let key = Printf.sprintf "k%02d" (Random.State.int rng 12) in
    if Random.State.int rng 10 < 2 then Redo_kv.Store.delete store key
    else Redo_kv.Store.put store key (Printf.sprintf "v%d" i)
  done;
  Redo_kv.Store.sync store;
  Redo_kv.Store.crash store;
  match Redo_kv.Store.verify_recovery_invariant store with
  | Error _ -> false
  | Ok _ ->
    Redo_kv.Store.recover store;
    let first = Redo_kv.Store.dump store in
    (* Recovery must be stable: after another sync/crash cycle the
       projection still satisfies the invariant and recovery reproduces
       identical contents. *)
    Redo_kv.Store.sync store;
    Redo_kv.Store.crash store;
    (match Redo_kv.Store.verify_recovery_invariant store with
    | Error _ -> false
    | Ok _ ->
      Redo_kv.Store.recover store;
      Redo_kv.Store.dump store = first)

let test_op_id_format () =
  Alcotest.(check string) "padded" "op000042" (Projection.op_id (lsn 42))

let suite =
  [
    Alcotest.test_case "physical op" `Quick test_physical_op;
    Alcotest.test_case "physiological rmw op" `Quick test_physiological_rmw;
    Alcotest.test_case "physiological blind op" `Quick test_physiological_blind;
    Alcotest.test_case "multi split op" `Quick test_multi_split;
    Alcotest.test_case "logical op" `Quick test_logical_op;
    Alcotest.test_case "stable state of disk" `Quick test_stable_state_of_disk;
    Alcotest.test_case "op id format" `Quick test_op_id_format;
    Util.qtest ~count:30 "projection replay matches the store" prop_projection_replay_matches_store;
  ]
