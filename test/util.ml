(* Shared helpers for the test suites. *)

open Redo_core

let ids = Digraph.Node_set.of_list

let check_ids = Alcotest.(check (list string))

let set_elements s = Digraph.Node_set.elements s

let check_set msg expected actual =
  check_ids msg expected (set_elements actual)

let check_var_set msg expected actual =
  Alcotest.(check (list string)) msg expected (Var.Set.elements actual)

let state_testable universe =
  let pp ppf s = State.pp ppf (State.restrict s universe) in
  Alcotest.testable pp (State.equal_on universe)

let check_state ~universe msg expected actual =
  Alcotest.check (state_testable universe) msg expected actual

let check_value msg expected actual =
  Alcotest.check (Alcotest.testable Value.pp Value.equal) msg expected actual

let cg_of exec = Conflict_graph.of_exec exec

(* Run a qcheck property over deterministic seeds. *)
let qtest ?(count = 100) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make (QCheck.Gen.int_bound 1_000_000)) prop)

(* The master cells a run wrote to [medium], newest first: call after
   every step that may force a checkpoint. *)
let track_masters medium masters =
  let m = Redo_wal.Stable_log.master medium in
  match !masters with
  | latest :: _ when latest = m -> ()
  | _ -> masters := m :: !masters

(* A master a crash between a checkpoint's force and the master write
   could leave behind: an older one, or none. *)
let pick_stale rng masters =
  let older = match masters with _current :: older -> older | [] -> [] in
  let choices = None :: List.filter Option.is_some older in
  List.nth choices (Random.State.int rng (List.length choices))

let x = Scenario.x
let y = Scenario.y
