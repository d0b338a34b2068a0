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

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Page payloads from binding lists. *)
let kv bindings = Redo_storage.Page.Kv (Redo_storage.Page.Entries.of_bindings bindings)
let leaf bindings = Redo_storage.Page.(Node (Leaf (Entries.of_bindings bindings)))

(* Run a qcheck property over deterministic seeds. *)
let qtest ?(count = 100) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make (QCheck.Gen.int_bound 1_000_000)) prop)

(* Wrap a test so that it also fails unless, across all its runs,
   synchronous shard calls took both of [Mailbox.run]'s paths: in the
   caller (an idle shard) and through the owner's queue. *)
let takes_both_paths (name, speed, run) =
  let count n = Redo_obs.Metrics.(count (counter n)) in
  let test () =
    let inline0 = count "mailbox.runs_inline" and queued0 = count "mailbox.runs_queued" in
    run ();
    Alcotest.(check bool) "some synchronous calls ran inline" true
      (count "mailbox.runs_inline" > inline0);
    Alcotest.(check bool) "some synchronous calls were queued" true
      (count "mailbox.runs_queued" > queued0)
  in
  name, speed, test

(* Run [f], and end the whole test run if it has not returned within
   [seconds]: a regression that blocks forever then fails the suite
   instead of hanging it. The watchdog domain exits the process without
   running [at_exit] handlers, which could block on the stuck work. *)
let with_timeout ~seconds name f =
  let finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        if not (Atomic.get finished) then begin
          Printf.eprintf "TIMEOUT: %s did not finish within %.0f s\n%!" name seconds;
          Unix._exit 124
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join watchdog)
    f

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
