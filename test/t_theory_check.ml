(* The recovery checker itself: it must accept correct systems (covered
   by the simulator suites) and reject broken ones. Each test here
   builds a projection with a specific, deliberate defect. *)

open Redo_core
open Redo_storage
open Redo_methods

let lsn = Lsn.of_int

let page_op ~l ~pid op = Projection.physiological_op ~lsn:(lsn l) ~pid op

(* Two RMW increments on page 0 and a blind format of page 1. *)
let ops () =
  [
    page_op ~l:1 ~pid:0 (Page_op.Put ("a", "1"));
    page_op ~l:2 ~pid:0 (Page_op.Put ("b", "2"));
    page_op ~l:3 ~pid:1 (Page_op.Init_leaf [ "z", "9" ]);
  ]

let universe = [ 0; 1 ]

let page l data = Page.to_value (Page.make ~lsn:(lsn l) data)

let stable_after_none () = Projection.initial_state ~lsn_values:true universe

let projection ~stable ~redo_ids =
  Projection.make ~method_name:"test" ~lsn_values:true ~universe ~ops:(ops ()) ~stable
    ~redo_ids

let test_accepts_redo_everything () =
  let report = Theory_check.check (projection ~stable:(stable_after_none ()) ~redo_ids:[ "op000001"; "op000002"; "op000003" ]) in
  Alcotest.(check (option string)) "ok" None report.Theory_check.failure

let test_accepts_lsn_consistent_prefix () =
  (* Page 0 flushed after op 1: the redo test skips op 1 only. *)
  let stable =
    State.set (stable_after_none ()) (Var.page 0) (page 1 (Util.kv [ "a", "1" ]))
  in
  let report =
    Theory_check.check (projection ~stable ~redo_ids:[ "op000002"; "op000003" ])
  in
  Alcotest.(check (option string)) "ok" None report.Theory_check.failure

let test_rejects_non_prefix () =
  (* Claiming op 2 installed while op 1 is not: ops 1 and 2 are a
     write-write/rmw chain on page 0, so {op2} is not a prefix. *)
  let stable =
    State.set (stable_after_none ()) (Var.page 0) (page 2 (Util.kv [ "b", "2" ]))
  in
  let report = Theory_check.check (projection ~stable ~redo_ids:[ "op000001"; "op000003" ]) in
  Alcotest.(check bool) "rejected" true (report.Theory_check.failure <> None);
  Alcotest.(check bool) "prefix check failed" false report.Theory_check.installed_is_prefix

let test_rejects_wrong_exposed_value () =
  (* The redo test claims op 1 installed, but the stable page does not
     contain op 1's effect — and op 2 (uninstalled) reads the page. *)
  let report =
    Theory_check.check
      (projection ~stable:(stable_after_none ()) ~redo_ids:[ "op000002"; "op000003" ])
  in
  Alcotest.(check bool) "rejected" true (report.Theory_check.failure <> None);
  Alcotest.(check bool) "explanation failed" false report.Theory_check.state_explained;
  (* The diagnosis names the damaged page and the operation that would
     read it. *)
  Alcotest.(check int) "one diagnosed variable" 1 (List.length report.Theory_check.diagnosis);
  let line = List.hd report.Theory_check.diagnosis in
  let contains needle =
    let nl = String.length needle and hl = String.length line in
    let rec go i = i + nl <= hl && (String.sub line i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("mentions pg:0 in: " ^ line) true (contains "pg:0");
  Alcotest.(check bool) ("mentions op000002 in: " ^ line) true (contains "op000002")

let test_accepts_garbage_in_unexposed_page () =
  (* Page 1 is blindly formatted by op 3; while op 3 is in the redo set
     the page is unexposed and may contain anything. *)
  let stable =
    State.set (stable_after_none ()) (Var.page 1) (Value.Str "utter garbage")
  in
  let report =
    Theory_check.check
      (projection ~stable ~redo_ids:[ "op000001"; "op000002"; "op000003" ])
  in
  Alcotest.(check (option string)) "garbage tolerated" None report.Theory_check.failure

let test_rejects_garbage_in_exposed_page () =
  (* Same garbage, but now the redo test also skips op 3: page 1 becomes
     exposed and must hold op 3's value. *)
  let stable =
    State.set (stable_after_none ()) (Var.page 1) (Value.Str "utter garbage")
  in
  let report =
    Theory_check.check (projection ~stable ~redo_ids:[ "op000001"; "op000002" ])
  in
  Alcotest.(check bool) "rejected" true (report.Theory_check.failure <> None)

let test_report_counts () =
  let report =
    Theory_check.check
      (projection ~stable:(stable_after_none ()) ~redo_ids:[ "op000001"; "op000002"; "op000003" ])
  in
  Alcotest.(check int) "ops" 3 report.Theory_check.op_count;
  Alcotest.(check int) "installed" 0 report.Theory_check.installed_count;
  Alcotest.(check int) "redo" 3 report.Theory_check.redo_count

let test_sharded_leg_runs () =
  (* The sharded-horizon leg runs on every check — even sequential ones
     — and audits the per-shard replays it drives. *)
  let check_at domains =
    let report =
      Theory_check.check ~domains
        (projection
           ~stable:
             (State.set (stable_after_none ()) (Var.page 0) (page 1 (Util.kv [ "a", "1" ])))
           ~redo_ids:[ "op000002"; "op000003" ])
    in
    Alcotest.(check (option string)) "ok" None report.Theory_check.failure;
    Alcotest.(check bool) "sharded leg agrees" true report.Theory_check.sharded_agrees;
    (* Ops 2 and 3 replay, each inside an audited shard. *)
    Alcotest.(check int) "sharded iterations audited" 2 report.Theory_check.sharded_audited
  in
  check_at 1;
  check_at 2

let test_sharded_leg_in_failed_reports () =
  (* A rejected projection fails before (or regardless of) the sharded
     leg; the report's sharded fields must still be coherent. *)
  let stable =
    State.set (stable_after_none ()) (Var.page 0) (page 2 (Util.kv [ "b", "2" ]))
  in
  let report = Theory_check.check (projection ~stable ~redo_ids:[ "op000001"; "op000003" ]) in
  Alcotest.(check bool) "rejected" true (report.Theory_check.failure <> None);
  Alcotest.(check bool) "not ok" false (Theory_check.ok report)

let suite =
  [
    Alcotest.test_case "accepts redo-everything" `Quick test_accepts_redo_everything;
    Alcotest.test_case "accepts LSN-consistent prefix" `Quick test_accepts_lsn_consistent_prefix;
    Alcotest.test_case "rejects non-prefix installed set" `Quick test_rejects_non_prefix;
    Alcotest.test_case "rejects missing exposed value" `Quick test_rejects_wrong_exposed_value;
    Alcotest.test_case "tolerates garbage in unexposed page" `Quick
      test_accepts_garbage_in_unexposed_page;
    Alcotest.test_case "rejects garbage in exposed page" `Quick
      test_rejects_garbage_in_exposed_page;
    Alcotest.test_case "report counts" `Quick test_report_counts;
    Alcotest.test_case "sharded-horizon leg runs every check" `Quick test_sharded_leg_runs;
    Alcotest.test_case "sharded fields coherent on failure" `Quick
      test_sharded_leg_in_failed_reports;
  ]
