(* The shared page-LSN redo path: the analysis pass, the surely-on-disk
   test and the page-LSN redo test, on a log built by hand so that every
   branch is pinned to a known record. *)

open Redo_storage
open Redo_wal
module Page_redo = Redo_restart.Page_redo

let lsn_t = Alcotest.testable Lsn.pp Lsn.equal

let put pid = Record.Physiological { pid; op = Page_op.Put (Printf.sprintf "k%d" pid, "v") }

(* LSN  record
   1    put page 0
   2    put page 1
   3    put page 2
   4    shard checkpoint: page 2 installed up to LSN 3
   5    checkpoint, DPT = {1 -> 2; 2 -> 3}: both recLSNs predate it,
        page 0 is clean
   6    put page 3
   7    put page 1
   8    put page 3 *)
let hand_log () =
  let log = Log_manager.create () in
  List.iter
    (fun p -> ignore (Log_manager.append log p))
    [
      put 0;
      put 1;
      put 2;
      Record.Shard_checkpoint
        {
          shard_pages = [ 2 ];
          horizon = Lsn.of_int 3;
          shard_index = 0;
          shard_total = 1;
          shard_note = "test";
        };
      Record.Checkpoint
        { dirty_pages = [ 1, Lsn.of_int 2; 2, Lsn.of_int 3 ]; note = "test" };
      put 3;
      put 1;
      put 3;
    ];
  Log_manager.force_all log;
  log

(* A checkpoint whose dirty-page table holds recLSNs older than the
   checkpoint: redo starts at the oldest of them, the slice reaches back
   to it, but the analysis itself reads only the records after the
   checkpoint. *)
let test_analysis_old_rec_lsn () =
  let log = hand_log () in
  let a = Page_redo.analyze log ~pages:4 in
  Alcotest.check lsn_t "redo starts at the oldest recLSN" (Lsn.of_int 2) (Page_redo.redo_start a);
  Alcotest.check lsn_t "scan_start agrees" (Lsn.of_int 2) (Page_redo.scan_start log);
  Alcotest.(check (list int))
    "the slice runs from the recLSN to the end" [ 2; 3; 4; 5; 6; 7; 8 ]
    (let first, last = Page_redo.slice a in
     List.init (Lsn.to_int last - Lsn.to_int first + 1) (fun i -> Lsn.to_int first + i));
  Alcotest.(check int) "analysis reads only records after the checkpoint" 3
    (Page_redo.analysis_scanned a)

let test_surely_on_disk () =
  let a = Page_redo.analyze (hand_log ()) ~pages:4 in
  let check msg expected pid lsn =
    Alcotest.(check bool) msg expected (Page_redo.surely_on_disk a ~pid ~lsn:(Lsn.of_int lsn))
  in
  check "a horizon covers the LSN (at the page's recLSN)" true 2 3;
  check "page absent from the DPT" true 0 1;
  check "page absent from the DPT, LSN after the checkpoint" true 0 7;
  check "LSN below the recLSN from the checkpoint" true 1 1;
  check "LSN below the recLSN found by the analysis" true 3 5;
  check "LSN at the recLSN" false 1 2;
  check "LSN at a recLSN found by the analysis" false 3 6;
  check "LSN above the recLSN" false 1 7;
  check "LSN above the horizon" false 2 4

let test_scan_start_without_table () =
  Alcotest.check lsn_t "no checkpoint: from the first record" (Lsn.of_int 1)
    (Page_redo.scan_start (Log_manager.create ()));
  let log = Log_manager.create () in
  ignore (Log_manager.append log (put 0));
  ignore (Log_manager.append log (Record.Checkpoint { dirty_pages = []; note = "test" }));
  Log_manager.force_all log;
  Alcotest.check lsn_t "empty table: the record after the checkpoint" (Lsn.of_int 3)
    (Page_redo.scan_start log);
  let a = Page_redo.analyze log ~pages:1 in
  let first, last = Page_redo.slice a in
  Alcotest.(check int) "empty tail" 0 (max 0 (Lsn.to_int last - Lsn.to_int first + 1))

let test_redo_one () =
  let cache = Cache.create ~capacity:4 (Disk.create ()) in
  Cache.update cache 0 ~lsn:(Lsn.of_int 5) (fun _ -> Page.Bytes "five");
  let apply s _ = Page.Bytes s in
  Alcotest.(check bool) "page LSN equal: bypassed" false
    (Page_redo.redo_one cache ~pid:0 ~lsn:(Lsn.of_int 5) apply "new");
  Alcotest.(check bool) "page LSN higher: bypassed" false
    (Page_redo.redo_one cache ~pid:0 ~lsn:(Lsn.of_int 4) apply "new");
  Alcotest.(check bool) "untouched" true (Page.data (Cache.read cache 0) = Page.Bytes "five");
  Alcotest.(check bool) "page LSN lower: redone" true
    (Page_redo.redo_one cache ~pid:0 ~lsn:(Lsn.of_int 6) apply "new");
  let page = Cache.read cache 0 in
  Alcotest.check lsn_t "stamped with the record's LSN" (Lsn.of_int 6) (Page.lsn page);
  Alcotest.(check bool) "update applied" true (Page.data page = Page.Bytes "new")

let suite =
  [
    Alcotest.test_case "analysis: DPT recLSN older than the checkpoint" `Quick
      test_analysis_old_rec_lsn;
    Alcotest.test_case "surely_on_disk: every branch" `Quick test_surely_on_disk;
    Alcotest.test_case "scan_start without an older recLSN" `Quick
      test_scan_start_without_table;
    Alcotest.test_case "redo_one: the page-LSN test" `Quick test_redo_one;
  ]
