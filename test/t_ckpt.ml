(* The checkpoint installer: write-graph assembly, careful order inside
   a component, hottest-first installation, per-shard horizon records,
   and sequential/parallel equivalence. *)

open Redo_storage
open Redo_wal
open Redo_ckpt

let lsn n = Lsn.of_int n

(* A cache with [pages] dirtied at the given LSNs and [orders] as
   careful-write-order edges. *)
let make_cache ?(capacity = 64) ?before_flush pages orders =
  let disk = Disk.create () in
  let cache = Cache.create ~capacity ?before_flush disk in
  List.iter
    (fun (pid, at) ->
      Cache.update cache pid ~lsn:(lsn at) (fun _ ->
          Page.Bytes (Printf.sprintf "p%d@%d" pid at)))
    pages;
  List.iter (fun (first, next) -> Cache.add_flush_order cache ~first ~next) orders;
  disk, cache

let comp_pages (c : Installer.component) = c.Installer.pages

let test_plan_empty () =
  let _, cache = make_cache [] [] in
  Alcotest.(check int) "no dirty pages, no components" 0 (List.length (Installer.plan cache))

let test_plan_components () =
  (* Three components: the chain 7->8->9, the pair 1->2, the singleton
     5. Hottest (most pages) first. *)
  let _, cache =
    make_cache
      [ 1, 10; 2, 11; 5, 12; 7, 13; 8, 14; 9, 15 ]
      [ 1, 2; 7, 8; 8, 9 ]
  in
  let comps = Installer.plan cache in
  Alcotest.(check (list (list int)))
    "components, hottest first"
    [ [ 7; 8; 9 ]; [ 1; 2 ]; [ 5 ] ]
    (List.map comp_pages comps);
  (* The batch respects the careful order. *)
  let chain = List.hd comps in
  Alcotest.(check (list int))
    "careful order inside the chain" [ 7; 8; 9 ]
    (List.map fst chain.Installer.batch);
  Alcotest.(check int) "chain max page lsn" 15 (Lsn.to_int chain.Installer.max_page_lsn);
  Alcotest.(check int) "chain min rec lsn" 13 (Lsn.to_int chain.Installer.min_rec_lsn)

let test_plan_reversed_edge_order () =
  (* The edge points from the numerically larger page: careful order
     must follow the edge, not the page ids. *)
  let _, cache = make_cache [ 3, 1; 9, 2 ] [ 9, 3 ] in
  match Installer.plan cache with
  | [ c ] ->
    Alcotest.(check (list int)) "edge order wins" [ 9; 3 ] (List.map fst c.Installer.batch)
  | comps -> Alcotest.failf "expected one component, got %d" (List.length comps)

let test_plan_clean_endpoint_edges () =
  (* An order edge to a clean page is already collapsed: it must not
     merge components (or crash the planner). *)
  let _, cache = make_cache [ 1, 1; 2, 2 ] [ 1, 99; 42, 2 ] in
  let comps = Installer.plan cache in
  Alcotest.(check (list (list int)))
    "two singletons despite clean-endpoint edges"
    [ [ 1 ]; [ 2 ] ]
    (List.map comp_pages comps)

let test_plan_cycle () =
  let _, cache = make_cache [ 1, 1; 2, 2 ] [ 1, 2; 2, 1 ] in
  match Installer.plan cache with
  | exception Cache.Flush_cycle _ -> ()
  | _ -> Alcotest.fail "expected Flush_cycle"

let install_and_verify ~domains () =
  let log = Log_manager.create () in
  let _, cache =
    make_cache
      [ 1, 1; 2, 2; 5, 3; 7, 4; 8, 5; 9, 6 ]
      [ 1, 2; 7, 8; 8, 9 ]
  in
  let disk = Cache.disk cache in
  let images =
    List.map (fun pid -> pid, Option.get (Cache.peek cache pid)) (Cache.dirty_pages cache)
  in
  let forced_upto = ref Lsn.zero in
  let report =
    Installer.install ~domains ~before_install:(fun upto -> forced_upto := upto) cache log
  in
  Alcotest.(check int) "components" 3 report.Installer.components;
  Alcotest.(check int) "pages installed" 6 report.Installer.pages_installed;
  Alcotest.(check int) "one shard record per component" 3 (List.length report.Installer.records);
  Alcotest.(check int) "write-ahead hook saw the newest page lsn" 6 (Lsn.to_int !forced_upto);
  Alcotest.(check (list int)) "cache clean afterwards" [] (Cache.dirty_pages cache);
  Alcotest.(check (list (pair int int))) "order edges discharged" [] (Cache.flush_orders cache);
  List.iter
    (fun (pid, page) ->
      Alcotest.(check bool)
        (Printf.sprintf "page %d image on disk" pid)
        true
        (Page.equal page (Disk.read disk pid)))
    images;
  (* The shard records were forced as they were appended, so all of them
     are stable and every dirty page is claimed by exactly one shard. *)
  let shards = List.rev (Log_manager.stable_shard_checkpoints log) in
  Alcotest.(check int) "stable shard records" 3 (List.length shards);
  let claimed =
    List.concat_map (fun (_, sc) -> sc.Record.shard_pages) shards |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "every page claimed once" [ 1; 2; 5; 7; 8; 9 ] claimed;
  (* The log holds only shard records, so each horizon is exactly the
     LSN of the record appended just before it, whatever order the
     components completed in. *)
  ignore
    (List.fold_left
       (fun prev (rec_lsn, sc) ->
         Alcotest.(check int) "horizon is the previous record" (Lsn.to_int prev)
           (Lsn.to_int sc.Record.horizon);
         rec_lsn)
       Lsn.zero shards);
  (* Hottest first: the first-published horizon claims the chain. *)
  (match shards with
  | (_, first) :: _ when domains = 1 ->
    Alcotest.(check (list int)) "chain installed first" [ 7; 8; 9 ] first.Record.shard_pages
  | _ -> ());
  List.map (fun (_, sc) -> sc.Record.shard_pages) shards |> List.sort compare

let test_install_sequential () = ignore (install_and_verify ~domains:1 ())

let test_install_parallel_matches_sequential () =
  let seq = install_and_verify ~domains:1 () in
  let par = install_and_verify ~domains:3 () in
  (* Completion order, and with it each record's horizon, may differ;
     which pages share a shard record cannot. *)
  Alcotest.(check (list (list int))) "same pages in the same shard records" seq par

let test_install_nothing_dirty () =
  let log = Log_manager.create () in
  let _, cache = make_cache [] [] in
  let called = ref false in
  let report =
    Installer.install ~before_install:(fun _ -> called := true) cache log
  in
  Alcotest.(check int) "no components" 0 report.Installer.components;
  Alcotest.(check bool) "write-ahead hook not called" false !called;
  Alcotest.(check int) "no shard records" 0
    (List.length (Log_manager.stable_shard_checkpoints log))

let test_note_installed () =
  let _, cache = make_cache [ 1, 1; 2, 2 ] [ 1, 2 ] in
  Alcotest.(check (list int)) "flush of 2 would drag 1" [ 1 ] (Cache.would_force cache 2);
  Cache.note_installed cache 1;
  Alcotest.(check bool) "1 is clean" false (Cache.is_dirty cache 1);
  Alcotest.(check (list int)) "constraint discharged" [] (Cache.would_force cache 2);
  (* The cached image survives — note_installed is a state change, not
     an eviction. *)
  Alcotest.(check bool) "image still cached" true (Cache.peek cache 1 <> None);
  (* Idempotent; no-op on clean or uncached pages. *)
  Cache.note_installed cache 1;
  Cache.note_installed cache 99;
  Alcotest.(check (list int)) "only 2 remains dirty" [ 2 ] (Cache.dirty_pages cache)

let test_install_piggybacked_records () =
  (* With a group committer attached, the shard records stage through
     force_async instead of buying one force each: zero forces during
     the install, one batched force at the flush — and until that flush
     the records are invisible to [stable_shard_checkpoints] (graded
     durability: no claim is ever made about an unstable record). *)
  let log = Log_manager.create () in
  let gc = Group_commit.create log in
  let _, cache =
    make_cache
      [ 1, 1; 2, 2; 5, 3; 7, 4; 8, 5; 9, 6 ]
      [ 1, 2; 7, 8; 8, 9 ]
  in
  let forces () = (Log_manager.stats log).Log_manager.forces in
  let report =
    Installer.install ~before_install:(fun upto -> Log_manager.force log ~upto) cache log
  in
  Alcotest.(check int) "three shard records appended" 3
    (List.length report.Installer.records);
  (* The before_install hook found an empty log (pages carry LSNs, the
     log does not hold their records in this fixture), so no force at
     all has happened yet. *)
  Alcotest.(check int) "no forces during the install" 0 (forces ());
  Alcotest.(check int) "records staged, not claimed" 0
    (List.length (Log_manager.stable_shard_checkpoints log));
  Group_commit.flush gc;
  Alcotest.(check int) "one batched force for all shards" 1 (forces ());
  Alcotest.(check int) "all shard records stable after the flush" 3
    (List.length (Log_manager.stable_shard_checkpoints log));
  let s = Group_commit.stats gc in
  Alcotest.(check int) "all three piggybacked" 3 s.Group_commit.piggybacked;
  Group_commit.detach gc

let test_install_reports_worker_error () =
  (* A worker exception must surface on the caller, after all components
     have drained (no deadlock, no silent swallow). The before_flush
     hook cannot fail the install (workers bypass the cache), so inject
     through a poisoned disk page id instead: Disk has no failure hook,
     so poison via an order cycle caught at plan time... which raises
     before any domain work. Instead check the sequential error path:
     a Flush_cycle from [plan] propagates out of [install]. *)
  let log = Log_manager.create () in
  let _, cache = make_cache [ 1, 1; 2, 2 ] [ 1, 2; 2, 1 ] in
  match Installer.install ~domains:2 cache log with
  | exception Cache.Flush_cycle _ -> ()
  | _ -> Alcotest.fail "expected Flush_cycle to propagate"

let suite =
  [
    Alcotest.test_case "plan: empty cache" `Quick test_plan_empty;
    Alcotest.test_case "plan: components, hottest first" `Quick test_plan_components;
    Alcotest.test_case "plan: careful order follows edges" `Quick test_plan_reversed_edge_order;
    Alcotest.test_case "plan: clean-endpoint edges collapsed" `Quick test_plan_clean_endpoint_edges;
    Alcotest.test_case "plan: cycle detected" `Quick test_plan_cycle;
    Alcotest.test_case "install: sequential" `Quick test_install_sequential;
    Alcotest.test_case "install: parallel = sequential" `Quick
      test_install_parallel_matches_sequential;
    Alcotest.test_case "install: nothing dirty" `Quick test_install_nothing_dirty;
    Alcotest.test_case "install: shard records piggyback on group commit" `Quick
      test_install_piggybacked_records;
    Alcotest.test_case "note_installed collapses write graph" `Quick test_note_installed;
    Alcotest.test_case "install: planner error propagates" `Quick
      test_install_reports_worker_error;
  ]
