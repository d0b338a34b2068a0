open Redo_storage
open Redo_wal
module Page_redo = Redo_restart.Page_redo

let name = "physiological"

type t = {
  disk : Disk.t;
  cache : Cache.t;
  log : Log_manager.t;
  partitions : int;
  wal : bool;
  mutable op_first_lsns : Lsn.t list;
}

let make ~wal ~cache_capacity ~partitions =
  let disk = Disk.create () in
  let log = Log_manager.create () in
  let before_flush page = if wal then Log_manager.force log ~upto:(Page.lsn page) in
  let cache = Cache.create ~capacity:cache_capacity ~before_flush disk in
  { disk; cache; log; partitions; wal; op_first_lsns = [] }

let create ?(cache_capacity = 64) ?(partitions = 8) () =
  make ~wal:true ~cache_capacity ~partitions

(* Fault injection: skip the write-ahead-log force before page flushes.
   Pages can then reach the disk carrying effects of operations whose
   records are lost at a crash - the stable state is unexplainable by
   the stable log, which the theory checker detects. *)
let create_no_wal ?(cache_capacity = 64) ?(partitions = 8) () =
  make ~wal:false ~cache_capacity ~partitions

let locate t key = Kv_layout.locate ~partitions:t.partitions key

let page_entries t pid =
  match Page.data (Cache.read t.cache pid) with
  | Page.Kv entries -> entries
  | Page.Empty -> Page.Entries.empty
  | data -> invalid_arg (Fmt.str "physiological: unexpected payload %a" Page.pp_data data)

(* Physiological logging records the operation, not the image: log
   first (assigning the LSN), then update the page and stamp it. *)
let apply_kv t key op =
  let pid = locate t key in
  let lsn = Log_manager.append t.log (Record.Physiological { pid; op }) in
  t.op_first_lsns <- lsn :: t.op_first_lsns;
  Cache.update t.cache pid ~lsn (Page_op.apply op)

let put t key value = apply_kv t key (Page_op.Put (key, value))
let delete t key = apply_kv t key (Page_op.Del key)
let get t key = Page.Entries.find key (page_entries t (locate t key))

(* A fuzzy checkpoint: no page is flushed; the record carries the dirty
   page table so the redo scan can start at the oldest recLSN. *)
let checkpoint t =
  let dirty_pages =
    List.filter_map
      (fun pid -> Option.map (fun l -> pid, l) (Cache.rec_lsn t.cache pid))
      (Cache.dirty_pages t.cache)
  in
  let lsn = Log_manager.append t.log (Record.Checkpoint { dirty_pages; note = name }) in
  Log_manager.force t.log ~upto:lsn

(* Sharded install before the fuzzy record: components land in parallel
   under per-shard horizons, so the summary checkpoint that follows
   carries an empty dirty-page table (the best fuzzy checkpoint there
   is). The no-wal fault omits the write-ahead force exactly as it does
   on the flush path — installed pages can then outrun the stable log,
   which the theory checker catches. *)
let checkpoint_sharded ?pool ~domains t =
  let before_install upto = if t.wal then Log_manager.force t.log ~upto in
  let report = Redo_ckpt.Installer.install ?pool ~domains ~before_install ~note:name t.cache t.log in
  checkpoint t;
  {
    Method_intf.ckpt_components = report.Redo_ckpt.Installer.components;
    ckpt_pages = report.Redo_ckpt.Installer.pages_installed;
  }

let flush_some t rng =
  match Cache.dirty_pages t.cache with
  | [] -> ()
  | dirty -> Cache.flush_page t.cache (List.nth dirty (Random.State.int rng (List.length dirty)))

let sync t = Log_manager.force_all t.log

let after_crash t =
  Cache.drop_volatile t.cache;
  (* LSNs above the stable horizon will be reassigned to future records:
     forget the lost operations' bookkeeping. *)
  let flushed = Log_manager.flushed_lsn t.log in
  t.op_first_lsns <- List.filter (fun l -> Lsn.(l <= flushed)) t.op_first_lsns

let crash t =
  Log_manager.crash t.log;
  after_crash t

let crash_torn t ~drop =
  Log_manager.crash_torn t.log ~drop;
  after_crash t

(* The analysis phase (Section 4.3) rebuilds the dirty-page table; the
   redo pass then starts at its oldest recLSN, skips records the table
   or a per-shard horizon proves are on disk without fetching the page
   or decoding the record, and falls back to the LSN redo test of
   Section 6.3: "If the page LSN is at least as high as the operation's
   LSN, then the operation is already installed and is bypassed during
   recovery." Every record touches one page, so the pages' redo tails
   replay in any order (Theorem 3): one drain per page, one test per
   drain. *)
let recover t =
  let a = Page_redo.analyze t.log ~pages:t.partitions in
  let first, last = Page_redo.slice a in
  let queues, preskipped = Page_redo.queues a in
  let redone = ref 0 and skipped = ref preskipped in
  Array.iteri
    (fun pid q ->
      let r, k = Page_redo.drain a t.cache ~pid q in
      redone := !redone + r;
      skipped := !skipped + k)
    queues;
  {
    Method_intf.scanned = Int.max 0 (Lsn.to_int last - Lsn.to_int first + 1);
    redone = !redone;
    skipped = !skipped;
    analysis_scanned = Page_redo.analysis_scanned a;
  }

let dump t =
  Kv_layout.universe ~partitions:t.partitions
  |> List.map (fun pid -> Page.Entries.bindings (page_entries t pid))
  |> Kv_layout.merge_dumps

let durable_ops t =
  let flushed = Log_manager.flushed_lsn t.log in
  List.length (List.filter (fun l -> Lsn.(l <= flushed)) t.op_first_lsns)

let log_stats t = Log_manager.stats t.log
let log t = t.log

let projection t =
  Projection.page_lsn ~method_name:name
    ~universe:(Kv_layout.universe ~partitions:t.partitions)
    ~disk:t.disk t.log
