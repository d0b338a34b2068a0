open Redo_storage
open Redo_wal

let name = "physical"

type t = {
  disk : Disk.t;
  cache : Cache.t;
  log : Log_manager.t;
  partitions : int;
  checkpoint_flushes : bool;
  mutable op_first_lsns : Lsn.t list;  (* newest first *)
}

let create ?(cache_capacity = 64) ?(partitions = 8) () =
  let disk = Disk.create () in
  let log = Log_manager.create () in
  let cache =
    (* Write-ahead: a page image may reach the disk only after the log
       records explaining it are stable. *)
    Cache.create ~capacity:cache_capacity
      ~before_flush:(fun page -> Log_manager.force log ~upto:(Page.lsn page))
      disk
  in
  { disk; cache; log; partitions; checkpoint_flushes = true; op_first_lsns = [] }

(* Fault injection: cut the log at a checkpoint WITHOUT installing the
   dirty pages first. Operations before the checkpoint are then neither
   replayed nor (necessarily) in the stable state. *)
let create_no_flush ?(cache_capacity = 64) ?(partitions = 8) () =
  { (create ~cache_capacity ~partitions ()) with checkpoint_flushes = false }

let locate t key = Kv_layout.locate ~partitions:t.partitions key

let page_entries t pid =
  match Page.data (Cache.read t.cache pid) with
  | Page.Kv entries -> entries
  | Page.Empty -> Page.Entries.empty
  | data -> invalid_arg (Fmt.str "physical: unexpected payload %a" Page.pp_data data)

(* Physical logging records the full after-image: compute the new page
   contents, log them, then update the cache. *)
let apply_kv t key op =
  let pid = locate t key in
  let image = Page_op.apply op (Page.Kv (page_entries t pid)) in
  let lsn = Log_manager.append t.log (Record.Physical { pid; image }) in
  t.op_first_lsns <- lsn :: t.op_first_lsns;
  Cache.update t.cache pid ~lsn (fun _ -> image)

let put t key value = apply_kv t key (Page_op.Put (key, value))
let delete t key = apply_kv t key (Page_op.Del key)

let get t key = Page.Entries.find key (page_entries t (locate t key))

(* "All operations logged since a last checkpoint record on the log are
   replayed during recovery" — so the checkpoint must first install
   everything before it: flush all dirty pages, then cut the log. *)
let checkpoint t =
  if t.checkpoint_flushes then Cache.flush_all t.cache;
  let lsn = Log_manager.append t.log (Record.Checkpoint { dirty_pages = []; note = name }) in
  Log_manager.force t.log ~upto:lsn

(* Sharded install, same promise: every write-graph component lands (in
   parallel), each under its own horizon record, before the global cut.
   The no-flush fault skips the install exactly as it skips the
   flush-all — the log is still cut, the bug still injected. *)
let checkpoint_sharded ?pool ~domains t =
  let report =
    if t.checkpoint_flushes then
      Redo_ckpt.Installer.install ?pool ~domains
        ~before_install:(fun upto -> Log_manager.force t.log ~upto)
        ~note:name t.cache t.log
    else { Redo_ckpt.Installer.components = 0; pages_installed = 0; records = [] }
  in
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

(* Is [lsn]'s effect on [pid] already claimed installed by a stable
   per-shard horizon? Physical redo is blind, so this is the only thing
   standing between a surviving shard record and a full-prefix replay
   when the global checkpoint's record was torn off. Sound because
   physical operations are single-page and write-only: the installed
   image is the newest record's after-image for that page, and any
   later (uncovered) record overwrites it wholesale. *)
let horizon_covers horizons pid lsn =
  match List.assoc_opt pid horizons with
  | Some h -> Lsn.(lsn <= h)
  | None -> false

let recover t =
  let horizons = Log_manager.stable_shard_horizons t.log in
  let stats = ref { Method_intf.scanned = 0; redone = 0; skipped = 0; analysis_scanned = 0 } in
  List.iter
    (fun r ->
      stats := { !stats with Method_intf.scanned = !stats.Method_intf.scanned + 1 };
      match Record.payload r with
      | Record.Physical { pid; image } ->
        if horizon_covers horizons pid (Record.lsn r) then
          stats := { !stats with Method_intf.skipped = !stats.Method_intf.skipped + 1 }
        else begin
          Cache.set_page t.cache pid (Page.make ~lsn:(Record.lsn r) image);
          stats := { !stats with Method_intf.redone = !stats.Method_intf.redone + 1 }
        end
      | Record.Checkpoint _ | Record.Shard_checkpoint _ -> ()
      | payload ->
        invalid_arg (Fmt.str "physical recovery: unexpected record %a" Record.pp_payload payload))
    (Log_manager.records_from t.log ~from:(Redo_restart.Page_redo.scan_start t.log));
  !stats

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
  let universe = Kv_layout.universe ~partitions:t.partitions in
  let start = Redo_restart.Page_redo.scan_start t.log in
  (* The redo set must mirror the actual scan, including its per-shard
     horizon skips — a blind-redo method's projection is only honest if
     every skip the scan performs is declared here. *)
  let horizons = Log_manager.stable_shard_horizons t.log in
  let ops, redo_ids =
    List.fold_left
      (fun (ops, redo) r ->
        match Record.payload r with
        | Record.Physical { pid; image } ->
          let op = Projection.physical_op ~lsn:(Record.lsn r) ~pid image in
          let redo =
            if
              Lsn.(start <= Record.lsn r)
              && not (horizon_covers horizons pid (Record.lsn r))
            then Projection.op_id (Record.lsn r) :: redo
            else redo
          in
          op :: ops, redo
        | _ -> ops, redo)
      ([], [])
      (Log_manager.stable_records t.log)
  in
  Projection.make ~method_name:name ~lsn_values:true ~universe ~ops:(List.rev ops)
    ~stable:(Projection.stable_state_of_disk ~lsn_values:true t.disk universe)
    ~redo_ids:(List.rev redo_ids)
