open Redo_storage
open Redo_wal

let scan_start log =
  match Log_manager.last_stable_checkpoint log with
  | None -> Lsn.of_int 1
  | Some (ckpt_lsn, { Record.dirty_pages; _ }) ->
    List.fold_left (fun acc (_, rec_lsn) -> min acc rec_lsn) (Lsn.next ckpt_lsn) dirty_pages

(* The dirty-page table and the horizons are pid-indexed arrays: the
   page universe is dense and known, and the surely-on-disk test runs
   once per scanned record on the restart open path, where a hash lookup
   per record is the difference between opening in milliseconds and
   tens of them. [Lsn.zero] = no horizon (every real record's LSN is
   above it). *)
type t = {
  dpt : Lsn.t option array;
  horizons : Lsn.t array;
  redo_start : Lsn.t;
  analysis_scanned : int;
  slice : Record.t list;
}

let analyze log ~pages =
  let ckpt_lsn, dpt0 =
    match Log_manager.last_stable_checkpoint log with
    | None -> Lsn.zero, []
    | Some (lsn, { Record.dirty_pages; _ }) -> lsn, dirty_pages
  in
  let tail_start = Lsn.next ckpt_lsn in
  let dpt = Array.make pages None in
  List.iter (fun (pid, rec_lsn) -> dpt.(pid) <- Some rec_lsn) dpt0;
  let tail = Log_manager.records_from log ~from:tail_start in
  let scanned = ref 0 in
  List.iter
    (fun r ->
      incr scanned;
      match Record.payload r with
      | Record.Physiological { pid; _ } ->
        if dpt.(pid) = None then dpt.(pid) <- Some (Record.lsn r)
      | _ -> ())
    tail;
  let redo_start =
    Array.fold_left
      (fun acc entry -> match entry with Some rec_lsn -> min acc rec_lsn | None -> acc)
      tail_start dpt
  in
  let horizons = Array.make pages Lsn.zero in
  List.iter (fun (pid, h) -> horizons.(pid) <- h) (Log_manager.stable_shard_horizons log);
  (* The redo slice extends the analysis tail down to the oldest recLSN
     — identical to the tail when the checkpoint's dirty-page table
     holds nothing older (the common case), so reuse it rather than
     walking the log a second time. *)
  let slice =
    if Lsn.(tail_start <= redo_start) then tail
    else Log_manager.records_from log ~from:redo_start
  in
  { dpt; horizons; redo_start; analysis_scanned = !scanned; slice }

let redo_start a = a.redo_start
let analysis_scanned a = a.analysis_scanned
let slice a = a.slice

let surely_on_disk a ~pid ~lsn =
  Lsn.(lsn <= a.horizons.(pid))
  ||
  match a.dpt.(pid) with
  | None -> true (* clean at the crash: all its updates were flushed *)
  | Some rec_lsn -> Lsn.(lsn < rec_lsn)

let redo_one cache ~pid ~lsn update arg =
  let stale = Lsn.(Page.lsn (Cache.read cache pid) < lsn) in
  if stale then Cache.update cache pid ~lsn (update arg);
  stale
