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
   above it). The analysis reads only peeked page ids; the view it keeps
   decodes a record when a replay asks for it. *)
type t = {
  view : Log_manager.view;
  dpt : Lsn.t option array;
  horizons : Lsn.t array;
  redo_start : Lsn.t;
  analysis_scanned : int;
}

let analyze log ~pages =
  let ckpt_lsn, dpt0 =
    match Log_manager.last_stable_checkpoint log with
    | None -> Lsn.zero, []
    | Some (lsn, { Record.dirty_pages; _ }) -> lsn, dirty_pages
  in
  (* Taken after the checkpoint is found, so it holds the checkpoint and
     everything stable after it. *)
  let view = Log_manager.view log in
  let last = Lsn.to_int (Log_manager.view_last view) in
  let tail_start = Lsn.next ckpt_lsn in
  let dpt = Array.make pages None in
  let in_range pid lsn =
    if pid >= pages then
      invalid_arg (Printf.sprintf "Page_redo.analyze: page %d of LSN %d is out of range" pid lsn)
  in
  List.iter
    (fun (pid, rec_lsn) ->
      in_range pid (Lsn.to_int ckpt_lsn);
      dpt.(pid) <- Some rec_lsn)
    dpt0;
  for i = Lsn.to_int tail_start to last do
    let pid = Log_manager.view_pid view (Lsn.of_int i) in
    if pid >= 0 then begin
      in_range pid i;
      if dpt.(pid) = None then dpt.(pid) <- Some (Lsn.of_int i)
    end
  done;
  let redo_start =
    Array.fold_left
      (fun acc entry -> match entry with Some rec_lsn -> min acc rec_lsn | None -> acc)
      tail_start dpt
  in
  let horizons = Array.make pages Lsn.zero in
  List.iter
    (fun (pid, h) -> horizons.(pid) <- h)
    (Log_manager.stable_shard_horizons ~after:redo_start log);
  { view; dpt; horizons; redo_start; analysis_scanned = Int.max 0 (last - Lsn.to_int ckpt_lsn) }

let redo_start a = a.redo_start
let analysis_scanned a = a.analysis_scanned
let slice a = a.redo_start, Log_manager.view_last a.view

(* The page a slice record touches, from its frame header: -1 for a
   checkpoint record; any other non-page record is not for this path. *)
let page a lsn =
  let pid = Log_manager.view_pid a.view lsn in
  if pid >= 0 then pid
  else
    match Log_manager.view_kind a.view lsn with
    | Codec.Checkpoint | Codec.Shard_checkpoint -> -1
    | Codec.Op ->
      invalid_arg
        (Fmt.str "Page_redo: unexpected record in the redo slice: %a" Record.pp
           (Log_manager.view_record a.view lsn))

let record a lsn = Log_manager.view_record a.view lsn

(* Runs once per slice record on the open path: the LSNs compare as the
   ints they are. *)
let surely_on_disk a ~pid ~(lsn : Lsn.t) =
  (lsn :> int) <= (a.horizons.(pid) :> int)
  ||
  match a.dpt.(pid) with
  | None -> true (* clean at the crash: all its updates were flushed *)
  | Some rec_lsn -> (lsn :> int) < (rec_lsn :> int)

let redo_pages a =
  let first, last = slice a in
  let first = Lsn.to_int first and last = Lsn.to_int last in
  let pages = Array.make (Int.max 0 (last - first + 1)) (-1) in
  let preskipped = ref 0 in
  for i = first to last do
    let lsn = Lsn.of_int i in
    let pid = page a lsn in
    if pid >= 0 then
      if surely_on_disk a ~pid ~lsn then incr preskipped else pages.(i - first) <- pid
  done;
  pages, !preskipped

let redo_one cache ~pid ~lsn update arg =
  let stale = Lsn.(Page.lsn (Cache.read cache pid) < lsn) in
  if stale then Cache.update cache pid ~lsn (update arg);
  stale
