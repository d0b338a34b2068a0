open Redo_storage
open Redo_wal

let name = "logical"

(* System R style (Section 6.1): the stable database is a snapshot only
   replaced wholesale by a checkpoint's "pointer swing"; between
   checkpoints, updates live in volatile memory and in the log. *)
type t = {
  checkpoint_forces : bool;
  mutable stable_db : Disk.t;
  volatile : (string, string) Hashtbl.t;
  touched : (int, unit) Hashtbl.t;  (* partitions some operation ever targeted *)
  log : Log_manager.t;
  partitions : int;
  mutable op_first_lsns : Lsn.t list;
}

let create ?cache_capacity:_ ?(partitions = 8) () =
  {
    checkpoint_forces = true;
    stable_db = Disk.create ();
    volatile = Hashtbl.create 64;
    touched = Hashtbl.create 8;
    log = Log_manager.create ();
    partitions;
    op_first_lsns = [];
  }

(* Fault injection: swing the pointer without forcing the log. If the
   tail is lost at a crash, the installed snapshot contains operations
   the stable log has never heard of. *)
let create_no_force ?cache_capacity ?partitions () =
  { (create ?cache_capacity ?partitions ()) with checkpoint_forces = false }

let locate t key = Kv_layout.locate ~partitions:t.partitions key

let apply_db_op volatile = function
  | Record.Db_put (k, v) -> Hashtbl.replace volatile k v
  | Record.Db_del k -> Hashtbl.remove volatile k

let log_and_apply t db_op =
  let lsn = Log_manager.append t.log (Record.Logical db_op) in
  t.op_first_lsns <- lsn :: t.op_first_lsns;
  (match db_op with
  | Record.Db_put (k, _) | Record.Db_del k -> Hashtbl.replace t.touched (locate t k) ());
  apply_db_op t.volatile db_op

let put t key value = log_and_apply t (Record.Db_put (key, value))
let delete t key = log_and_apply t (Record.Db_del key)
let get t key = Hashtbl.find_opt t.volatile key

let partition_entries t pid =
  Hashtbl.fold
    (fun k v acc -> if locate t k = pid then Page.Entries.add k v acc else acc)
    t.volatile Page.Entries.empty

(* The quiesce: write the staging area, log the checkpoint record, force
   the log, and swing the pointer — the atomic installation of every
   operation logged so far. *)
let checkpoint t =
  let staging = Disk.create () in
  let lsn_now = Log_manager.last_lsn t.log in
  Hashtbl.iter
    (fun pid () -> Disk.write staging pid (Page.make ~lsn:lsn_now (Page.Kv (partition_entries t pid))))
    t.touched;
  let ckpt = Log_manager.append t.log (Record.Checkpoint { dirty_pages = []; note = name }) in
  if t.checkpoint_forces then Log_manager.force t.log ~upto:ckpt;
  t.stable_db <- staging

(* System R installs by one atomic pointer swing — there is no live
   write graph to shard (the staging writes are invisible until the
   swing, so no careful order constrains them). Degrade to the global
   checkpoint and report zero components. *)
let checkpoint_sharded ?pool:_ ~domains:_ t =
  checkpoint t;
  { Method_intf.ckpt_components = 0; ckpt_pages = 0 }

let flush_some _ _ = ()

let sync t = Log_manager.force_all t.log

let after_crash t =
  Hashtbl.reset t.volatile;
  Hashtbl.reset t.touched;
  let flushed = Log_manager.flushed_lsn t.log in
  t.op_first_lsns <- List.filter (fun l -> Lsn.(l <= flushed)) t.op_first_lsns

let crash t =
  Log_manager.crash t.log;
  after_crash t

let crash_torn t ~drop =
  Log_manager.crash_torn t.log ~drop;
  after_crash t

let recover t =
  (* Reload the installed snapshot, then replay every logged operation
     after the checkpoint. *)
  Hashtbl.reset t.volatile;
  Hashtbl.reset t.touched;
  Disk.iter
    (fun pid page ->
      Hashtbl.replace t.touched pid ();
      match Page.data page with
      | Page.Kv entries ->
        List.iter (fun (k, v) -> Hashtbl.replace t.volatile k v) (Page.Entries.bindings entries)
      | Page.Empty -> ()
      | data -> invalid_arg (Fmt.str "logical recovery: unexpected payload %a" Page.pp_data data))
    t.stable_db;
  let scanned = ref 0 and redone = ref 0 in
  List.iter
    (fun r ->
      incr scanned;
      match Record.payload r with
      | Record.Logical db_op ->
        (match db_op with
        | Record.Db_put (k, _) | Record.Db_del k -> Hashtbl.replace t.touched (locate t k) ());
        apply_db_op t.volatile db_op;
        incr redone
      | Record.Checkpoint _ | Record.Shard_checkpoint _ -> ()
      | payload ->
        invalid_arg (Fmt.str "logical recovery: unexpected record %a" Record.pp_payload payload))
    (Log_manager.records_from t.log ~from:(Redo_restart.Page_redo.scan_start t.log));
  { Method_intf.scanned = !scanned; redone = !redone; skipped = 0; analysis_scanned = 0 }

let dump t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.volatile []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let durable_ops t =
  let flushed = Log_manager.flushed_lsn t.log in
  List.length (List.filter (fun l -> Lsn.(l <= flushed)) t.op_first_lsns)

let log_stats t = Log_manager.stats t.log
let log t = t.log

let projection t =
  let universe = Kv_layout.universe ~partitions:t.partitions in
  let start = Redo_restart.Page_redo.scan_start t.log in
  let locate_key = Kv_layout.locate ~partitions:t.partitions in
  let ops, redo_ids =
    List.fold_left
      (fun (ops, redo) r ->
        match Record.payload r with
        | Record.Logical db_op ->
          let op = Projection.logical_op ~lsn:(Record.lsn r) ~universe ~locate:locate_key db_op in
          let redo =
            if Lsn.(start <= Record.lsn r) then Projection.op_id (Record.lsn r) :: redo
            else redo
          in
          op :: ops, redo
        | _ -> ops, redo)
      ([], [])
      (Log_manager.stable_records t.log)
  in
  Projection.make ~method_name:name ~lsn_values:false ~universe ~ops:(List.rev ops)
    ~stable:(Projection.stable_state_of_disk ~lsn_values:false t.stable_db universe)
    ~redo_ids:(List.rev redo_ids)
