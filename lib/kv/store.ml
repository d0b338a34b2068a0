open Redo_methods
module Flight = Redo_obs.Flight

type recovery_method =
  | Logical
  | Physical
  | Physiological
  | Generalized

let method_name = function
  | Logical -> "logical"
  | Physical -> "physical"
  | Physiological -> "physiological"
  | Generalized -> "generalized"

type stats = {
  puts : int;
  deletes : int;
  checkpoints : int;
  recoveries : int;
  records_scanned : int;
  records_redone : int;
  records_skipped : int;
}

(* Counters are Atomics (the [Log_manager.stats] discipline): the store
   facade itself is single-domain, but the sharded service and tests
   read [stats] from other domains while work is in flight, and an
   atomic increment costs the same as a mutable store on this path. *)
type t = {
  instance : Method_intf.instance;
  recovery_method : recovery_method;
  puts : int Atomic.t;
  deletes : int Atomic.t;
  checkpoints : int Atomic.t;
  recoveries : int Atomic.t;
  scanned : int Atomic.t;
  redone : int Atomic.t;
  skipped : int Atomic.t;
}

let create ?cache_capacity ?partitions recovery_method =
  let make =
    match recovery_method with
    | Logical -> Registry.logical
    | Physical -> Registry.physical
    | Physiological -> Registry.physiological
    | Generalized -> Registry.generalized
  in
  {
    instance = make ?cache_capacity ?partitions ();
    recovery_method;
    puts = Atomic.make 0;
    deletes = Atomic.make 0;
    checkpoints = Atomic.make 0;
    recoveries = Atomic.make 0;
    scanned = Atomic.make 0;
    redone = Atomic.make 0;
    skipped = Atomic.make 0;
  }

let recovery_method t = t.recovery_method

let put t key value =
  if String.length key = 0 then invalid_arg "Store.put: empty key";
  Atomic.incr t.puts;
  Method_intf.instance_put t.instance key value

let get t key = Method_intf.instance_get t.instance key

let delete t key =
  Atomic.incr t.deletes;
  Method_intf.instance_delete t.instance key

let dump t = Method_intf.instance_dump t.instance

let checkpoint t =
  Atomic.incr t.checkpoints;
  Method_intf.instance_checkpoint t.instance

let checkpoint_sharded ?(domains = 1) t =
  Atomic.incr t.checkpoints;
  let pool =
    if domains > 1 then Some (Redo_par.Domain_pool.shared ~domains) else None
  in
  let s = Method_intf.instance_checkpoint_sharded ?pool ~domains t.instance in
  s.Method_intf.ckpt_components, s.Method_intf.ckpt_pages

let sync t = Method_intf.instance_sync t.instance

let set_group_commit t enabled =
  (* Inline mode: batching without a flusher domain — the store is a
     single-domain facade, so the win is piggybacking (checkpoint shard
     records, force_async callers), not cross-domain coalescing. *)
  Redo_wal.Group_commit.set ~enabled (Method_intf.instance_log t.instance)

let group_commit_enabled t =
  Redo_wal.Log_manager.group_attached (Method_intf.instance_log t.instance)

let crash t =
  (* A clean crash gate: the store facade models a plain process kill. *)
  Flight.crash (Atomic.get t.recoveries + 1);
  Method_intf.instance_crash t.instance

let recover t =
  if Flight.enabled () then
    Flight.emit (Flight.Phase { name = "store.recover"; crash = Atomic.get t.recoveries + 1 });
  let s = Method_intf.instance_recover t.instance in
  Atomic.incr t.recoveries;
  ignore (Atomic.fetch_and_add t.scanned s.Method_intf.scanned);
  ignore (Atomic.fetch_and_add t.redone s.Method_intf.redone);
  ignore (Atomic.fetch_and_add t.skipped s.Method_intf.skipped)

let durable_ops t = Method_intf.instance_durable_ops t.instance

let stats t =
  {
    puts = Atomic.get t.puts;
    deletes = Atomic.get t.deletes;
    checkpoints = Atomic.get t.checkpoints;
    recoveries = Atomic.get t.recoveries;
    records_scanned = Atomic.get t.scanned;
    records_redone = Atomic.get t.redone;
    records_skipped = Atomic.get t.skipped;
  }

let log_bytes t =
  (Method_intf.instance_log_stats t.instance).Redo_wal.Log_manager.appended_bytes

let verify_recovery_invariant t =
  let report = Theory_check.check (Method_intf.instance_projection t.instance) in
  match report.Theory_check.failure with
  | None -> Ok report
  | Some msg -> Error msg

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "puts=%d deletes=%d checkpoints=%d recoveries=%d scanned=%d redone=%d skipped=%d"
    s.puts s.deletes s.checkpoints s.recoveries s.records_scanned s.records_redone
    s.records_skipped
