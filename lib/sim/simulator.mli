(** The crash–recovery simulator.

    Drives one recovery method through a randomized key-value workload
    with background cache flushes, log forces and checkpoints; injects
    crashes (volatile state lost, stable log truncated at the forced
    horizon, pages on disk being whatever subset of flushes happened —
    always through the cache, so WAL and write-order constraints hold);
    recovers; and verifies two things at every crash:

    - {e contents}: the recovered key-value contents equal the reference
      trace truncated at the durability horizon;
    - {e theory}: the method's {!Redo_methods.Projection} passes
      {!Redo_methods.Theory_check} — the Recovery Invariant held. *)

open Redo_methods

type config = {
  seed : int;
  total_ops : int;
  key_space : int;
  delete_fraction : float;
  checkpoint_every : int option;
  flush_prob : float;  (** Background flush of one dirty page, per op. *)
  sync_prob : float;  (** Background full log force, per op. *)
  crash_every : int option;
  torn_write_prob : float;
      (** Probability a crash also tears the final stable-log frame. *)
  partitions : int;
  cache_capacity : int;
  verify_theory : bool;
  domains : int;
      (** Worker domains for the theory check's parallel-equivalence
          leg ({!Redo_methods.Theory_check.check}); [1] keeps every
          crash's check sequential. *)
  checkpoint_shards : bool;
      (** Route periodic checkpoints through the shard-parallel
          write-graph installer
          ({!Redo_methods.Method_intf.S.checkpoint_sharded}) instead of
          the plain fuzzy checkpoint, emitting per-shard horizon
          records. *)
  group_commit : bool;
      (** Attach a {!Redo_wal.Group_commit} committer to the method's
          log for the whole run: forces coalesce into batches and the
          installer's shard records piggyback on them. Background mode
          (a dedicated flusher domain) when [domains > 1], Inline
          otherwise; detached before [run] returns. *)
}

val default_config : config

type outcome = {
  kv_ops : int;
  crashes : int;
  checkpoints : int;
  ckpt_shards : int;
      (** Write-graph components installed across all sharded
          checkpoints; [0] unless [checkpoint_shards] was set. *)
  scanned : int;  (** Total log records examined across recoveries. *)
  redone : int;
  skipped : int;
  analysis_scanned : int;  (** Records examined by analysis passes (Section 4.3). *)
  verify_failures : string list;
  theory_reports : Theory_check.report list;
  recovery_seconds : float;
}

val run : config -> Method_intf.instance -> outcome
(** Runs the workload, ending with a final sync–crash–recover–verify
    cycle, and returns aggregate results. *)

val pp_outcome : outcome Fmt.t

(** {1 Crash gate and post-crash triage} *)

val crash_instance : ?torn_drop:int -> crash_no:int -> Method_intf.instance -> unit
(** Every simulated crash goes through here. It runs the flight
    recorder's crash gate ({!Redo_obs.Flight.crash}: the same
    [torn_drop]-byte tear on the recorder's active segment, so torn
    crashes exercise the recorder's torn-tail scan exactly like the
    WAL's, then the epoch seal and the crash marker) before the
    instance discards volatile state. [torn_drop = None] is a clean
    crash; [Some drop] tears the final stable-log frame. *)

val triage_log_summary : Redo_wal.Log_manager.t -> Redo_obs.Triage.log_summary
(** Plain-data view of the (post-crash) stable log for
    {!Redo_obs.Triage.analyze}: stable horizon, record/byte counts,
    newest stable checkpoint, and the per-page shard horizons
    recovery's surely-on-disk test would use. *)
