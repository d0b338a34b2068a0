(** A recoverable key-value store — the library's user-facing facade.

    Pick one of the paper's four recovery methods at creation time; the
    store behaves identically from the outside, but crashes preserve
    exactly the operations whose log records reached stable storage
    ({!sync} or a checkpoint advance the horizon), and {!recover}
    rebuilds the contents per the chosen method.

    {!verify_recovery_invariant} is the paper made executable: after a
    {!crash} (before {!recover}), it projects the stable log and disk
    into the theory and checks the Recovery Invariant of Section 4.5. *)

type recovery_method =
  | Logical  (** System R quiesce + pointer swing (Section 6.1). *)
  | Physical  (** Full page-image logging (Section 6.2). *)
  | Physiological  (** Page-LSN redo test (Section 6.3). *)
  | Generalized  (** B-tree with multi-page split logging (Section 6.4). *)

val method_name : recovery_method -> string

type stats = {
  puts : int;
  deletes : int;
  checkpoints : int;
  recoveries : int;
  records_scanned : int;
  records_redone : int;
  records_skipped : int;
}

type t

val create : ?cache_capacity:int -> ?partitions:int -> recovery_method -> t
(** [partitions] sizes the page universe (hash-partitioned methods) or
    the node capacity (generalized B-tree). *)

val recovery_method : t -> recovery_method

val put : t -> string -> string -> unit
(** @raise Invalid_argument on an empty key. *)

val get : t -> string -> string option
val delete : t -> string -> unit
val dump : t -> (string * string) list

val checkpoint : t -> unit

val checkpoint_sharded : ?domains:int -> t -> int * int
(** Checkpoint by installing the live write graph through the
    shard-parallel installer ({!Redo_ckpt.Installer}), emitting one
    per-shard horizon record per component before the fuzzy checkpoint.
    [domains] (default 1) sizes the shared installation pool. Returns
    [(components, pages_installed)] — [(0, 0)] for methods whose
    checkpoints install nothing (logical). *)

val sync : t -> unit
(** Make everything logged so far durable. *)

val set_group_commit : t -> bool -> unit
(** Toggle group commit on the store's log: forces coalesce into
    batches and checkpoint shard records piggyback on the next batch
    ({!Redo_wal.Group_commit}, Inline mode). Idempotent. Durability
    semantics are unchanged — {!sync} still returns only once the log
    is stable. *)

val group_commit_enabled : t -> bool

val crash : t -> unit
(** Lose all volatile state (cache, unforced log tail). *)

val recover : t -> unit
(** Run the method's redo recovery; updates {!stats}. *)

val durable_ops : t -> int
(** Operations guaranteed to survive a crash right now. *)

val verify_recovery_invariant : t -> (Redo_methods.Theory_check.report, string) result
(** Check the Recovery Invariant against the current stable state and
    stable log (most meaningful right after {!crash}). *)

val stats : t -> stats
val log_bytes : t -> int
val pp_stats : stats Fmt.t
