(** The log manager: a volatile tail over a stable prefix.

    [append] assigns monotonically increasing LSNs (from 1; {!Lsn.zero}
    means "before all logged operations"). Records become
    crash-survivable only once {!force}d — the half of the write-ahead
    log protocol the {!Redo_storage.Cache} [before_flush] hook invokes:
    an operation's record must be stable before the operation's effects
    reach the disk.

    {2 Group commit}

    A {!Group_commit.t} attaches itself through {!set_group}. While a
    committer is attached, {!append}, {!force}, {!force_all} and
    {!force_async} route through its hooks so concurrent committers are
    serialized and their forces coalesce into batches. With no committer
    attached every entry point takes the original single-threaded path —
    one [option] match of overhead, no locks, no allocation. *)

open Redo_storage

type stats = {
  appended_bytes : int;
  stable_bytes : int;
  forces : int;
  appended_records : int;
}
(** An immutable snapshot; take a fresh one to observe progress. The
    cells behind it are {!Atomic}s, so snapshots are safe to take from
    any domain while committers run. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (records, default 16) preallocates the unforced-record
    array and the stable slot arrays, and sizes the stable medium
    proportionally; all still grow past it by doubling. A workload that
    knows its log volume up front (recovery replays, bulk loads,
    benchmarks) avoids every growth copy by passing it. *)

val stats : t -> stats
(** [appended_bytes]/[stable_bytes] use the exact {!Codec} wire sizes
    plus 8 bytes of framing per record. *)

val append : t -> Record.payload -> Lsn.t
(** Append to the volatile tail; returns the record's LSN. Amortized
    O(1): the volatile view is an array indexed by LSN, not a list.
    Domain-safe while a group committer is attached (serialized under
    its mutex); single-domain only otherwise. *)

val last_lsn : t -> Lsn.t
val flushed_lsn : t -> Lsn.t

val force : t -> upto:Lsn.t -> unit
(** Make all records with LSN ≤ [upto] stable. Idempotent, and
    O(newly-flushed records): only the slice above the previous stable
    horizon is framed out to the medium. Under a group committer this is
    the {e barrier}: it returns only once the stable horizon covers
    [upto], but the force itself may be performed once for a whole batch
    of concurrent callers. *)

val force_all : t -> unit
(** [force] up to [last_lsn]. The horizon is captured at the same
    consistency point as the force itself (under the group mutex when a
    committer is attached), so a concurrent append cannot widen the
    promised range mid-call. *)

(** {2 Asynchronous (eventual) durability} *)

type ticket
(** A claim check for an asynchronous force: proof that the records up
    to some LSN have been {e staged} for the next group force, not that
    they are stable. Tickets do not survive {!crash}: staged-but-
    unflushed requests are discarded, exactly like any other unforced
    tail state. *)

val force_async : t -> upto:Lsn.t -> ticket
(** Request eventual durability of all records with LSN ≤ [upto]. With a
    group committer attached this stages the request and returns
    immediately — the records ride the next group force (piggybacking).
    With no committer it degrades to a synchronous {!force}, so callers
    need not know whether batching is on. *)

val await : ticket -> unit
(** Block until the ticket's records are stable. Equivalent to [force]
    up to the ticket's LSN: cheap if a group force already covered it,
    a barrier otherwise. *)

val ticket_lsn : ticket -> Lsn.t

val ticket_stable : ticket -> bool
(** Whether the stable horizon has reached the ticket's LSN. Monotone
    (never reverts to [false]) except across a {!crash}/{!crash_torn},
    which discards staged requests along with the volatile tail. *)

(** {2 Crash model} *)

val crash : t -> unit
(** Lose the volatile tail; the stable prefix survives. The surviving
    records are re-read from the framed medium by {!Stable_log.restore},
    which decodes nothing: below the master record (the newest global
    checkpoint a completed force put on the medium) only frame headers
    are walked; from the master's frame on each frame's CRC is checked,
    and only those that checksum cleanly count. Each surviving slot
    keeps its frame's offset and its peeked kind and page id, and is
    decoded when read. Recovery reads from the redo start on, and by
    Corollary 4 nothing before it is needed, so a restart decodes only
    the records it redoes. Any group-staged async requests are discarded
    first — a crash loses staged-but-unflushed work, never completes
    it.
    @raise Stable_log.Corrupt_frame if the walk below the master does
    not land on the master's frame, that frame does not check, or a
    frame that checks carries the wrong LSN; the medium is left
    untruncated. *)

val crash_torn : t -> drop:int -> unit
(** Crash while a final force of the whole unforced tail was in flight:
    all but its last [drop] bytes reached the medium, so the tail's
    frames survive except a torn final one, which the scan discards.
    Previously-forced bytes are never affected (page flushes only ever
    waited on completed forces, so WAL consistency is preserved), and
    the racing force writes no master record, so the tear always lies
    past the master's frame. Under
    group commit the "final force" models the batch that was racing the
    crash: its waiters had not yet been completed, so none of them were
    told their frames were stable. *)

val medium : t -> Stable_log.t
(** The underlying framed byte log and its master cell (for fault
    injection and forensics). *)

(** {2 Reading the log}

    A slot takes one of two forms. A stable slot keeps only its frame's
    offset and the kind and page id peeked from it, in int arrays; the
    readers decode its record from the frame, with the CRC re-checked.
    An unforced slot keeps its decoded record until a force writes its
    frame and drops it. A reader that meets a corrupt frame raises
    {!Stable_log.Corrupt_frame}, naming its LSN and offset; it never
    skips the frame or returns a wrong record.

    While a group committer is attached, these readers hold its mutex
    while they look at the slots, since a force moves them between
    forms. *)

val stable_records : t -> Record.t list
(** Stable records in LSN order. *)

val records_from : t -> from:Lsn.t -> Record.t list
(** Stable records with LSN ≥ [from], in LSN order.
    O(records returned): a direct slice, not a filter of the whole log. *)

val all_records : t -> Record.t list

val last_stable_checkpoint : t -> (Lsn.t * Record.checkpoint) option
(** The newest stable checkpoint record, if any (the analysis pass). *)

val stable_shard_checkpoints : t -> (Lsn.t * Record.shard_ckpt) list
(** All stable per-shard checkpoint records, newest first. A crash can
    tear off the trailing records of a sharded checkpoint (and its
    global summary) while earlier shard records survive — recovery then
    degrades gracefully, shard by shard. The restore indexes checkpoint
    records by their peeked tag; each is decoded here. *)

val stable_shard_horizons : ?after:Lsn.t -> t -> (int * Lsn.t) list
(** Per-page install horizons from the stable shard records with LSN
    above [after] (default {!Lsn.zero}: all of them): for each page
    claimed by such a {!Record.Shard_checkpoint}, the horizon of the
    newest record claiming it. Sorted by page id. Sound because page
    LSNs are monotone: a later flush only extends the installed prefix a
    horizon promises.

    A shard record's horizon lies below its own LSN (the installer
    captures it before appending the record), so a record at or before
    LSN [after] covers no record above it: a redo scan from [after] on
    passes its start and reads only the shard records it can use. *)

(** {2 Views}

    A view is the stable prefix as it was when the view was taken: the
    slot arrays and a {!Stable_log.snapshot} of the medium. Reading it
    takes no lock and never races the committer, because a force writes
    only slots above the view's end (into the same arrays, or into
    copies when they grow) and an append writes only bytes past the
    snapshot (into the same bytes, or into a copy). So the owner domains
    of an instant restart decode their pages' records through a view
    while other owners append and force. A view is valid until the next
    crash of its log. *)

type view

val view : t -> view

val view_last : view -> Lsn.t
(** The newest stable LSN the view holds ({!Lsn.zero} for none). *)

val view_pid : view -> Lsn.t -> int
(** The page id of a stable [Physiological] record, peeked from its
    frame without a decode; [-1] for any other record. A frame the
    restore only header-walked (below the master) has its CRC checked
    first, so the answer can be trusted.
    @raise Stable_log.Corrupt_frame if that check fails.
    @raise Invalid_argument for an LSN outside [\[1, view_last\]]. *)

val view_kind : view -> Lsn.t -> Codec.kind
(** The record's kind, peeked and checked like {!view_pid}. *)

val view_record : view -> Lsn.t -> Record.t
(** Decode a stable record from its frame, with its CRC checked.
    @raise Stable_log.Corrupt_frame if the frame does not read.
    @raise Invalid_argument for an LSN outside [\[1, view_last\]]. *)

val stable_op_records : t -> int
(** Stable records that are operations — i.e. not [Checkpoint] or
    [Shard_checkpoint] metadata. For stores whose every operation
    appends exactly one record (the physiological discipline, including
    the sharded KV service) this {e is} the durable-operation count,
    computed in O(checkpoints) instead of materializing the op-LSN
    list. Counted from the checkpoint index, so nothing is decoded. *)

val length : t -> int
val pp : t Fmt.t

(** {2 Group-committer plumbing}

    Used by {!Group_commit}; not intended for other callers. *)

type group = {
  g_mutex : Mutex.t;
      (** Serializes [append] against the committer's own force. *)
  g_stage : Lsn.t -> unit;  (** [force_async]: register, don't wait. *)
  g_barrier : Lsn.t -> unit;  (** [force]: wait for the horizon. *)
  g_barrier_all : unit -> unit;
      (** [force_all]: capture [last_lsn] and wait, one critical
          section. *)
  g_crash : unit -> unit;  (** Discard staged requests before restore. *)
  g_detach : unit -> unit;  (** Drain and unhook (idempotent). *)
}

val set_group : t -> group option -> unit
val group_attached : t -> bool

val detach_group : t -> unit
(** Invoke the attached committer's [g_detach], if any: flush staged
    requests, stop its flusher domain and restore the direct paths. *)

val force_direct : t -> upto:Lsn.t -> unit
(** The raw single-threaded force, bypassing group hooks — the group
    flusher's entry point (calling {!force} from the flusher would
    re-enter its own barrier). Caller must hold [g_mutex] if a committer
    is attached. *)
