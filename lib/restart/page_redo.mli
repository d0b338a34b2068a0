(** The page-LSN redo path (Section 6.3), shared by every page-based
    method.

    One copy of each step the physiological, generalized and sharded
    recoveries run: where the redo scan starts, the ARIES-style
    analysis pass that rebuilds the dirty-page table (Section 4.3), the
    "surely on disk" test that skips a record without reading its page,
    and the page-LSN redo test itself — "if the page LSN is at least as
    high as the operation's LSN, then the operation is already
    installed and is bypassed".

    A page's records sit in LSN order, so one page-LSN test splits its
    redo tail into an installed prefix and a suffix to replay, and by
    Theorem 3 the tails of different pages replay in any order: eager
    sharded recovery, instant restart's drains and physiological
    recovery all bucket the slice into per-page queues ({!queues}) and
    redo each with one {!drain}. *)

open Redo_storage
open Redo_wal

val scan_start : Log_manager.t -> Lsn.t
(** The first LSN a redo scan must read: the oldest recLSN in the newest
    stable checkpoint's dirty-page table, or the record after that
    checkpoint when the table holds nothing older. [1] without a stable
    checkpoint. Methods whose checkpoints carry an empty table (physical,
    logical) get the record after the checkpoint. *)

type t
(** The outcome of one analysis pass. Read-only once built, so it may be
    shared with the domains that replay: they read the log through the
    {!Log_manager.view} it took. *)

val analyze : Log_manager.t -> pages:int -> t
(** Rebuild the dirty-page table from the newest stable checkpoint and
    every stable record after it: a page a later record touched enters
    the table with that record's LSN as its (conservative) recLSN. The
    records are not decoded: their page ids are peeked from their frames
    ({!Log_manager.view_pid}). Also index the per-shard horizons of the
    stable shard records after the redo start; an earlier one covers no
    record of the slice ({!Log_manager.stable_shard_horizons}). Both
    tables are arrays indexed by page id, so every page id in the log
    must lie in [\[0, pages)]. Decodes only the checkpoint and those
    shard records. Run it on a quiescent log (after a crash): the view
    it takes is valid until the log's next crash.
    @raise Invalid_argument on a page id out of range. *)

val redo_start : t -> Lsn.t
(** Where redo begins: the table's oldest recLSN, at most the record
    after the checkpoint. *)

val analysis_scanned : t -> int
(** Records the analysis pass read: those after the checkpoint. *)

val slice : t -> Lsn.t * Lsn.t
(** The redo slice as an LSN range [(first, last)], inclusive: the
    stable records from {!redo_start} on. Empty when [last < first].
    Read it with {!queues} and {!record}. *)

val record : t -> Lsn.t -> Record.t
(** Decode a slice record from its frame, with its CRC checked. Safe on
    any domain while the log takes appends and forces; call it only for
    a record that is to be redone.
    @raise Redo_wal.Stable_log.Corrupt_frame if the frame does not read. *)

val surely_on_disk : t -> pid:int -> lsn:Lsn.t -> bool
(** Can the record be skipped without reading its page? True when a
    stable shard horizon covers [lsn] on [pid], when [pid] was clean at
    the crash (absent from the table), or when [lsn] is below the page's
    recLSN. Perf-only for a page-LSN method: a covered record's page
    carries an LSN at least as high, so {!drain} would skip it too. *)

val queues : t -> Lsn.t array array * int
(** The slice bucketed once, from peeked page ids, into per-page redo
    queues: [(queues, preskipped)], where [queues.(pid)] (for every
    [pid] in [\[0, pages)] of {!analyze}) holds in LSN order the LSNs of
    the slice records on [pid] that {!surely_on_disk} does not clear,
    [[||]] if none, and [preskipped] counts the records it clears.
    Checkpoint records are in neither. Nothing is decoded, so a skipped
    record never is.
    @raise Invalid_argument (naming the record) on a non-physiological
    operation record.
    @raise Redo_wal.Stable_log.Corrupt_frame if a frame the restore only
    header-walked does not check. *)

val bucket : pages:int -> first:Lsn.t -> int array -> Lsn.t array array
(** The builder behind {!queues}, for a run of LSNs classified some
    other way: [pids.(i)] is the page the record with LSN [first + i] is
    queued on, or [-1] for one left out, and every page id lies in
    [\[0, pages)]. Counts, then fills exact-sized arrays. *)

val drain : t -> Cache.t -> pid:int -> Lsn.t array -> int * int
(** [drain a cache ~pid q] redoes page [pid]'s queue [q] (LSN order, as
    {!queues} builds it) on the cached page and returns
    [(redone, skipped)]. One page-LSN test skips the records at or below
    the page's LSN; the rest are decoded ({!record}) and applied in
    order, one at a time, to the page's data, and the result is written
    with one {!Cache.update} stamped with the queue's last LSN and
    carrying the first redone LSN as the page's recLSN. The page and
    counts equal those of {!redo_one} applied record by record. An
    empty queue touches nothing; a queue the page LSN covers reads the
    page and leaves it as it was. If a record does not decode, the page
    is left as it was.
    @raise Invalid_argument if a record is not a physiological
    operation on [pid].
    @raise Redo_wal.Stable_log.Corrupt_frame if a frame does not read. *)

val redo_one :
  Cache.t -> pid:int -> lsn:Lsn.t -> ('a -> Page.data -> Page.data) -> 'a -> bool
(** [redo_one cache ~pid ~lsn update arg] is the page-LSN redo test on a
    cached page, one record at a time: if the page's LSN is below
    [lsn], apply [update arg] and stamp the page with [lsn] ([true]);
    otherwise leave the page alone ([false]). The B-tree's recovery
    uses it, since its operations may write several pages. [update]
    and its argument come apart so that a record the test skips
    allocates nothing. *)
