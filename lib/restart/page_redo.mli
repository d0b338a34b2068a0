(** The page-LSN redo path (Section 6.3), shared by every page-based
    method.

    One copy of each step the physiological, generalized and sharded
    recoveries run: where the redo scan starts, the ARIES-style
    analysis pass that rebuilds the dirty-page table (Section 4.3), the
    "surely on disk" test that skips a record without reading its page,
    and the page-LSN redo test itself — "if the page LSN is at least as
    high as the operation's LSN, then the operation is already
    installed and is bypassed". *)

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
    Read it with {!redo_pages} and {!record}. *)

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
    carries an LSN at least as high, so {!redo_one} would skip it too. *)

val redo_pages : t -> int array * int
(** The slice classified once, from peeked page ids, for a replay to
    bucket: [(pages, preskipped)], where [pages.(i)] is the page the
    record with LSN [first + i] (of {!slice}) may redo, or [-1] when it
    has nothing to redo — a checkpoint record, or one {!surely_on_disk}
    clears. [preskipped] counts the latter. Nothing is decoded, so a
    skipped record never is.
    @raise Invalid_argument (naming the record) on a non-physiological
    operation record.
    @raise Redo_wal.Stable_log.Corrupt_frame if a frame the restore only
    header-walked does not check. *)

val redo_one :
  Cache.t -> pid:int -> lsn:Lsn.t -> ('a -> Page.data -> Page.data) -> 'a -> bool
(** [redo_one cache ~pid ~lsn update arg] is the page-LSN redo test on a
    cached page: if the page's LSN is below [lsn], apply [update arg] and
    stamp the page with [lsn] ([true]); otherwise leave the page alone
    ([false]). [update] and its argument come apart so that a record the
    test skips allocates nothing: a closure per skipped record is enough
    extra allocation to move where a minor collection lands inside eager
    recovery (EXPERIMENTS.md E19). *)
