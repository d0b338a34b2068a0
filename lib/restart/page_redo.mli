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
    shared with the domains that replay. *)

val analyze : Log_manager.t -> pages:int -> t
(** Rebuild the dirty-page table from the newest stable checkpoint and
    every stable record after it: a page a later record touched enters
    the table with that record's LSN as its (conservative) recLSN. Also
    index the stable per-shard horizons. Both tables are arrays indexed
    by page id, so every page id in the log must lie in [\[0, pages)].
    @raise Invalid_argument on a page id out of range. *)

val redo_start : t -> Lsn.t
(** Where redo begins: the table's oldest recLSN, at most the record
    after the checkpoint. *)

val analysis_scanned : t -> int
(** Records the analysis pass read: those after the checkpoint. *)

val slice : t -> Record.t list
(** The stable records from {!redo_start} on, in LSN order. When no
    table entry predates the checkpoint this is the analysis tail
    itself, read once. *)

val surely_on_disk : t -> pid:int -> lsn:Lsn.t -> bool
(** Can the record be skipped without reading its page? True when a
    stable shard horizon covers [lsn] on [pid], when [pid] was clean at
    the crash (absent from the table), or when [lsn] is below the page's
    recLSN. Perf-only for a page-LSN method: a covered record's page
    carries an LSN at least as high, so {!redo_one} would skip it too. *)

val redo_one :
  Cache.t -> pid:int -> lsn:Lsn.t -> ('a -> Page.data -> Page.data) -> 'a -> bool
(** [redo_one cache ~pid ~lsn update arg] is the page-LSN redo test on a
    cached page: if the page's LSN is below [lsn], apply [update arg] and
    stamp the page with [lsn] ([true]); otherwise leave the page alone
    ([false]). [update] and its argument come apart so that a record the
    test skips allocates nothing: a closure per skipped record is enough
    extra allocation to move where a minor collection lands inside eager
    recovery (EXPERIMENTS.md E19). *)
