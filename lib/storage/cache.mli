(** The buffer cache: volatile, lost at a crash.

    This is the component Section 5 is about: it accumulates the effects
    of many operations and decides when page versions reach the disk.
    Two hooks make it honest with respect to the theory:

    - [before_flush] is called with the page image about to be written —
      the write-ahead-log hook (the log manager forces records up to the
      page LSN there);
    - {!add_flush_order} registers a careful-write-order edge ("flush
      [first] before [next]"), the cache-level realisation of a write
      graph {e add an edge} — required by generalized split logging
      (Figure 8). Flushing a page auto-flushes its prerequisites and
      counts them, so experiment E4 can measure the constraint's cost.

    A cache is not synchronised: one operation at a time. The sharded
    KV service touches a shard's cache only from that shard's mailbox
    tasks, which never overlap — on the owner domain, or in a caller
    that found the shard idle. *)

exception Flush_cycle of int list
(** Write-order edges formed a cycle (a method bug). *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable forced_order_flushes : int;
  mutable evictions : int;
  mutable updates : int;
}

type t

val create : ?capacity:int -> ?before_flush:(Page.t -> unit) -> Disk.t -> t
val stats : t -> stats
val disk : t -> Disk.t

val read : t -> int -> Page.t
(** Read through the cache (fetches from disk on a miss, possibly
    evicting — dirty victims are flushed first). *)

val peek : t -> int -> Page.t option
(** The cached page, if cached — no stats, no recency movement, no disk
    fault-in. The checkpoint planner snapshots dirty images with this. *)

val update : ?rec_lsn:Lsn.t -> t -> int -> lsn:Lsn.t -> (Page.data -> Page.data) -> unit
(** Apply a transformation to the cached page and stamp it with the
    operation's LSN; the page becomes dirty. A clean page's recLSN, the
    first LSN to dirty it since its last flush (for fuzzy checkpoints),
    becomes [rec_lsn], by default [lsn]. An update that applies several
    records at once (a redo drain, {!Redo_restart.Page_redo.drain})
    passes the first of them: a checkpoint that recorded the last would
    let a later redo skip the others while the disk still lacks them. *)

val set_page : t -> int -> Page.t -> unit
(** Replace the cached page wholesale (physical recovery's redo). *)

val is_dirty : t -> int -> bool
val dirty_pages : t -> int list
val cached_pages : t -> int list
val rec_lsn : t -> int -> Lsn.t option
val min_rec_lsn : t -> Lsn.t option

val flush_page : t -> int -> unit
(** Flush one page, first flushing any dirty prerequisite registered
    with {!add_flush_order}. No-op on clean/uncached pages.
    @raise Flush_cycle on cyclic order constraints. *)

val flush_all : t -> unit

val note_installed : t -> int -> unit
(** The page's current image reached the disk outside the cache (the
    shard-parallel installer writes page batches directly): mark it
    clean, count the flush, and discharge the write-order constraints
    its flush satisfies — the write-graph {e collapse} of Section 5
    without a second disk write. No-op on clean/uncached pages. *)

val would_force : t -> int -> int list
(** Dirty prerequisites a flush of this page would drag along. *)

val add_flush_order : t -> first:int -> next:int -> unit
(** Require [first]'s current dirty version to reach disk before [next]
    may be flushed. The constraint dies once [first] is flushed. *)

val flush_orders : t -> (int * int) list

val drop_volatile : t -> unit
(** The crash: every cached page and constraint vanishes. *)

val pp : t Fmt.t
