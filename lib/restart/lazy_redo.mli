(** Instant restart: per-page redo queues drained on demand.

    After the analysis pass, the store opens for service immediately;
    each page's missing redo tail waits in a queue and is replayed the
    first time something touches the page — a client operation faulting
    on it ({!Demand}) or the background sweeper reaching it
    ({!Sweeper}). Soundness is Theorem 3: in the sharded KV system
    every logged operation touches exactly one page, so the conflict
    graph's components are single pages and a page's careful-order
    predecessor closure is its own queue in LSN order — draining whole
    queues in any order across pages is conflict-respecting. The
    general DAG form of the same claim is the [Touch_order] schedule of
    [Redo_core.Recovery.recover], and both are checked against eager
    replay by [Theory_check]'s lazy leg on every check.

    Threading: queues belong to their page's shard owner — {!ensure}
    must run on that owner domain (the single-writer discipline of the
    shard cache). Only the pending counters, tallies, the stop flag and
    a drain's failure cross domains. The sweeper never touches a queue
    itself: it posts every page through the caller's [touch], the same
    owner-domain path a client fault takes.

    The queues hold LSNs, not records: a drain decodes its page's
    records on the owner domain, so a restart decodes only what it
    redoes. *)

type trigger =
  | Demand  (** A client operation faulted on the page. *)
  | Sweeper  (** The background sweeper reached it. *)

(** {1 Plan derivation} *)

type plan

val plan_slice : shards:int -> Page_redo.t -> plan
(** Partition the analysis's redo slice ({!Page_redo.slice}) into
    per-page queues of LSNs, one sub-table per owning shard
    ([pid mod shards]), from the records' peeked page ids: nothing is
    decoded. Records for which {!Page_redo.surely_on_disk} holds — the
    shard-horizon ∨ dirty-page-table test eager recovery applies — are
    excluded up front and counted as preskipped; the queues partition
    exactly the remainder. Checkpoint records are ignored. The build
    counts, then fills exact-sized int arrays.
    @raise Invalid_argument on a non-physiological operation record or
    [shards <= 0]. *)

val plan :
  shards:int ->
  surely_on_disk:(pid:int -> lsn:Redo_storage.Lsn.t -> bool) ->
  Redo_wal.Record.t list ->
  plan
(** {!plan_slice} over a list of decoded records in LSN order, with the
    caller's [surely_on_disk] test: the same builder, fed the records'
    page ids.
    @raise Invalid_argument on a non-physiological operation record or
    [shards <= 0]. *)

val plan_pages : plan -> int
(** Pages with a non-empty queue. *)

val plan_records : plan -> int
(** Records across all queues. *)

val plan_preskipped : plan -> int
(** Records the [surely_on_disk] test excluded. *)

val plan_queue : plan -> int -> Redo_storage.Lsn.t list
(** The page's queue, its records' LSNs in order ([[]] if none). *)

val plan_queued_pids : plan -> int list
(** Pages with queues, longest queue first — the sweep order. *)

(** {1 Controller} *)

type t

val create :
  plan:plan ->
  apply:(shard:int -> pid:int -> Redo_storage.Lsn.t array -> int * int) ->
  t
(** Take ownership of the plan's queues; every queued page starts
    pending ({!pending_total}). [apply] replays one page's queue — it
    decodes each LSN's record and applies it under the page-LSN redo
    test ({!Page_redo.redo_one}) — and returns [(redone, skipped)]; it
    is invoked on whatever domain calls {!ensure} — the shard owner's. *)

val ensure : t -> pid:int -> trigger:trigger -> bool
(** Drain the page's queue if it still has one; idempotent ([false] =
    nothing pending). {b Must run on the page's shard owner domain.}
    The queue is removed before [apply] runs, so the logged-update path
    inside [apply] cannot re-enter the drain. Emits a
    [Flight.Lazy_drain] frame, feeds the [restart.lazy_queue_depth]
    histogram and the demand/sweeper drain counters, and decrements
    the pending count.

    If [apply] raises (a frame that does not read, say), the page stays
    pending with its queue in place, so every later touch retries the
    drain and raises in turn; the first such exception is recorded, the
    sweep stops and {!await} wakes to re-raise it. The exception then
    propagates to the caller. *)

val pending_total : t -> int
(** Pages still awaiting their drain. *)

val finished : t -> bool
(** The recovered set is total: every queue has been drained. *)

val drained : t -> int * int
(** Total [(redone, skipped)] across all drains so far. *)

val demand_drains : t -> int

val sweeper_drains : t -> int

val await : t -> bool
(** Block until {!finished} or {!stop}; returns {!finished}. The caller
    must not be a shard owner domain (the drains it waits on run
    there). Re-raises the first exception a drain raised, as soon as
    one has. *)

val start_sweeper : t -> touch:(pid:int -> trigger:trigger -> unit) -> unit
(** Start the background sweeper: one task on a private single-domain
    pool walking {!plan_queued_pids} order and calling [touch] for each
    — [touch] must route to the page's owner domain and call {!ensure}
    there, blocking until the drain completes (so a demand operation
    behind the sweeper waits for at most one page's drain). One full
    pass makes the recovered set total.
    @raise Invalid_argument if already started. *)

val stop : t -> unit
(** Raise the stop flag, join the sweeper (if any), and wake {!await}
    waiters. Does {e not} drain remaining queues — a crash mid-restart
    abandons them; the next recovery replays the same stable records
    (idempotent under the page-LSN test). *)
