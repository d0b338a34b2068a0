(** The sharded KV service: domain-parallel normal operation over
    conflict-closed partitions.

    The paper's conflict machinery, applied to the {e front end}: every
    operation is a physiological record touching exactly one page, the
    page universe is statically partitioned over N shards
    ([page mod shards] — a coarsening of the per-page components
    [Core.Partition] computes, so shard boundaries are conflict-closed
    by construction), and each shard is a {!Redo_par.Mailbox}: a stream
    of tasks over the shard's private cache, run one at a time in
    arrival order by the shard's worker domain (the mailbox consumer)
    — or, for a synchronous {!get} or {!put_durable} that finds the
    shard idle, by the caller itself ({!Redo_par.Mailbox.run}).
    Cross-shard coordination needs no locks on the data path: keys
    route to their shard, shards never share pages, and Theorem 3 says
    any conflict-respecting order — in particular, the WAL order the
    shards jointly produce — is equivalent to a serial execution.

    What the shards {e do} share is the log: one {!Redo_wal.Log_manager}
    with a Background {!Redo_wal.Group_commit} committer attached, so
    concurrent appends are serialized under the committer's mutex and
    every operation's eventual-durability request
    ({!Redo_wal.Log_manager.force_async}) coalesces with its
    contemporaries into batched forces — force count sublinear in both
    operation count and shard count. One shared mutex-protected
    {!Redo_storage.Disk} underlies the per-shard caches, whose
    [before_flush] hooks force that WAL (the write-ahead rule is
    per-page and each page has one owner, so the rule composes).

    Checkpoints, crashes, recovery and the flight recorder plug in
    because shard boundaries coincide with the partitions they already
    consume: {!checkpoint_sharded} runs one write-graph install
    ({!Redo_ckpt.Installer}) per shard on its owner domain (shard
    records piggyback on the group committer); {!crash} loses every
    volatile cache and the unforced log tail behind the same flight
    gate the simulator uses; {!recover} buckets the stable log into
    per-page redo queues and drains each on its page's owner, shards in
    parallel, under the per-shard horizon and page-LSN tests.

    Every run is certifiable: {!verify_recovery_invariant} projects the
    crashed store into the theory (Section 4.5), and {!certify} checks
    the concurrent execution against a single-threaded replay of the
    log — together, concurrent execution + crash + recovery ≡ one
    serial execution.

    Threading contract: one client domain drives the public API
    (workers are internal); {!stats} may be read from anywhere. A
    shard's tasks never overlap and run in the order they reach it;
    which domain runs one does not matter to the theory. {!get} and
    {!put_durable} run in the client when their shard is idle and no
    instant restart is live; everything else — {!put}, {!delete},
    {!get_async}, the fan-outs of {!dump}, checkpoints, crash and
    recovery, and the restart sweeper's touches — hands its tasks to
    the worker domains. Always {!close} the store — it owns N worker
    domains and the committer's flusher. *)

type t

type recovery_stats = Redo_methods.Method_intf.recovery_stats = {
  scanned : int;  (** Records the redo pass examined (all shards). *)
  redone : int;
  skipped : int;
  analysis_scanned : int;  (** Records the analysis pass examined. *)
}

type stats = {
  puts : int;
  deletes : int;
  gets : int;
  checkpoints : int;
  crashes : int;
  recoveries : int;
  records_scanned : int;
  records_redone : int;
  records_skipped : int;
}

val create :
  ?shards:int ->
  ?partitions:int ->
  ?cache_capacity:int ->
  ?commit_mode:Redo_wal.Group_commit.mode ->
  unit ->
  t
(** [shards] worker domains (default 4) over [partitions] pages
    (default [8 * shards]; must be ≥ [shards] so every worker owns at
    least one page). [cache_capacity] is {e per shard} (default 64).
    [commit_mode] picks the committer flavour (default [Background] —
    a dedicated flusher domain batching all shards' forces; [Inline]
    batches without the extra domain, for control runs).
    @raise Invalid_argument on non-positive [shards] or
    [partitions < shards]. *)

val shards : t -> int
val partitions : t -> int
val log : t -> Redo_wal.Log_manager.t
(** The shared WAL (tickets, triage summaries, force accounting). *)

(** {1 Normal operation} *)

val put : t -> string -> string -> unit
(** Route to the key's owner and return once enqueued (backpressure:
    blocks while the owner's mailbox is full). The operation is logged
    and staged for the next group force by the owner — eventual
    durability, observable via {!sync} or a {!put_durable} ticket.
    @raise Invalid_argument on an empty key. *)

val delete : t -> string -> unit

val put_durable : t -> string -> string -> Redo_wal.Log_manager.ticket
(** Like {!put}, but wait for the operation to be logged and return its
    WAL ticket: [await] it for a commit barrier, or check
    [ticket_stable] later — the claim the post-crash triage audits.
    Runs in the caller when the key's shard is idle, else on its owner
    (see {!get}). *)

val get : t -> string -> string option
(** Read the key on its shard (blocking): in the caller when the shard
    is idle — nothing queued, nothing executing — else on the owner
    domain behind the queued tasks. While an instant restart is live
    it always hands off to the owner. *)

val get_async : t -> string -> string option Redo_par.Mailbox.Ticket.t
(** The pipelined form: post the read, await the ticket later —
    cross-shard reads overlap instead of serializing. *)

val drain : t -> unit
(** Wait until every shard's mailbox is empty and its worker idle. *)

val sync : t -> unit
(** {!drain}, then force the whole log (one batched barrier). *)

val dump : t -> (string * string) list
(** Drain, then merge every shard's contents (read on the owners). *)

val durable_ops : t -> int
(** Operations guaranteed to survive a crash right now. *)

(** {1 Checkpoints, crash, recovery} *)

val checkpoint : t -> unit
(** A fuzzy global checkpoint: drain, gather every shard's dirty-page
    table, append + force one [Checkpoint] record. Nothing is
    installed. *)

val checkpoint_sharded : t -> int * int
(** Drain, then run one write-graph install per shard {e on its owner
    domain}, concurrently: per-component [Shard_checkpoint] records
    piggyback on the group committer, and a summary [Checkpoint]
    record (empty dirty-page table — every page was just installed)
    lands after all shards finish. Returns
    [(components, pages_installed)] summed over shards. *)

val crash : t -> unit
(** Drain, then lose all volatile state: per-shard caches, the unforced
    log tail, staged force requests. Flight-gated like the simulator's
    crash (clean tear). The store remains usable: {!recover} next. *)

val crash_torn : t -> drop:int -> unit
(** {!crash}, but the final in-flight force tears [drop] bytes short on
    both media (WAL and flight recorder). *)

val recover : ?mode:[ `Eager | `Instant ] -> t -> recovery_stats
(** One ARIES-style analysis pass on the coordinator
    ({!Redo_restart.Page_redo.analyze}: checkpoint + dirty-page table →
    redo start and redo slice), then redo per [mode] (default
    [`Eager]). Both modes skip a record when
    {!Redo_restart.Page_redo.surely_on_disk} holds (a per-shard horizon
    or the dirty-page table proves it installed), queue the rest per
    page ({!Redo_restart.Page_redo.queues}), and redo each page's queue
    with one drain ({!Redo_restart.Page_redo.drain}): one page-LSN test
    per page, then the records past the page's LSN applied in one cache
    update — the same analysis, queues and drain the physiological
    method recovers with.

    Nothing is decoded to plan the redo: the analysis and the queues
    work from the page ids peeked from the frames, and decode only the
    checkpoint and the shard records after the redo start. A record is
    decoded on the owner domain that redoes it, once, and only if its
    page's LSN is below its own, so a record either test clears is
    never decoded.

    - [`Eager]: every shard drains its own pages' queues on its owner
      domain, all shards in parallel. Returns after the recovered set
      is total.
    - [`Instant]: take the same queues as a lazy plan and return
      {e before replaying anything} — the store serves
      immediately. A page's queue drains on its owner domain the first
      time an operation touches the page, and a background sweeper
      drains the cold pages longest-queue-first until the recovered
      set is total ({!await_recovery} blocks for that point;
      {!recovery_pending} watches it approach). Sound by Theorem 3:
      every record touches one page, so whole-queue drains in any
      order across pages are conflict-respecting — the equivalence
      with eager replay is re-checked by [Theory_check]'s lazy leg.

    Under [`Instant] the returned [redone] is 0 and [skipped] counts
    only the plan-time exclusions; the lazy drains accumulate into
    {!stats} as they happen. *)

val recovery_pending : t -> int
(** Pages whose redo queues have not yet drained (0 when no instant
    restart is in flight). Safe from any domain. *)

val await_recovery : t -> int * int
(** Block until the in-flight instant restart (if any) has drained
    every queue, then release its sweeper. Returns
    [(demand_drains, sweeper_drains)] — [(0, 0)] if none was running.
    If a drain raised (a frame that does not read, say), re-raise that
    exception instead, and leave the restart in place: its page stays
    pending and raises at every touch until a crash or {!close}.
    Client domain only. {!checkpoint} and {!checkpoint_sharded} call
    this implicitly: a checkpoint taken mid-restart would record a
    dirty-page table that forgets the still-queued pages. *)

(** {1 Certification} *)

val projection : t -> Redo_methods.Projection.t
(** Project stable log + stable state into the theory (call after
    {!crash}, before {!recover} — like the method facades). *)

val verify_recovery_invariant : t -> (Redo_methods.Theory_check.report, string) result
(** Check the Recovery Invariant against the crashed store's
    projection, with every leg of {!Redo_methods.Theory_check.check}:
    sequential, parallel (on the shared 2-domain
    {!Redo_par.Domain_pool.shared} pool), sharded-horizon and lazy
    (demand-order). *)

val serial_contents : ?stable:bool -> t -> (string * string) list
(** The serial witness: single-threaded replay of the log's operations
    in LSN order, from empty. [stable:true] (default) replays the
    stable prefix (what recovery must reproduce); [stable:false]
    replays everything (what the live store must show). *)

val certify :
  t -> phase:[ `Live | `Recovered ] -> Redo_methods.Theory_check.serial_certificate
(** Drain, then check the store's observable contents against the
    matching serial witness: [`Live] before a crash (full log),
    [`Recovered] after {!recover} (stable prefix). *)

(** {1 Bookkeeping} *)

val stats : t -> stats
(** Atomic counters — safe to read from any domain at any time. *)

val close : t -> unit
(** Drain and join every worker domain and detach the committer
    (joining its flusher). Idempotent. Call it: leaked domains keep
    the process alive. *)

val pp_stats : stats Fmt.t
