(** The abstract recovery procedure (Section 4, Figure 6) and the
    Recovery Invariant (Section 4.5).

    [recover] is a literal transcription of Figure 6: scan the
    unrecovered operations in log order; before each, run the [analyze]
    phase; then ask the [redo] test whether to replay. The procedure is
    instrumented so that {!check_invariant} can audit, at every loop
    iteration, that [operations(log) − redo_set] induced a prefix of the
    installation graph explaining the state — Corollary 4's premise, and
    the paper's contract between state update and recovery. *)

type 'a spec = {
  analyze :
    state:State.t -> log:Log.t -> unrecovered:Digraph.Node_set.t -> 'a option -> 'a option;
      (** The analysis phase, run at the top of every iteration with the
          previous analysis (initially [None]). A single up-front
          analysis is the special case that computes on [None] and is
          the identity otherwise. *)
  redo : Op.t -> state:State.t -> log:Log.t -> analysis:'a option -> bool;
      (** The redo test: should this logged operation be replayed? *)
}

type iteration = {
  op_id : string;
  redone : bool;
  state_before : State.t;
  state_after : State.t;
  unrecovered_before : Digraph.Node_set.t;
}

(** How {!recover} orders the replay. Theorem 3 licenses each: any
    order that respects the conflict graph reaches the same state. *)
type schedule =
  | Log_order  (** Figure 6 as written: one LSN-ordered pass. *)
  | Shards of {
      domains : int;
          (** Worker domains for the shards; [1] replays them inline, in
              plan order. *)
      pool : Redo_par.Domain_pool.t option;
          (** Reuse this pool (e.g. {!Redo_par.Domain_pool.shared})
              instead of spawning a throwaway one per call. *)
      shard_sink : (Partition.shard -> (iteration -> unit) option) option;
          (** Consulted once per shard, on the calling domain; may return
              a streaming observer for that shard, which runs on whatever
              domain replays the shard and must be confined to it (a
              per-shard {!auditor} with [~universe:shard.vars] is — the
              conflict graph and {!Explain} are immutable once built). *)
    }
      (** Split the unrecovered operations into the conflict-closed shards
          of {!Partition.plan} and replay each in log order. No conflict
          edge crosses a shard and the shards' variables are disjoint, so
          overlaying each shard's final bindings on the crash state
          reconstructs the sequential final state. *)
  | Touch_order of Var.t list option
      (** Demand order, the theory-level form of instant restart. Each
          operation is queued on its {e home variable} (the least
          variable it accesses — the stand-in for the page a first access
          faults on), and queues drain in the order their variables are
          touched: the given list, or with [None] every home variable in
          descending order (deliberately adversarial against log order).
          Draining one record first drains its still-unrecovered
          conflict-graph predecessors in log order; anything left
          untouched is swept afterwards in log order. Each drained
          closure is down-closed, so the run is a conflict-respecting
          interleaving of per-component log orders. *)

type result = {
  final : State.t;
  redo_set : Digraph.Node_set.t;
      (** Operations for which the redo test returned true. *)
  iterations : iteration list;
      (** Per-iteration snapshots; empty unless {!recover} was called
          with [~trace:true]. In replay order: log order, drain order
          for [Touch_order], and the shard traces concatenated in shard
          order for [Shards] — each shard's trace is log-ordered, but
          the concatenation is {e not} a global log order. *)
  shard_runs : shard_run list;  (** Empty unless the schedule is [Shards]. *)
}

and shard_run = {
  shard : Partition.shard;
  shard_result : result;
      (** The shard's replay against the shared crash state: [final]
          is authoritative only on [shard.vars]; [iterations] is the
          shard's own trace (when tracing). *)
}

val no_analysis : unit spec -> unit spec
(** Identity; documents that a spec uses no analysis state. *)

val always_redo : unit spec
(** Redo every unrecovered operation — the redo test of logical and
    physical recovery (Sections 6.1–6.2), which rely entirely on the
    checkpoint to bound the redo set. *)

val redo_if : (Op.t -> State.t -> bool) -> unit spec
(** Analysis-free spec from a state-dependent test (e.g. an LSN
    comparison, Section 6.3). *)

(** {1 Per-shard checkpoint horizons}

    A sharded checkpoint (the write-graph installer) promises
    installation per component, not as one global prefix: each
    {!horizon} says "within [scope], the operations in [installed] need
    not be redone". Corollary 5 makes every such per-component claim a
    potentially recoverable prefix on its own, and disjoint scopes make
    their union one. *)

type horizon = {
  scope : Var.Set.t;  (** The shard's variables. *)
  installed : Digraph.Node_set.t;
      (** Operations the horizon lets recovery ignore; must only touch
          [scope]. *)
}

val checkpoint_of_horizons : horizon list -> Digraph.Node_set.t
(** Union of the horizons' installed sets — the checkpoint the horizons
    jointly express.
    @raise Invalid_argument if two horizon scopes overlap (components
    are disjoint by construction; overlap means the caller mixed
    horizons from different write graphs). *)

(** {1 Recovery} *)

val recover :
  ?trace:bool ->
  ?sink:(iteration -> unit) ->
  ?schedule:schedule ->
  ?horizons:horizon list ->
  'a spec ->
  state:State.t ->
  log:Log.t ->
  checkpoint:Digraph.Node_set.t ->
  result
(** Run Figure 6's [recover(state, log, checkpoint)]. [checkpoint] is
    the set of operations the checkpoint allows recovery to ignore
    (Section 4.2); [horizons] (default none) add their installed sets
    to it. [schedule] (default [Log_order]) orders the replay. Every
    loop is a single pass over its records — O(records) total.

    With [~trace:true] (default [false]) each iteration snapshots its
    pre-state and unrecovered set so {!check_invariant} can audit every
    step after the fact; a [~sink] receives the same snapshots {e as
    they happen} without retaining them, so a streaming {!auditor} can
    observe an arbitrarily long recovery in O(1) extra memory. Untraced,
    sink-less runs keep O(n) memory and can only be audited at the
    final state.

    [final] and [redo_set] agree across schedules for every spec in
    this library: redo tests read only the variables the operation
    accesses, and analyses look only at the unrecovered set they are
    given, so each is confined to the component it is asked about.
    {!Redo_methods.Theory_check} re-verifies that agreement on every
    check.

    Metrics: [recover.runs] counts every call; [recover.parallel.runs],
    [recover.sharded.runs] and [recover.lazy.runs] count [Shards] runs,
    runs with horizons and [Touch_order] runs. Per-shard tallies go to
    the [recover.shard.*] counters and the [recover.shard.ops]
    histogram after the join.
    @raise Invalid_argument when [~sink] is given with [Shards] — one
    observer would race across domains; use the schedule's
    [shard_sink]. *)

val succeeded : ?universe:Var.Set.t -> log:Log.t -> result -> bool
(** Did recovery terminate in the state determined by the conflict
    graph (the execution's final state)? *)

type invariant_violation = {
  at_iteration : int;  (** 0 = before the first iteration. *)
  installed : Digraph.Node_set.t;
  reason : string;
}

val installed_at :
  log:Log.t ->
  redo_set:Digraph.Node_set.t ->
  unrecovered:Digraph.Node_set.t ->
  Digraph.Node_set.t
(** [installed_i = operations(log) − (redo_set ∩ unrecovered_i)]: the
    operations that will never (or never again) be redone. *)

(** {1 Auditing}

    The audit has two forms. The streaming form pairs an {!auditor}
    with {!recover}'s [~sink], checking the invariant at every
    iteration as recovery runs — O(1) retained memory, and checking
    stops at the first violation, which {!audit_finish} reports with
    its installed set and reason. The post-hoc
    form, {!audit} / {!check_invariant}, replays the [iterations] of a
    [~trace:true] result through the same checks. *)

type auditor

type audit_report = {
  violation : invariant_violation option;
      (** [None] means every audited point satisfied the invariant. *)
  iterations_checked : int;
      (** Per-iteration points actually audited (the final state is
          always checked, on top of these). {b Caveat:} on a result
          produced without [~trace:true] (and with no [~sink]) this is
          [0] — a "clean" report then only says the final state is
          explained, a strictly weaker guarantee than a full audit.
          Always inspect this count before trusting [violation =
          None]. *)
}

val auditor :
  ?universe:Var.Set.t -> log:Log.t -> redo_set:Digraph.Node_set.t -> unit -> auditor
(** A streaming invariant checker for a recovery whose redo set is
    known up front ([redo_set] is what the redo test will replay — for
    a method projection, its [redo_ids]). Feed it iterations with
    {!audit_observe} (typically as [recover]'s [~sink]), then close
    with {!audit_finish}. *)

val audit_observe : auditor -> iteration -> unit
(** Check the invariant at this iteration's pre-state. After the first
    violation the auditor stops checking (the report keeps the first). *)

val audit_finish : auditor -> final:State.t -> audit_report
(** Check the final state (unrecovered = ∅) and close the audit. *)

val audit : ?universe:Var.Set.t -> log:Log.t -> result -> audit_report
(** Post-hoc audit of a completed run: replay [result.iterations]
    through an {!auditor} and finish at [result.final]. See the
    {!audit_report.iterations_checked} caveat for untraced results. *)

val check_invariant :
  ?universe:Var.Set.t -> log:Log.t -> result -> invariant_violation option
(** [(audit ?universe ~log result).violation]. [None] means the
    invariant held at every {e audited} point (and hence, by
    Corollary 4, recovery succeeded) — but see
    {!audit_report.iterations_checked}: on an untraced result only the
    final state is checked, and the [None] is indistinguishable from a
    full audit's. Prefer {!audit} when the depth of the audit
    matters. *)

val pp_violation : invariant_violation Fmt.t
