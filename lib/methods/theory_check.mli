(** The recovery checker: verify a crashed system against the theory.

    Given a method's {!Projection} of its stable log, stable state and
    redo test, this module re-states Section 4.5's Recovery Invariant
    and Corollary 4 as an executable check:

    + the operations the redo test will {e not} replay must form a
      prefix of the installation graph;
    + that prefix must explain the stable state (exposed variables hold
      exactly the prefix-determined values);
    + the abstract [recover] procedure of Figure 6, driven by this redo
      set, must terminate in the state determined by the conflict graph,
      with the invariant intact at every iteration.

    A method that maintains the invariant passes this check after {e
    any} crash; a bug in its checkpoint, WAL hook, LSN handling or cache
    write ordering surfaces as a structured failure report. *)

type report = {
  method_name : string;
  op_count : int;  (** Operations on the stable log. *)
  installed_count : int;
  redo_count : int;
  shard_count : int;
      (** Conflict-closed shards of the redo set ({!Redo_core.Partition});
          0 when the check ran sequentially ([~domains:1]). *)
  installed_is_prefix : bool;
  state_explained : bool;
  recovery_succeeds : bool;
  invariant_held : bool;
  parallel_agrees : bool;
      (** Shard-parallel replay of the same redo set produced the same
          final state and redo set as the sequential pass — Theorem 3's
          commutation of conflict-free components, checked on this very
          workload. Trivially true with [~domains:1]. *)
  sharded_agrees : bool;
      (** Recovery from {e per-shard checkpoint horizons} (the installed
          set expressed as one horizon per conflict component, replayed
          through {!Redo_core.Recovery.recover}'s [Shards] schedule)
          produced the same final state and redo set as the global
          checkpoint, with the Recovery Invariant audited clean during
          every shard's replay. Runs on every check, even [~domains:1]
          (the shards then replay inline). *)
  lazy_agrees : bool;
      (** Demand-order replay ({!Redo_core.Recovery.recover}'s
          [Touch_order None] schedule: per-home-variable queues touched
          in descending variable order, each drain pulling its
          still-unrecovered conflict predecessors first) produced the
          same final state and redo set as the sequential pass — the theory-level soundness of instant
          restart's page-granular lazy redo, checked on this very
          workload. Runs on every check. *)
  audited_iterations : int;
      (** Recovery iterations the streaming auditor actually checked;
          the final state is always checked on top. A passing report
          with a low count is a weaker guarantee (see
          {!Redo_core.Recovery.audit_report}). *)
  sharded_audited : int;
      (** Iterations audited across the sharded-horizon leg's per-shard
          streaming auditors. *)
  failure : string option;  (** [None] iff everything holds. *)
  diagnosis : string list;
      (** When the state is unexplained: one line per exposed variable
          that disagrees, with both values and the operation that would
          read the damage. *)
}

val ok : report -> bool

val check : ?domains:int -> ?pool:Redo_par.Domain_pool.t -> Projection.t -> report
(** [domains] (default 2) sizes the domain pool for the
    parallel-equivalence leg of the check; [~domains:1] skips it (and
    reports [parallel_agrees = true], [shard_count = 0]). The
    sharded-horizon leg always runs. [?pool] reuses an existing pool
    for both legs instead of spawning one per call (crash-torture loops
    pass {!Redo_par.Domain_pool.shared}). *)

val pp_report : report Fmt.t

(** {1 Serial-equivalence certificates}

    The complementary check for {e concurrent} front ends (the sharded
    KV service): the WAL's LSN order is a serial witness — one thread
    applying the logged operations in LSN order from empty state. A
    certificate records that the concurrent system's observable
    contents equal that witness, live (full log) or after
    crash + recovery (stable prefix). Combined with {!check}, which
    audits the Recovery Invariant over the same order, a certified run
    has concurrent execution + crash + recovery ≡ one serial
    execution. *)

type serial_certificate = {
  sc_method : string;
  sc_phase : string;
      (** ["live"] or ["recovered"] — which log prefix serializes. *)
  sc_ops : int;  (** Operations in the serial witness (log order). *)
  sc_agrees : bool;
  sc_failure : string option;  (** First divergent key, if any. *)
}

val certificate_ok : serial_certificate -> bool

val certify_serial :
  method_name:string ->
  phase:string ->
  ops:int ->
  serial:(string * string) list ->
  observed:(string * string) list ->
  serial_certificate
(** Compare the serial witness against the observed contents; both are
    sorted key-value dumps. On mismatch the failure names the first
    divergent key with both values. *)

val pp_certificate : serial_certificate Fmt.t
