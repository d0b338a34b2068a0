(** End-to-end operation latency tracing with tail attribution.

    One operation in [sample_every] carries a {!ticket} of wall-clock
    stamps, one per lifecycle edge of the sharded service's write path:

    {v post -> dequeue -> apply -> stage -> batch -> force -> ack v}

    naming the six stages [dwell] (mailbox queueing), [apply] (shard
    owner), [stage] (WAL append to async-force staging), [batch] (wait
    for group-commit batch admission), [force] (the medium write) and
    [ack] (stable acknowledgement, durable operations only). Stage
    durations telescope against the latest earlier stamped edge, so a
    ticket's stage sums equal its end-to-end latency exactly.

    Client and owner edges are stamped directly on the ticket (the
    mailbox handoff orders them); committer edges arrive keyed by LSN
    through {!register}/{!wal_staged}/{!batch_admitted}/
    {!force_completed}/{!acked}, which stamp every in-flight ticket the
    horizon covers. A completed ticket folds, under the in-flight
    table's mutex, into one copy of the statistics: {!Metrics}
    histograms in a registry of Oplat's own (one per stage, end to
    end, and end to end again per dominant stage for tail
    attribution), one reservoir of full traces, and one
    wall-clock-bucketed time series. A recovery window times the last
    restart and its first operation. Every hook costs one Atomic load
    when disabled. *)

type ticket
(** One sampled operation's stamps. Mutable; owned by whichever domain
    currently holds the operation (mailbox handoffs and the in-flight
    table's mutex order the writes). *)

(** {1 Switches} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val set_sample_every : int -> unit
(** Sample one operation in [n] across all posting domains (default
    32). Raises [Invalid_argument] if [n < 1]. *)

val reservoir_cap : int
(** Full traces retained for the Chrome export (128). *)

val reset : unit -> unit
(** Clear the statistics, the in-flight table, the drop tally and the
    recovery window, and restart the time-series origin. *)

(** {1 Recording: client and owner edges} *)

val sample : unit -> ticket option
(** One Atomic 1-in-[sample_every] counter shared by every caller;
    [Some] stamps the [post] edge. Always [None] when disabled (one
    Atomic load). *)

val stamp_dequeue : ticket -> shard:int -> unit
(** The shard owner dequeued the operation: closes [dwell]. *)

val stamp_apply : ticket -> unit
(** The owner applied it to the shard page: closes [apply]. *)

val register : ticket -> lsn:int -> durable:bool -> unit
(** Publish the ticket into the LSN-keyed in-flight table so the
    committer hooks below can stamp it. Eventually-durable tickets
    complete at {!force_completed}; [durable] ones at {!acked}. *)

(** {1 Recording: committer edges (called under the group mutex)} *)

val wal_staged : lsn:int -> unit
(** The async force request for [lsn] was staged: closes [stage]. *)

val batch_admitted : upto:int -> unit
(** A batched force is about to run for horizon [upto]: closes [batch]
    for every in-flight ticket it covers. *)

val force_completed : upto:int -> unit
(** The medium write finished: closes [force] and finalizes covered
    eventually-durable tickets. *)

val acked : upto:int -> unit
(** A durability barrier returned: closes [ack] and finalizes covered
    durable tickets. *)

val drain : unit -> unit
(** Finalize in-flight stragglers with the edges they have (sync/close). *)

val drop_inflight : unit -> unit
(** A crash lost the staged tail: drop in-flight tickets, counted but
    never folded into the statistics. *)

(** {1 Recording: mailbox dwell} *)

val mailbox_sample : unit -> bool
(** The generic mailbox dwell probe's own shared 1-in-[sample_every]
    counter ([Mailbox.post] wraps the task when it fires). *)

val mailbox_dwell : float -> unit
(** Record one post-to-dequeue dwell (nanoseconds). *)

(** {1 Recovery window} *)

val recovery_start : unit -> unit
(** Recovery began: open a new window and arm the time-to-first-op
    stamp. *)

val recovery_finished : unit -> unit
(** The recovered set is total: close the window. Idempotent: only the
    first call after {!recovery_start} stamps. *)

val first_op : unit -> unit
(** The first operation after {!recovery_start} reached the service;
    stamps once (CAS-armed), nearly free afterwards. The winning stamp
    also sets the [restart.time_to_first_op_ns] gauge (elapsed from
    recovery start). *)

(** {1 Reporting} *)

type stage_view = {
  sv_name : string;
  sv_events : int;
  sv_mean_ns : float;
  sv_p50_ns : float;  (** Interpolated, see {!Metrics.percentile_interp}. *)
  sv_p99_ns : float;
  sv_p999_ns : float;
  sv_max_ns : float;
  sv_sum_ns : float;
}

type recovery_view = {
  rv_elapsed_ns : float;  (** Start to finish, or to now if still replaying. *)
  rv_finished : bool;
  rv_first_op_ns : float option;  (** First post-recovery op, from recovery start. *)
}

type report = {
  r_sampled : int;
  r_completed : int;
  r_dropped : int;
  r_stages : stage_view list;  (** Stage order: dwell, apply, stage, batch, force, ack. *)
  r_e2e : stage_view;
  r_dwell : stage_view;  (** The generic mailbox-dwell probe. *)
  r_coverage : float;
      (** Sum of stage sums over the end-to-end sum; 1.0 up to clock
          monotonicity by the telescoping construction. *)
  r_tail_pct : float;
  r_tail_threshold_ns : float;
  r_tail_total : int;
  r_tail : (string * int) list;
      (** Ops beyond the [r_tail_pct] (99) end-to-end bucket, split by
          dominant stage, descending. *)
  r_recovery : recovery_view option;
}

val report : unit -> report
(** Read the statistics; the tail is the ops beyond the end-to-end
    p99. Take it after a quiescent point (sync/drain) for exact
    counts. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> string

val timeseries_jsonl : unit -> string
(** One JSON object per line per 100 ms wall-clock bucket:
    [{"t_ms", "ops", "mean_ns", "max_ns", "stages_ns": {...}}]. *)

val chrome_json : unit -> string
(** The reservoir traces as Chrome trace_event JSON: one ["op"] span
    per ticket on its own track (concurrent ops must not share a
    nesting stack), one child span per present stage; the owning shard
    rides in the span attrs. *)

val trace_count : unit -> int
(** Reservoir occupancy (at most {!reservoir_cap}). *)
