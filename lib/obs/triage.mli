(** Post-crash triage: correlate surviving flight-recorder frames with
    the stable log's survivors — with no live process state — and
    report who the system made durability promises to and whether it
    kept them.

    The analysis scopes to the final pre-crash epoch (frames between
    the previous {!Flight.event.Crash} frame and the last one); frames
    after the last Crash frame are the recovery timeline. *)

type log_summary = {
  stable_lsn : int;  (** Post-crash stable horizon (= surviving record count). *)
  stable_records : int;
  stable_bytes : int;
  checkpoint_lsn : int option;  (** Newest stable global checkpoint. *)
  shard_horizons : (int * int) list;
      (** page → newest stable shard horizon, as recovery's
          surely-on-disk test reads it
          ([Log_manager.stable_shard_horizons]). *)
}
(** Plain data so triage stays below [lib/wal] in the dependency order;
    build it with [Simulator.triage_log_summary] (or by hand). *)

type ticket_kind =
  | Barrier  (** A completed commit barrier: the waiter was told "stable". *)
  | Staged  (** An async force request racing the crash. *)

type ticket = {
  t_lsn : int;
  t_kind : ticket_kind;
  t_claimed : bool;  (** The recorder shows stability was claimed for this LSN. *)
  t_survived : bool;  (** The LSN is within the post-crash stable horizon. *)
  t_domain : int;
  t_ts_ns : int;
}

type shard_record = {
  s_lsn : int;
  s_shard : int;
  s_total : int;
  s_horizon : int;
  s_pages : int list;
  s_survived : bool;
  s_plan_agrees : bool;
      (** If stable, every covered page's plan horizon is ≥ this
          record's horizon (a newer record may supersede it). Vacuously
          true for lost records — the plan never sees them. *)
}

type lazy_drain = {
  ld_page : int;
  ld_queue : int;  (** Records the drain replayed. *)
  ld_demand : bool;  (** A client op faulted on the page (else the sweeper). *)
  ld_pre_crash : bool;
      (** The drain belongs to the crashed epoch: an instant restart
          that was itself cut down mid-recovery. Those pages were
          recovered and possibly served before the second crash; the
          next recovery replays them again from the same stable log
          (idempotent under the page-LSN redo test). *)
  ld_domain : int;
  ld_ts_ns : int;
}

type report = {
  flight : Flight.scan;
  log : log_summary;
  crash : (int * bool) option;  (** Number and torn-ness of the final crash. *)
  epoch_frames : Flight.frame list;
  post_frames : Flight.frame list;
  last_claimed : int;  (** Highest LSN the recorder shows claimed stable. *)
  last_staged : int;  (** Highest LSN staged or committed pre-crash. *)
  staged_lost : int;  (** Tickets whose frames did not survive. *)
  lied_to : int;  (** Claimed stable but lost: must be 0. *)
  tickets : ticket list;
  shard_records : shard_record list;
  phases : (string * int) list;  (** Post-crash recovery phases. *)
  lazy_drains : lazy_drain list;
      (** What instant restart recovered on demand — crashed-epoch
          drains first, then the current recovery's. *)
}

val analyze : flight:Flight.scan -> log:log_summary -> report

val ok : report -> bool
(** No waiter was lied to and every stable shard record agrees with the
    recovery plan. *)

val staged_verdicts : report -> (int * bool) list
(** [(lsn, survived)] for each staged ticket — directly comparable to
    in-process [Log_manager.ticket_stable] verdicts. *)

val pp : ?timeline:int -> Format.formatter -> report -> unit
(** Full pretty report; [timeline] bounds the trailing frame dump
    (default 20). *)

val to_json : report -> string

val chrome_spans : report -> Span.span list
(** One zero-duration event per frame, one track per domain — opens in
    the same Perfetto view as profiler traces. *)

val chrome_json : report -> string
