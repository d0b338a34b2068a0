(** Named metrics: counters, gauges, and fixed-bucket histograms.

    A registry maps names to mutable instruments. Handles are resolved
    once (typically at module initialisation) and recording is a direct
    field update — an [incr] is one integer store, an [observe] is a
    binary search over a small fixed bound array plus two stores — so
    instrumentation on hot paths costs a few nanoseconds whether or not
    anyone ever reads the registry.

    Most code records into the process-wide {!default} registry; tests
    can create private registries to stay isolated. *)

type counter
(** A monotonically increasing integer. Backed by an [Atomic], so
    {!incr}/{!add} are safe from any domain — concurrent increments
    are never lost. *)

type gauge
(** A level that can move both ways (e.g. cached pages, dirty pages).
    Plain mutable: single-writer only. Worker domains must not [set]
    gauges (none of the instrumented subsystems — WAL, cache,
    simulator — are reachable from recovery's worker domains, which
    only replay pure shard state). *)

type histogram
(** A fixed-bucket histogram: observations land in the first bucket
    whose upper bound is [>=] the value, or in the implicit overflow
    bucket past the last bound. Multi-field updates, so single-writer
    only, like gauges: parallel recovery accumulates per-shard tallies
    locally and observes from the coordinating domain after the join,
    and a histogram that several domains observe at once goes through
    {!observe_locked} at every call site. *)

type t
(** A registry of named instruments. *)

val create : unit -> t

val default : t
(** The process-wide registry every instrumented subsystem records
    into. *)

(** {1 Instruments}

    Lookup is by name; asking twice for the same name returns the same
    handle, so modules can resolve handles at load time and callers can
    re-resolve for reading. *)

val counter : ?registry:t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val gauge : ?registry:t -> string -> gauge
val set : gauge -> float -> unit
val level : gauge -> float

val duration_bounds_ns : float array
(** Default histogram bounds: log-spaced durations from 100 ns to 1 s. *)

val count_bounds : float array
(** Log-spaced bounds for event counts (1 .. 65536), e.g. records per
    force. *)

val log_scale : ?per_decade:int -> lo:float -> hi:float -> unit -> float array
(** Generated log-spaced bounds: [per_decade] buckets (default 3) per
    factor of 10, from [lo] up to exactly [hi]. Prefer this over fixed
    arrays for tail-heavy distributions (wait times, batch sizes under
    contention), whose spread a linear or hand-picked array clips.
    Raises [Invalid_argument] unless [0 < lo < hi] and
    [per_decade >= 1]. *)

val histogram : ?registry:t -> ?bounds:float array -> string -> histogram
(** [bounds] (default {!duration_bounds_ns}) must be strictly
    increasing; it is fixed at first creation and ignored on later
    lookups of the same name. *)

val observe : histogram -> float -> unit

val observe_locked : histogram -> float -> unit
(** {!observe} under one process-wide mutex, for histograms that
    several domains observe concurrently (each shard owner's checkpoint
    install, each owner's lazy-redo drains). Every observer of such a
    histogram must use it. *)

val events : histogram -> int
val mean : histogram -> float

val max : histogram -> float
(** The largest observed value (0 before any observation). *)

val bucket_counts : histogram -> int array
(** Per-bucket tallies, one slot per bound plus the overflow bucket
    (a copy; mutating it does not affect the histogram). *)

val percentile : histogram -> float -> float
(** [percentile h p] (with [p] in [0..100]) is the upper bound of the
    bucket holding the [p]-th percentile observation — an overestimate
    bounded by the bucket resolution. The overflow bucket reports the
    maximum observed value. Zero observations report 0. *)

val percentile_interp : histogram -> float -> float
(** Like {!percentile}, but interpolated linearly within the bucket
    holding the rank (between the previous bound, or 0 for the first
    bucket, and the bucket's bound), clamped to the observed maximum —
    the bucket-resolution refinement `redo stats --json` reports next
    to the raw bounds. *)

(** {1 Spans} *)

val span : histogram -> (unit -> 'a) -> 'a
(** Time the thunk on {!Span.now_ns} and [observe] the elapsed
    nanoseconds (also on exception). *)

(** {1 Reading} *)

val reset : ?registry:t -> unit -> unit
(** Zero every instrument (handles stay valid). *)

val counter_values : ?registry:t -> unit -> (string * int) list
(** Current counter readings, sorted by name. *)

val counter_diff :
  before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-name deltas ([after] minus [before]), dropping zeros — the
    counters a measured region actually moved. *)

type histogram_view = {
  hv_name : string;
  hv_events : int;
  hv_mean : float;
  hv_p50 : float;  (** Bucket upper bound, see {!percentile}. *)
  hv_p90 : float;
  hv_p99 : float;
  hv_max : float;
  hv_p50i : float;  (** Interpolated, see {!percentile_interp}. *)
  hv_p90i : float;
  hv_p99i : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram_view list;
}

val snapshot : ?registry:t -> unit -> snapshot
(** A consistent, name-sorted reading of the whole registry. *)

val pp : snapshot Fmt.t
(** Human-readable sections: counters, gauges, histograms. *)

val to_json : snapshot -> string
(** One JSON object:
    [{"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}]. *)
