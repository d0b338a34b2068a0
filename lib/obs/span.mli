(** Hierarchical, domain-aware timed spans.

    A span is a named interval with an id, a parent id, the id of the
    domain that recorded it, and typed attributes. With profiling
    disabled (the default) {!span} costs one load-and-branch and runs
    the thunk directly; call sites hotter than a closure allocation
    guard on {!enabled} themselves.

    When enabled, each domain records into its own buffer with no
    synchronisation (one mutex acquisition per domain lifetime, to
    register the buffer), so worker domains replaying shards never
    contend. {!collect} merges the buffers afterwards.

    Recording and collection are phase-separated by design: enable,
    run the workload, disable, then {!collect} or {!reset}. Collecting
    while another domain is still recording is a data race — join (or
    quiesce) the workers first, as {!Redo_par.Domain_pool.run} does. *)

type value = String of string | Int of int | Float of float | Bool of bool
(** A typed attribute value: span attributes, and the fields of a
    {!Flight} frame when it is rendered. *)

val json_string : string -> string
(** [s] as a JSON string literal: valid UTF-8 passes through, the
    double quote, the backslash and bytes below 0x20 are escaped, and
    each ill-formed UTF-8 sequence becomes the escape [\\ufffd]. Every
    JSON emitter in the program quotes its keys and strings with this. *)

val json_float : float -> string
(** [f] as a JSON number, printed [%.17g] (which round-trips), or
    [null] when [f] is not finite. *)

val json_value : value -> string
(** The value as a JSON literal, through {!json_string} or
    {!json_float}. *)

type span = {
  id : int;  (** Unique within a recording session, 1-based. *)
  parent : int;  (** Id of the enclosing span; 0 for a root. *)
  domain : int;  (** The domain that recorded it ([Domain.self]). *)
  name : string;
  start_ns : float;
  end_ns : float;
  attrs : (string * value) list;
}

val duration_ns : span -> float

val enabled : unit -> bool
(** One atomic load; [false] by default. *)

val set_enabled : bool -> unit

val now_ns : unit -> float
(** Nanoseconds on the monotonic clock ([CLOCK_MONOTONIC], arbitrary
    origin): the one clock behind span timestamps, {!Metrics.span} timings,
    flight-recorder frames and latency-tracer stamps. Only differences
    and offsets from an earlier reading mean anything. *)

val reset : unit -> unit
(** Drop every buffered span and open frame in every domain's buffer
    and restart ids. Call only while no domain is recording. *)

val span : ?parent:int -> ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f] as a child of the innermost open span on
    this domain (or of [?parent], for work handed across domains —
    capture {!current} on the submitting side). The span is closed even
    if [f] raises. Disabled: exactly [f ()] after one branch. *)

val current : unit -> int
(** Id of the innermost open span on the calling domain; 0 when none
    or when disabled. *)

val note : (string * value) list -> unit
(** Append attributes to the innermost open span on this domain; no-op
    when disabled or when no span is open. Guard the list construction
    with {!enabled} on hot paths. *)

val collect : unit -> span list
(** Completed spans from every domain's buffer, sorted by start time.
    Spans recorded by since-terminated domains are included. *)

val of_parts :
  id:int ->
  parent:int ->
  domain:int ->
  name:string ->
  start_ns:float ->
  end_ns:float ->
  attrs:(string * value) list ->
  span
(** Build a span directly — for tests and importers, not recording. *)

val pp : span Fmt.t

(** {1 Chrome trace_event export}

    The exported JSON loads in Perfetto / [chrome://tracing]: complete
    ("ph": "X") events, microsecond timestamps from the earliest span,
    [pid] 1, one track ([tid]) per domain, attributes under [args]. *)

type chrome_event = {
  ev_name : string;
  ev_ph : string;
  ev_ts : float;  (** microseconds from the trace origin *)
  ev_dur : float;  (** microseconds *)
  ev_pid : int;
  ev_tid : int;  (** the recording domain *)
}

val chrome_events : span list -> chrome_event list
(** The event-per-span view the JSON is generated from, for
    validation. *)

val chrome_json : span list -> string
(** One JSON object: [{"traceEvents": [...], "displayTimeUnit": "ms"}],
    with a [thread_name] metadata event per domain track. *)
