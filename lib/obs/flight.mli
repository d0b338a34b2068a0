(** Crash-surviving flight recorder.

    Appends compact, checksummed observability frames (commit / force /
    batch / checkpoint / eviction events, each carrying an LSN where
    applicable plus a monotonic timestamp, domain id and per-domain
    sequence number) to a bounded ring of stable segments. Frames use
    the WAL's encoding discipline — [u32 len | u32 crc32 | payload] —
    so a torn recorder tail is detected and truncated by the scan
    exactly like a torn log tail.

    The recorder is a process-global singleton guarded by
    {!enabled} (one Atomic load-and-branch when off, the
    [Span.enabled] pattern). Its segments model stable storage in the
    same way the simulated WAL medium does: {!crash} applies the torn
    tail, seals the epoch and stamps the crash marker, after which
    {!scan} / {!save} read the survivors with no live process state. *)

type event =
  | Commit of { lsn : int }
      (** A group-commit barrier completed: the waiter was told "stable". *)
  | Stage of { lsn : int }  (** An async force request staged into the next batch. *)
  | Batch of { upto : int; requests : int }
      (** One batched force served [requests] staged/barrier waiters. *)
  | Force of { upto : int; records : int }
      (** The stable horizon advanced to [upto], writing [records] frames. *)
  | Checkpoint of { lsn : int; dirty : int }  (** Global checkpoint record appended. *)
  | Shard_ckpt of { lsn : int; shard : int; total : int; horizon : int; pages : int list }
      (** A per-shard checkpoint record appended (graded durability: it
          may still be staged when the crash hits). *)
  | Flush of { page : int; forced : bool }  (** Cache wrote a dirty page to disk. *)
  | Evict of { page : int; dirty : bool }  (** Cache evicted an entry. *)
  | Phase of { name : string; crash : int }  (** Recovery phase transition. *)
  | Crash of { crash : int; torn : bool }
      (** The crash marker {!crash} stamps into the fresh segment after
          the tear, so it survives the tear. *)
  | Note of string  (** Free-form marker (tests, tooling). *)
  | Lazy_drain of { page : int; queue : int; demand : bool }
      (** Instant restart drained one page's redo queue of [queue]
          records — [demand] means a client operation faulted on the
          page, otherwise the background sweeper reached it. Lets
          post-crash triage reconstruct what was recovered on-demand
          when a crash lands mid-lazy-recovery. *)

type frame = { seq : int; domain : int; ts_ns : int; event : event }
(** [seq] is monotone per domain (1, 2, 3, …); [ts_ns] is nanoseconds
    on the monotonic clock ({!Span.now_ns}) since the recorder epoch
    ({!configure}/{!reset}), so it never decreases along a domain's
    [seq]. *)

(** {1 Recording} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val configure : ?segments:int -> ?segment_bytes:int -> unit -> unit
(** Rebuild the ring ([segments] ≥ 2 stable segments of [segment_bytes]
    each, defaults 4 × 64 KiB) and restart the epoch: clears all frames,
    sequence counters and the drop tally. *)

val reset : unit -> unit
(** {!configure} with the current geometry. *)

val emit : event -> unit
(** Append one frame. No-op when disabled; callers on hot paths should
    guard with [if Flight.enabled () then Flight.emit …] so the disabled
    cost is a single branch. When the active segment fills, the ring
    rotates and the oldest segment's frames are dropped (counted, see
    {!scan}). *)

(** {1 Crash} *)

val crash : ?drop:int -> int -> unit
(** [crash ?drop n] is the crash gate for crash number [n], run before
    volatile state is discarded. The crash reaches the recorder's
    medium: chop [drop] bytes (default 0) off the actively-written
    segment (the same tear the WAL medium suffers — possibly leaving a
    torn frame for the scan to truncate), seal the epoch, then stamp
    [Crash { crash = n; torn = drop > 0 }] as the first frame of the
    fresh segment. No-op when disabled, like {!emit}. *)

(** {1 Post-crash scan} *)

type scan = {
  frames : frame list;  (** Decode order = emit order, oldest surviving first. *)
  segments_used : int;
  torn_segments : int;  (** Segments whose tail failed the frame scan. *)
  live_bytes : int;
  dropped_frames : int;  (** Lost to ring rotation/oversize — not to tears. *)
  rotations : int;
      (** How often the ring wrapped; non-zero means the flight no
          longer starts at the beginning. *)
}

val scan : unit -> scan
(** Decode every surviving segment (generation order), truncating each
    torn tail at the first frame that fails its length/CRC/decode check. *)

val save : string -> unit
(** Serialise the surviving segments to a dump file for offline triage
    ([redo triage --from-dump]). Torn tails are preserved verbatim. *)

val load : string -> scan
(** Read a {!save} dump and run the same truncating scan. Standalone:
    does not touch the live recorder. *)

(** {1 Rendering} *)

val event_name : event -> string
(** Stable dotted name, e.g. ["flight.force"] — used as the span/track
    name in Chrome-trace export. *)

val event_attrs : event -> (string * Span.value) list
val pp_event : Format.formatter -> event -> unit
val pp_frame : Format.formatter -> frame -> unit
val frame_to_json : frame -> string
