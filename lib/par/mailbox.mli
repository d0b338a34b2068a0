(** A bounded MPSC mailbox with a dedicated consumer domain.

    The complement of {!Domain_pool}: a pool spreads independent tasks
    over interchangeable workers, a mailbox serializes a stream of
    tasks: {e one} at a time, in arrival order. That ordering is the
    whole point — state touched only by mailbox tasks (a shard's cache,
    its bookkeeping) needs no further synchronisation, because no two
    tasks ever overlap and the mailbox's mutex orders each task after
    the one before it, with happens-before edges on both sides. Most
    tasks run on the owner (consumer) domain; a synchronous {!run} on
    an idle mailbox runs in its caller instead, under the same rule.

    Posting is multi-producer: any domain may {!post}, {!call} or
    {!run}. Backpressure is built in — the queue is bounded, and a post
    into a full mailbox blocks until the consumer drains, so a fast
    producer cannot balloon the queue into unbounded memory. A blocked
    producer resumes once the consumer has drained the queue to half
    its capacity ([capacity / 2] tasks queued), not at the first free
    slot: woken at every slot, a producer on the consumer's CPU would
    preempt it to post a single task and block again, two context
    switches per task while the queue stays full.

    Task exceptions: a {!post}ed task's exception is stashed and
    re-raised at the next {!drain} or {!close} (the producer has moved
    on); a {!call}'s exception travels through its ticket and re-raises
    at {!Ticket.await}; a {!run}'s re-raises at its caller.

    A task must not {!run} or {!call}-and-await on its own mailbox: the
    nested task waits for the running one to end, which waits for it —
    a deadlock, whichever path the outer task took. *)

type t

(** A completion ticket for work handed to another domain: fulfilled
    exactly once by the consumer, awaited by any domain. *)
module Ticket : sig
  type 'a t

  val await : 'a t -> 'a
  (** Block until fulfilled; re-raises the task's exception if it
      failed. *)

  val poll : 'a t -> 'a option
  (** [Some result] if already fulfilled successfully, [None] if still
      pending; re-raises if the task failed. *)
end

val create : ?name:string -> ?capacity:int -> unit -> t
(** Spawn the consumer domain. [capacity] (default 1024) bounds the
    queue; producers block when it is full.
    @raise Invalid_argument on [capacity <= 0]. *)

val name : t -> string

val post : t -> (unit -> unit) -> unit
(** Enqueue a task for the consumer. Into a full queue it blocks until
    the consumer has drained the queue to [capacity / 2] tasks (or the
    mailbox closes).
    @raise Invalid_argument if the mailbox is closed. *)

val call : t -> (unit -> 'a) -> 'a Ticket.t
(** [post] a task and hand its result back through a ticket. *)

val run : t -> (unit -> 'a) -> 'a
(** Run [f] as a task and return its result: {!call} plus
    {!Ticket.await}, without the hand-off when it is not needed. If the
    queue is empty and no task is executing, [f] runs in the calling
    domain, holding the consumer off until it returns (flat combining:
    the mailbox still runs one task at a time, in arrival order);
    otherwise it is queued behind the others and the caller blocks on
    its ticket. An exception from an inline [f] re-raises here with its
    backtrace. The metrics counters [mailbox.runs_inline] and
    [mailbox.runs_queued] count the two paths.
    @raise Invalid_argument if the mailbox is closed. *)

val depth : t -> int
(** Tasks currently queued (excludes the one being executed). *)

val drain : t -> unit
(** Block until the queue is empty and no task is executing (an inline
    {!run} included). Re-raises the first stashed task exception, if
    any. *)

val close : t -> unit
(** Stop accepting tasks, let the consumer finish the queue (and wait
    out an inline {!run} in progress), and join its domain. Idempotent
    from the owning domain. Re-raises the first stashed task exception,
    if any. *)
