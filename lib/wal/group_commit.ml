open Redo_storage
module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span
module Flight = Redo_obs.Flight
module Oplat = Redo_obs.Oplat

let c_batches = Metrics.counter "wal.group.batches"
let c_forces_saved = Metrics.counter "wal.group.forces_saved"
let c_piggybacked = Metrics.counter "wal.group.piggybacked"

(* Log-scaled buckets: Background-mode contention spreads batch sizes
   and barrier waits over many orders of magnitude, and the old fixed
   arrays (count_bounds capped at 64k, duration bounds at 1 s) clipped
   the tail into the overflow bucket. *)
let h_batch_requests =
  Metrics.histogram
    ~bounds:(Metrics.log_scale ~lo:1. ~hi:1e6 ())
    "wal.group.batch_requests"

let h_wait_ns =
  Metrics.histogram
    ~bounds:(Metrics.log_scale ~lo:100. ~hi:1e10 ())
    "wal.group.wait_ns"

type mode = Inline | Background

type stats = {
  batches : int;
  requests : int;
  forces_saved : int;
  piggybacked : int;
}

(* One mutex rules everything: appends to the shared log (via the
   g_mutex hook), the staging fields below, and the force itself. The
   force happens with the mutex held, so the volatile array can never
   grow under the flusher's feet. MPSC in effect: many committers
   stage; one flusher (the Background domain, or whichever Inline
   barrier gets there first) drains. *)
type t = {
  lm : Log_manager.t;
  md : mode;
  mutex : Mutex.t;
  flush_ready : Condition.t;  (* committers -> flusher: work staged *)
  stable_advanced : Condition.t;  (* flusher -> committers: horizon moved *)
  mutable requested : Lsn.t;  (* highest staged LSN (clamped to last_lsn) *)
  mutable pending_async : int;  (* staged force_async requests, unserved *)
  mutable pending_barriers : int;  (* committers currently waiting *)
  mutable closing : bool;
  mutable flusher : unit Domain.t option;
  (* Monotone accounting; mutated under [mutex]. *)
  mutable s_batches : int;
  mutable s_requests : int;
  mutable s_saved : int;
  mutable s_piggybacked : int;
}

let log t = t.lm
let mode t = t.md

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      batches = t.s_batches;
      requests = t.s_requests;
      forces_saved = t.s_saved;
      piggybacked = t.s_piggybacked;
    }
  in
  Mutex.unlock t.mutex;
  s

(* A request beyond the current tail can only mean "whatever is
   appended by now": clamp so no waiter can wait for an LSN that does
   not exist. Mutex held. *)
let clamp t lsn =
  let last = Log_manager.last_lsn t.lm in
  if Lsn.(last < lsn) then last else lsn

let stable_covers t lsn = Lsn.(lsn <= Log_manager.flushed_lsn t.lm)

(* Force once up to the highest staged LSN; every waiter at or below the
   new horizon is thereby served. Mutex held. *)
let flush_locked t =
  let target = clamp t t.requested in
  if not (stable_covers t target) then begin
    let served = t.pending_async + t.pending_barriers in
    (* Batch admission: every sampled ticket at or below the horizon
       stops waiting and starts being forced. *)
    if Oplat.enabled () then Oplat.batch_admitted ~upto:(Lsn.to_int target);
    let run () = Log_manager.force_direct t.lm ~upto:target in
    if Span.enabled () then
      Span.span "wal.group.force" (fun () ->
          Span.note
            [ "upto", Span.Int (Lsn.to_int target); "requests", Span.Int served ];
          run ())
    else run ();
    t.s_batches <- t.s_batches + 1;
    t.s_saved <- t.s_saved + max 0 (served - 1);
    t.s_piggybacked <- t.s_piggybacked + t.pending_async;
    Metrics.incr c_batches;
    Metrics.add c_forces_saved (max 0 (served - 1));
    Metrics.add c_piggybacked t.pending_async;
    Metrics.observe h_batch_requests (float served);
    (* Recorded after the medium write: a surviving Batch frame is a
       durable claim that [target] is stable. *)
    if Flight.enabled () then
      Flight.emit (Flight.Batch { upto = Lsn.to_int target; requests = served });
    t.pending_async <- 0
  end;
  Condition.broadcast t.stable_advanced

(* Mutex held; [lsn] already clamped. *)
let barrier_locked t lsn =
  if not (stable_covers t lsn) then begin
    if Lsn.(t.requested < lsn) then t.requested <- lsn;
    t.s_requests <- t.s_requests + 1;
    t.pending_barriers <- t.pending_barriers + 1;
    let t0 = Span.now_ns () in
    (match t.md with
    | Inline -> flush_locked t
    | Background ->
      Condition.signal t.flush_ready;
      while (not (stable_covers t lsn)) && not t.closing do
        Condition.wait t.stable_advanced t.mutex
      done;
      (* Racing a close: the committer still owes its caller the
         barrier — force directly. *)
      if not (stable_covers t lsn) then flush_locked t);
    t.pending_barriers <- t.pending_barriers - 1;
    Metrics.observe h_wait_ns (Span.now_ns () -. t0);
    (* The barrier is about to return: this waiter is being told
       "stable". Recorded after the force, so a surviving Commit frame
       that the stable log contradicts means a waiter was lied to. *)
    if Flight.enabled () then Flight.emit (Flight.Commit { lsn = Lsn.to_int lsn })
  end;
  (* Stable ack, on both paths — a barrier that arrives after the force
     already covered its LSN still completes its durable tickets. *)
  if Oplat.enabled () then Oplat.acked ~upto:(Lsn.to_int lsn)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let barrier t lsn = locked t (fun () -> barrier_locked t (clamp t lsn))

(* force_all: the horizon promise and the wait share one critical
   section, so a concurrent append cannot widen the range mid-call. *)
let barrier_all t = locked t (fun () -> barrier_locked t (Log_manager.last_lsn t.lm))

let stage t lsn =
  locked t (fun () ->
      let lsn = clamp t lsn in
      if not (stable_covers t lsn) then begin
        if Lsn.(t.requested < lsn) then t.requested <- lsn;
        t.pending_async <- t.pending_async + 1;
        t.s_requests <- t.s_requests + 1;
        if Oplat.enabled () then Oplat.wal_staged ~lsn:(Lsn.to_int lsn);
        if Flight.enabled () then Flight.emit (Flight.Stage { lsn = Lsn.to_int lsn });
        match t.md with
        | Background -> Condition.signal t.flush_ready
        | Inline -> ()
      end)

let flush t = locked t (fun () -> barrier_locked t (clamp t t.requested))

(* A crash loses staged-but-unflushed requests; taking the mutex also
   guarantees no group force is mid-flight while the caller truncates
   the medium. *)
let crash_reset t =
  locked t (fun () ->
      t.requested <- Lsn.zero;
      t.pending_async <- 0;
      Condition.broadcast t.stable_advanced)

let needs_flush t = not (stable_covers t (clamp t t.requested))

let flusher_loop t =
  locked t (fun () ->
      let rec loop () =
        if needs_flush t then begin
          flush_locked t;
          loop ()
        end
        else if not t.closing then begin
          Condition.wait t.flush_ready t.mutex;
          loop ()
        end
        (* closing && drained: exit *)
      in
      loop ())

let detach t =
  Mutex.lock t.mutex;
  let was_closing = t.closing in
  if not was_closing then begin
    (* Staged requests keep their eventual-durability promise: Inline
       drains here, Background's flusher drains before exiting. *)
    if t.md = Inline && needs_flush t then flush_locked t;
    t.closing <- true;
    Condition.broadcast t.flush_ready;
    Condition.broadcast t.stable_advanced
  end;
  Mutex.unlock t.mutex;
  if not was_closing then begin
    Option.iter Domain.join t.flusher;
    t.flusher <- None;
    Log_manager.set_group t.lm None
  end

let create ?(mode = Inline) lm =
  if Log_manager.group_attached lm then
    invalid_arg "Group_commit.create: a committer is already attached to this log";
  let t =
    {
      lm;
      md = mode;
      mutex = Mutex.create ();
      flush_ready = Condition.create ();
      stable_advanced = Condition.create ();
      requested = Lsn.zero;
      pending_async = 0;
      pending_barriers = 0;
      closing = false;
      flusher = None;
      s_batches = 0;
      s_requests = 0;
      s_saved = 0;
      s_piggybacked = 0;
    }
  in
  Log_manager.set_group lm
    (Some
       {
         Log_manager.g_mutex = t.mutex;
         g_stage = stage t;
         g_barrier = barrier t;
         g_barrier_all = (fun () -> barrier_all t);
         g_crash = (fun () -> crash_reset t);
         g_detach = (fun () -> detach t);
       });
  (match mode with
  | Background -> t.flusher <- Some (Domain.spawn (fun () -> flusher_loop t))
  | Inline -> ());
  t

let set ?mode ~enabled lm =
  if enabled then begin
    if not (Log_manager.group_attached lm) then ignore (create ?mode lm)
  end
  else Log_manager.detach_group lm

let commit t payload =
  let lsn = Log_manager.append t.lm payload in
  Log_manager.force t.lm ~upto:lsn;
  lsn
