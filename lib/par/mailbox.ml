module Oplat = Redo_obs.Oplat
module Metrics = Redo_obs.Metrics

(* Which way each synchronous [run] went: in its caller, or through the
   queue to the consumer. *)
let c_runs_inline = Metrics.counter "mailbox.runs_inline"
let c_runs_queued = Metrics.counter "mailbox.runs_queued"

module Ticket = struct
  type 'a t = {
    m : Mutex.t;
    c : Condition.t;
    mutable state : ('a, exn) result option;
  }

  let make () = { m = Mutex.create (); c = Condition.create (); state = None }

  let fulfill t r =
    Mutex.lock t.m;
    t.state <- Some r;
    Condition.broadcast t.c;
    Mutex.unlock t.m

  let await t =
    Mutex.lock t.m;
    while t.state = None do
      Condition.wait t.c t.m
    done;
    let r = t.state in
    Mutex.unlock t.m;
    match r with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false

  let poll t =
    Mutex.lock t.m;
    let r = t.state in
    Mutex.unlock t.m;
    match r with
    | None -> None
    | Some (Ok v) -> Some v
    | Some (Error e) -> raise e
end

type t = {
  mb_name : string;
  capacity : int;
  mutex : Mutex.t;
  nonempty : Condition.t;  (* producer -> consumer: task queued *)
  nonfull : Condition.t;  (* consumer -> producers: queue down to half *)
  idle : Condition.t;  (* consumer -> drainers: queue empty, task done *)
  queue : (unit -> unit) Queue.t;
  mutable busy : bool;  (* a task is executing: the consumer's or an inline run's *)
  mutable closing : bool;
  mutable failure : exn option;  (* first posted-task exception *)
  mutable consumer : unit Domain.t option;
}

let name t = t.mb_name

(* The consumer: take a task under the mutex, run it outside (so
   producers keep queueing while it executes), report idleness when the
   queue is spent. It waits out an inline [run] ([busy] set by a
   caller), so tasks never overlap. Exits only when closing AND the
   queue is empty AND no run is executing, so a close never abandons
   accepted work.

   Producers blocked on a full queue are woken only once it is down to
   half its capacity, not at every pop: on one CPU a producer woken for one
   free slot preempts the consumer, posts one task and blocks again,
   two context switches per task for as long as the queue stays full. *)
let rec consumer_loop t =
  Mutex.lock t.mutex;
  while t.busy || (Queue.is_empty t.queue && not t.closing) do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.queue then begin
    (* closing, drained *)
    Condition.broadcast t.idle;
    Mutex.unlock t.mutex
  end
  else begin
    let task = Queue.pop t.queue in
    t.busy <- true;
    if Queue.length t.queue <= t.capacity / 2 then Condition.broadcast t.nonfull;
    Mutex.unlock t.mutex;
    let err = match task () with () -> None | exception e -> Some e in
    Mutex.lock t.mutex;
    t.busy <- false;
    (match err with
    | Some e when t.failure = None -> t.failure <- Some e
    | _ -> ());
    if Queue.is_empty t.queue then Condition.broadcast t.idle;
    Mutex.unlock t.mutex;
    consumer_loop t
  end

let create ?(name = "mailbox") ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be positive";
  let t =
    {
      mb_name = name;
      capacity;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      busy = false;
      closing = false;
      failure = None;
      consumer = None;
    }
  in
  t.consumer <- Some (Domain.spawn (fun () -> consumer_loop t));
  t

let post t task =
  (* Sampled dwell probe: wrap the task so the consumer records its
     post-to-dequeue time. Disabled cost is one Atomic load; a sampled
     post allocates one closure. *)
  let task =
    if Oplat.mailbox_sample () then begin
      let t0 = Redo_obs.Span.now_ns () in
      fun () ->
        Oplat.mailbox_dwell (Redo_obs.Span.now_ns () -. t0);
        task ()
    end
    else task
  in
  Mutex.lock t.mutex;
  while Queue.length t.queue >= t.capacity && not t.closing do
    Condition.wait t.nonfull t.mutex
  done;
  if t.closing then begin
    Mutex.unlock t.mutex;
    invalid_arg (Printf.sprintf "Mailbox.post: %s is closed" t.mb_name)
  end;
  Queue.push task t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let call t f =
  let tk = Ticket.make () in
  post t (fun () -> Ticket.fulfill tk (match f () with v -> Ok v | exception e -> Error e));
  tk

let run t f =
  Mutex.lock t.mutex;
  if t.closing then begin
    Mutex.unlock t.mutex;
    invalid_arg (Printf.sprintf "Mailbox.run: %s is closed" t.mb_name)
  end;
  if Queue.is_empty t.queue && not t.busy then begin
    (* Idle: nothing queued, nothing executing. Claim the slot the
       consumer would take and run [f] here; the mutex orders it after
       every earlier task and before every later one. *)
    t.busy <- true;
    Mutex.unlock t.mutex;
    Metrics.incr c_runs_inline;
    let r = match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ()) in
    Mutex.lock t.mutex;
    t.busy <- false;
    (* Tasks posted meanwhile, or a close, wait on the consumer, which
       waited out this run; drainers wait for the idle mailbox. *)
    if Queue.is_empty t.queue then Condition.broadcast t.idle;
    if t.closing || not (Queue.is_empty t.queue) then Condition.signal t.nonempty;
    Mutex.unlock t.mutex;
    match r with Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  end
  else begin
    Mutex.unlock t.mutex;
    Metrics.incr c_runs_queued;
    Ticket.await (call t f)
  end

let depth t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let take_failure t =
  (* Mutex held. Sticky until observed, then cleared so one bad task is
     reported once, not on every subsequent drain. *)
  let f = t.failure in
  t.failure <- None;
  f

let drain t =
  Mutex.lock t.mutex;
  while not (Queue.is_empty t.queue && not t.busy) do
    Condition.wait t.idle t.mutex
  done;
  let f = take_failure t in
  Mutex.unlock t.mutex;
  match f with Some e -> raise e | None -> ()

let close t =
  Mutex.lock t.mutex;
  if not t.closing then begin
    t.closing <- true;
    Condition.broadcast t.nonempty;
    Condition.broadcast t.nonfull
  end;
  Mutex.unlock t.mutex;
  (match t.consumer with
  | Some d ->
    t.consumer <- None;
    Domain.join d
  | None -> ());
  Mutex.lock t.mutex;
  let f = take_failure t in
  Mutex.unlock t.mutex;
  match f with Some e -> raise e | None -> ()
