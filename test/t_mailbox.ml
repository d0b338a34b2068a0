(* The mailbox: one task at a time, in each producer's order, whichever
   path a task takes — posted, called through a ticket, or run by its
   caller on an idle mailbox. Three producer domains mix the three over
   random interleavings; the rest pins each path, the three exception
   routes, drain and close around an inline run, closed-mailbox errors,
   backpressure at capacity 1 and the half-queue wake-up of a producer
   blocked on a full queue. Tests that block on another domain
   run under a watchdog, so a lost wake-up fails the suite instead of
   hanging it. *)

module Mailbox = Redo_par.Mailbox
module Metrics = Redo_obs.Metrics

let runs_inline = Metrics.counter "mailbox.runs_inline"
let runs_queued = Metrics.counter "mailbox.runs_queued"

(* A one-shot gate another domain can wait on. *)
let wait_for flag =
  while not (Atomic.get flag) do
    Unix.sleepf 0.0005
  done

(* Give a blocked domain time to (wrongly) get past its block. *)
let settle () = Unix.sleepf 0.05

let with_mailbox ?capacity f =
  let mb = Mailbox.create ~name:"test" ?capacity () in
  Fun.protect ~finally:(fun () -> Mailbox.close mb) (fun () -> f mb)

(* Park the consumer: post a task that blocks until [release] is set,
   and return once it has started. *)
let park mb =
  let release = Atomic.make false and started = Atomic.make false in
  Mailbox.post mb (fun () ->
      Atomic.set started true;
      wait_for release);
  wait_for started;
  release

(* ---- the property ----------------------------------------------------- *)

let producers = 3

let mixed_producers seed =
  let capacity = 1 + (seed mod 4) in
  let per = 40 in
  let in_task = Atomic.make false and overlapped = Atomic.make false in
  let next = Array.init producers (fun _ -> Atomic.make 0) in
  let out_of_order = Atomic.make false in
  (* A task spins, or sleeps ([spin < 0]) so that on a single CPU the
     other domains run while it is in flight. *)
  let task p i spin () =
    if Atomic.exchange in_task true then Atomic.set overlapped true;
    if Atomic.get next.(p) <> i then Atomic.set out_of_order true;
    Atomic.set next.(p) (i + 1);
    if spin < 0 then Unix.sleepf 0.0002
    else
      for _ = 1 to spin do
        Domain.cpu_relax ()
      done;
    Atomic.set in_task false;
    i
  in
  let mb = Mailbox.create ~name:"mixed" ~capacity () in
  let producer p () =
    let rng = Random.State.make [| 0x3a1b; seed; p |] in
    let pending = ref [] in
    for i = 0 to per - 1 do
      let spin = Random.State.int rng 220 - 20 in
      match Random.State.int rng 3 with
      | 0 -> Mailbox.post mb (fun () -> ignore (task p i spin ()))
      | 1 ->
        (* Await now or later: a held ticket pipelines behind the
           producer's next tasks. *)
        let tk = Mailbox.call mb (task p i spin) in
        if Random.State.bool rng then assert (Mailbox.Ticket.await tk = i)
        else pending := (tk, i) :: !pending
      | _ -> assert (Mailbox.run mb (task p i spin) = i)
    done;
    List.iter (fun (tk, i) -> assert (Mailbox.Ticket.await tk = i)) !pending
  in
  let ds = List.init producers (fun p -> Domain.spawn (producer p)) in
  Fun.protect ~finally:(fun () -> Mailbox.close mb) (fun () -> List.iter Domain.join ds);
  Array.iteri
    (fun p n ->
      Alcotest.(check int) (Printf.sprintf "producer %d: every task ran" p) per (Atomic.get n))
    next;
  Alcotest.(check bool) "each producer's tasks ran in its order" false (Atomic.get out_of_order);
  Alcotest.(check bool) "no task started while another ran" false (Atomic.get overlapped);
  true

(* ---- each path, forced ------------------------------------------------ *)

let test_idle_runs_inline () =
  with_mailbox @@ fun mb ->
  let i0 = Metrics.count runs_inline and q0 = Metrics.count runs_queued in
  let ran_on = Mailbox.run mb (fun () -> (Domain.self () :> int)) in
  Alcotest.(check int) "ran in the caller" (Domain.self () :> int) ran_on;
  Alcotest.(check int) "counted inline" (i0 + 1) (Metrics.count runs_inline);
  Alcotest.(check int) "not counted queued" q0 (Metrics.count runs_queued)

let test_busy_runs_queued () =
  Util.with_timeout ~seconds:30. "busy mailbox run" @@ fun () ->
  with_mailbox @@ fun mb ->
  let release = park mb in
  let q0 = Metrics.count runs_queued in
  let caller =
    Domain.spawn (fun () ->
        let ran_on = Mailbox.run mb (fun () -> (Domain.self () :> int)) in
        ran_on, (Domain.self () :> int))
  in
  while Metrics.count runs_queued = q0 do
    Unix.sleepf 0.0005
  done;
  Alcotest.(check int) "queued behind the parked task" 1 (Mailbox.depth mb);
  Atomic.set release true;
  let ran_on, caller_id = Domain.join caller in
  Alcotest.(check bool) "ran on the consumer, not the caller" true (ran_on <> caller_id)

(* ---- exceptions ------------------------------------------------------- *)

let test_exceptions () =
  Util.with_timeout ~seconds:30. "mailbox exceptions" @@ fun () ->
  with_mailbox @@ fun mb ->
  Alcotest.check_raises "run re-raises in its caller" (Failure "inline") (fun () ->
      Mailbox.run mb (fun () -> failwith "inline"));
  Alcotest.(check int) "the failed run left the mailbox idle" 7 (Mailbox.run mb (fun () -> 7));
  Mailbox.drain mb;
  let release = park mb in
  let queued = Domain.spawn (fun () -> Mailbox.run mb (fun () -> failwith "queued")) in
  while Mailbox.depth mb = 0 do
    Unix.sleepf 0.0005
  done;
  Atomic.set release true;
  Alcotest.check_raises "a queued run re-raises in its caller" (Failure "queued") (fun () ->
      Domain.join queued);
  Alcotest.check_raises "call re-raises through its ticket" (Failure "call") (fun () ->
      Mailbox.Ticket.await (Mailbox.call mb (fun () -> failwith "call")));
  Mailbox.post mb (fun () -> failwith "post");
  Alcotest.check_raises "post re-raises at the next drain" (Failure "post") (fun () ->
      Mailbox.drain mb);
  Mailbox.drain mb;
  Mailbox.post mb (fun () -> failwith "post at close");
  Alcotest.check_raises "post re-raises at close" (Failure "post at close") (fun () ->
      Mailbox.close mb)

(* ---- drain and close around an inline run ------------------------------ *)

(* Start an inline run on its own domain that blocks until the returned
   flag is set; [finished] is set as it returns. *)
let blocked_inline_run mb ~finished =
  let release = Atomic.make false and started = Atomic.make false in
  let runner =
    Domain.spawn (fun () ->
        Mailbox.run mb (fun () ->
            Atomic.set started true;
            wait_for release;
            Atomic.set finished true))
  in
  wait_for started;
  release, runner

let test_drain_waits_for_inline_run () =
  Util.with_timeout ~seconds:30. "drain during an inline run" @@ fun () ->
  with_mailbox @@ fun mb ->
  let i0 = Metrics.count runs_inline in
  let finished = Atomic.make false in
  let release, runner = blocked_inline_run mb ~finished in
  Alcotest.(check int) "the run is inline" (i0 + 1) (Metrics.count runs_inline);
  let drained = Atomic.make false in
  let drainer =
    Domain.spawn (fun () ->
        Mailbox.drain mb;
        Atomic.set drained true;
        Atomic.get finished)
  in
  settle ();
  Alcotest.(check bool) "drain still waiting" false (Atomic.get drained);
  Atomic.set release true;
  Domain.join runner;
  Alcotest.(check bool) "drain returned after the run ended" true (Domain.join drainer)

let test_close_during_inline_run () =
  Util.with_timeout ~seconds:30. "close during an inline run" @@ fun () ->
  (* With nothing queued, only the run's end can wake the consumer to
     finish the close; with a task queued, it must run after the run. *)
  List.iter
    (fun queue_one ->
      let mb = Mailbox.create ~name:"closing" () in
      let finished = Atomic.make false in
      let release, runner = blocked_inline_run mb ~finished in
      let after_run = Atomic.make false in
      if queue_one then Mailbox.post mb (fun () -> Atomic.set after_run (Atomic.get finished));
      let closed = Atomic.make false in
      let closer =
        Domain.spawn (fun () ->
            Mailbox.close mb;
            Atomic.set closed true)
      in
      settle ();
      Alcotest.(check bool) "close waits for the inline run" false (Atomic.get closed);
      Atomic.set release true;
      Domain.join runner;
      Domain.join closer;
      Alcotest.(check bool) "close returned" true (Atomic.get closed);
      if queue_one then
        Alcotest.(check bool) "the queued task ran after the inline run" true
          (Atomic.get after_run))
    [ false; true ]

let test_closed_rejects () =
  let mb = Mailbox.create ~name:"closed" () in
  Mailbox.close mb;
  let rejects what f =
    Alcotest.(check bool) (what ^ " after close raises Invalid_argument") true
      (match f () with exception Invalid_argument _ -> true | () -> false)
  in
  rejects "run" (fun () -> Mailbox.run mb ignore);
  rejects "post" (fun () -> Mailbox.post mb ignore);
  rejects "call" (fun () -> ignore (Mailbox.call mb ignore));
  Mailbox.close mb

(* ---- backpressure ----------------------------------------------------- *)

let test_capacity_one () =
  Util.with_timeout ~seconds:30. "capacity 1" @@ fun () ->
  with_mailbox ~capacity:1 @@ fun mb ->
  let order = ref [] in
  let task i () = order := i :: !order in
  (* With the consumer parked and one task queued, the queue is full: a
     further post, and a run (which must queue), block until the
     consumer frees the slot. *)
  let blocks what ~first ~next =
    let release = park mb in
    Mailbox.post mb (task first);
    let returned = Atomic.make false in
    let producer =
      Domain.spawn (fun () ->
          next ();
          Atomic.set returned true)
    in
    settle ();
    Alcotest.(check bool) (what ^ " blocks on a full queue") false (Atomic.get returned);
    Alcotest.(check int) "one task queued" 1 (Mailbox.depth mb);
    Atomic.set release true;
    Domain.join producer
  in
  blocks "post" ~first:1 ~next:(fun () -> Mailbox.post mb (task 2));
  blocks "run" ~first:3 ~next:(fun () -> Mailbox.run mb (task 4));
  Mailbox.drain mb;
  Alcotest.(check (list int)) "FIFO through the full queue" [ 1; 2; 3; 4 ] (List.rev !order)

(* A producer blocked on a full queue resumes only once the consumer
   has drained it to half its capacity. Task [i] records that it has
   been taken, then waits until [allowed] reaches [i]: with the queue
   filled behind the parked consumer, each step lets the consumer take
   exactly one more task. *)
let test_half_queue_wake_up () =
  Util.with_timeout ~seconds:30. "half-queue wake-up" @@ fun () ->
  let capacity = 8 in
  with_mailbox ~capacity @@ fun mb ->
  let taken = Atomic.make 0 and allowed = Atomic.make 0 in
  let order = ref [] in
  let task i () =
    order := i :: !order;
    Atomic.set taken i;
    while Atomic.get allowed < i do
      Unix.sleepf 0.0005
    done
  in
  let release = park mb in
  for i = 1 to capacity do
    Mailbox.post mb (task i)
  done;
  let returned = Atomic.make false in
  let producer =
    Domain.spawn (fun () ->
        Mailbox.post mb (task (capacity + 1));
        Atomic.set returned true)
  in
  (* Open every gate on the way out, so a failed check ends the test
     instead of leaving the close waiting on a gated task. *)
  Fun.protect ~finally:(fun () ->
      Atomic.set release true;
      Atomic.set allowed max_int;
      Domain.join producer)
  @@ fun () ->
  settle ();
  Alcotest.(check bool) "blocks on a full queue" false (Atomic.get returned);
  Atomic.set release true;
  for i = 1 to (capacity / 2) - 1 do
    if i > 1 then Atomic.set allowed (i - 1);
    while Atomic.get taken < i do
      Unix.sleepf 0.0005
    done;
    settle ();
    Alcotest.(check int) (Printf.sprintf "%d taken: depth" i) (capacity - i) (Mailbox.depth mb);
    Alcotest.(check bool) (Printf.sprintf "%d taken: still blocked" i) false (Atomic.get returned)
  done;
  (* The consumer takes the fourth task: the queue is down to half. *)
  Atomic.set allowed ((capacity / 2) - 1);
  wait_for returned;
  Alcotest.(check int) "half a queue plus the resumed post" ((capacity / 2) + 1) (Mailbox.depth mb);
  Atomic.set allowed (capacity + 1);
  Mailbox.drain mb;
  Alcotest.(check (list int)) "FIFO" (List.init (capacity + 1) (fun i -> i + 1)) (List.rev !order)

(* A close wakes a producer blocked on a full queue at once, long before
   the parked consumer could drain it to half, and its post raises. *)
let test_close_wakes_blocked_producer () =
  Util.with_timeout ~seconds:30. "close wakes a blocked producer" @@ fun () ->
  let capacity = 8 in
  with_mailbox ~capacity @@ fun mb ->
  let release = park mb in
  Fun.protect ~finally:(fun () -> Atomic.set release true) @@ fun () ->
  for _ = 1 to capacity do
    Mailbox.post mb ignore
  done;
  let producer =
    Domain.spawn (fun () ->
        match Mailbox.post mb ignore with
        | () -> false
        | exception Invalid_argument _ -> true)
  in
  settle ();
  let closer = Domain.spawn (fun () -> Mailbox.close mb) in
  Alcotest.(check bool) "the blocked post raises" true (Domain.join producer);
  Alcotest.(check int) "the consumer is still parked" capacity (Mailbox.depth mb);
  Atomic.set release true;
  Domain.join closer

let suite =
  [
    Util.qtest ~count:50 "three producers mix post, call and run" mixed_producers;
    Alcotest.test_case "an idle mailbox runs inline" `Quick test_idle_runs_inline;
    Alcotest.test_case "a busy mailbox queues the run" `Quick test_busy_runs_queued;
    Alcotest.test_case "exceptions: run, call, post" `Quick test_exceptions;
    Alcotest.test_case "drain waits for an inline run" `Quick test_drain_waits_for_inline_run;
    Alcotest.test_case "close during an inline run" `Quick test_close_during_inline_run;
    Alcotest.test_case "run, post and call after close raise" `Quick test_closed_rejects;
    Alcotest.test_case "capacity 1: backpressure, no deadlock" `Quick test_capacity_one;
    Alcotest.test_case "capacity 8: a full queue wakes its producer at half" `Quick
      test_half_queue_wake_up;
    Alcotest.test_case "close wakes a producer blocked on a full queue" `Quick
      test_close_wakes_blocked_producer;
  ]
