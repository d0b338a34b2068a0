(* End-to-end operation latency tracer: ticket lifecycle accounting,
   tail attribution plumbing, reservoir bounds, the recovery window,
   concurrent finalization, and the live sharded-service integration.
   Every test switches the tracer off and clears its statistics on the
   way out — the tracer is process-global and the other suites must
   not see it. *)

open Redo_obs

let with_oplat ?(sample_every = 1) f =
  Oplat.reset ();
  Oplat.set_sample_every sample_every;
  Oplat.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Oplat.set_enabled false;
      Oplat.reset ())
    f

let take_ticket () =
  match Oplat.sample () with
  | Some tk -> tk
  | None -> Alcotest.fail "expected a ticket at 1-in-1 sampling"

(* Walk one ticket through every lifecycle edge by hand. *)
let full_lifecycle ?(lsn = 7) ?(durable = true) () =
  let tk = take_ticket () in
  Oplat.stamp_dequeue tk ~shard:0;
  Oplat.stamp_apply tk;
  Oplat.register tk ~lsn ~durable;
  Oplat.wal_staged ~lsn;
  Oplat.batch_admitted ~upto:lsn;
  Oplat.force_completed ~upto:lsn;
  if durable then Oplat.acked ~upto:lsn

let stage_events r name =
  match List.find_opt (fun sv -> sv.Oplat.sv_name = name) r.Oplat.r_stages with
  | Some sv -> sv.Oplat.sv_events
  | None -> Alcotest.fail ("no stage view named " ^ name)

let test_ticket_lifecycle () =
  with_oplat @@ fun () ->
  full_lifecycle ();
  let r = Oplat.report () in
  Alcotest.(check int) "sampled" 1 r.Oplat.r_sampled;
  Alcotest.(check int) "completed" 1 r.Oplat.r_completed;
  Alcotest.(check int) "dropped" 0 r.Oplat.r_dropped;
  Alcotest.(check int) "e2e events" 1 r.Oplat.r_e2e.Oplat.sv_events;
  List.iter
    (fun name -> Alcotest.(check int) (name ^ " events") 1 (stage_events r name))
    [ "dwell"; "apply"; "stage"; "batch"; "force"; "ack" ];
  (* The telescoping construction makes the stage sums equal the
     end-to-end time exactly, so coverage is 1.0 up to float rounding. *)
  Alcotest.(check bool)
    (Printf.sprintf "coverage ~ 1.0 (got %.4f)" r.Oplat.r_coverage)
    true
    (Float.abs (r.Oplat.r_coverage -. 1.0) < 0.01)

let test_eventually_durable_completes_at_force () =
  with_oplat @@ fun () ->
  full_lifecycle ~durable:false ();
  let r = Oplat.report () in
  Alcotest.(check int) "completed at force" 1 r.Oplat.r_completed;
  Alcotest.(check int) "no ack edge" 0 (stage_events r "ack")

let test_disabled_is_none () =
  Oplat.reset ();
  Oplat.set_enabled false;
  Alcotest.(check bool) "sample () is None" true (Oplat.sample () = None);
  Alcotest.(check bool) "mailbox_sample () is false" false (Oplat.mailbox_sample ())

let test_sampling_interval () =
  with_oplat ~sample_every:4 @@ fun () ->
  let got = ref 0 in
  for _ = 1 to 40 do
    match Oplat.sample () with
    | Some tk ->
      incr got;
      (* Complete it so the accumulators stay consistent. *)
      Oplat.stamp_dequeue tk ~shard:0;
      Oplat.stamp_apply tk;
      Oplat.register tk ~lsn:!got ~durable:false;
      Oplat.force_completed ~upto:!got
    | None -> ()
  done;
  Alcotest.(check int) "1 in 4 of 40" 10 !got

let test_drop_inflight () =
  with_oplat @@ fun () ->
  let tk = take_ticket () in
  Oplat.stamp_dequeue tk ~shard:0;
  Oplat.register tk ~lsn:3 ~durable:true;
  Oplat.drop_inflight ();
  let r = Oplat.report () in
  Alcotest.(check int) "dropped, not completed" 1 r.Oplat.r_dropped;
  Alcotest.(check int) "completed" 0 r.Oplat.r_completed

let test_drain_finalizes_stragglers () =
  with_oplat @@ fun () ->
  let tk = take_ticket () in
  Oplat.stamp_dequeue tk ~shard:1;
  Oplat.stamp_apply tk;
  Oplat.register tk ~lsn:11 ~durable:true;
  Oplat.drain ();
  let r = Oplat.report () in
  Alcotest.(check int) "drained ticket completed" 1 r.Oplat.r_completed;
  Alcotest.(check int) "no force edge on the straggler" 0 (stage_events r "force")

let test_reservoir_bound () =
  with_oplat @@ fun () ->
  let n = 2 * Oplat.reservoir_cap in
  for i = 1 to n do
    full_lifecycle ~lsn:i ()
  done;
  let r = Oplat.report () in
  Alcotest.(check int) "all completed" n r.Oplat.r_completed;
  Alcotest.(check int) "reservoir holds the cap" Oplat.reservoir_cap (Oplat.trace_count ());
  (* The retained traces still export. *)
  let chrome = Oplat.chrome_json () in
  Alcotest.(check bool) "chrome export non-trivial" true (String.length chrome > 20)

(* The recovery window: a start, an idempotent finish (instant
   restart's last drains can race to close it), and the first-op stamp
   that feeds the time-to-first-op gauge. *)
let test_recovery_gauge () =
  with_oplat @@ fun () ->
  let window () =
    match (Oplat.report ()).Oplat.r_recovery with
    | Some rv -> rv
    | None -> Alcotest.fail "expected a recovery view"
  in
  Oplat.recovery_start ();
  Oplat.recovery_finished ();
  let closed = window () in
  Alcotest.(check bool) "finished" true closed.Oplat.rv_finished;
  Alcotest.(check bool) "no first op yet" true (closed.Oplat.rv_first_op_ns = None);
  Oplat.recovery_finished ();
  Alcotest.(check (float 0.)) "a second finish changes nothing" closed.Oplat.rv_elapsed_ns
    (window ()).Oplat.rv_elapsed_ns;
  Oplat.first_op ();
  match (window ()).Oplat.rv_first_op_ns with
  | None -> Alcotest.fail "first op not stamped"
  | Some fo ->
    Alcotest.(check (float 0.)) "the stamp feeds restart.time_to_first_op_ns" fo
      (Metrics.level (Metrics.gauge "restart.time_to_first_op_ns"))

(* Four domains finalize at once, and every fold must land in the one
   copy of the statistics. Registration and the exact-LSN edges come
   first, then the forces, then the acks, each phase started together.
   The domains' LSNs interleave, and each domain forces and acks once
   per 100 of its tickets, so every call folds a batch and the batches
   overlap. Which domain finalizes a ticket varies (a force or ack
   covers every lower LSN in flight), but which edges it carries does
   not. *)
let test_concurrent_finalization () =
  with_oplat @@ fun () ->
  let domains = 4 and per = 500 in
  let lsn d i = (i * domains) + d + 1 in
  let durable i = i mod 2 = 0 in
  let in_parallel f =
    let go = Atomic.make false in
    let ds =
      List.init domains (fun d ->
          Domain.spawn (fun () ->
              while not (Atomic.get go) do
                Domain.cpu_relax ()
              done;
              for i = 0 to per - 1 do
                f d i
              done))
    in
    Atomic.set go true;
    List.iter Domain.join ds
  in
  in_parallel (fun d i ->
      let tk = take_ticket () in
      Oplat.stamp_dequeue tk ~shard:d;
      Oplat.stamp_apply tk;
      Oplat.register tk ~lsn:(lsn d i) ~durable:(durable i);
      Oplat.wal_staged ~lsn:(lsn d i);
      Oplat.batch_admitted ~upto:(lsn d i));
  let batch_end i = (i + 1) mod 100 = 0 in
  in_parallel (fun d i ->
      Oplat.mailbox_dwell 1e3;
      if batch_end i then Oplat.force_completed ~upto:(lsn d i));
  in_parallel (fun d i -> if batch_end i then Oplat.acked ~upto:(lsn d i));
  let r = Oplat.report () in
  let n = domains * per in
  Alcotest.(check int) "completed" n r.Oplat.r_completed;
  Alcotest.(check int) "end-to-end events" n r.Oplat.r_e2e.Oplat.sv_events;
  List.iter
    (fun (name, stamped) -> Alcotest.(check int) (name ^ " events") stamped (stage_events r name))
    [ "dwell", n; "apply", n; "stage", n; "batch", n; "force", n; "ack", n / 2 ];
  Alcotest.(check int) "mailbox dwell events" n r.Oplat.r_dwell.Oplat.sv_events;
  Alcotest.(check int) "reservoir at its cap" Oplat.reservoir_cap (Oplat.trace_count ())

let test_timeseries_and_json () =
  with_oplat @@ fun () ->
  for i = 1 to 10 do
    full_lifecycle ~lsn:i ()
  done;
  let lines =
    String.split_on_char '\n' (String.trim (Oplat.timeseries_jsonl ()))
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "at least one time-series bucket" true (List.length lines >= 1);
  List.iter
    (fun l ->
      Alcotest.(check bool) "bucket line shape" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let json = Oplat.to_json (Oplat.report ()) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true (contains json needle))
    [ "\"sampled\""; "\"coverage\""; "\"stages\""; "\"tail\"" ]

(* The live integration: drive the real sharded service and demand the
   acceptance property — stage sums covering >= 90% of measured
   end-to-end latency — on actual mailbox/WAL/group-commit timings. *)
let test_service_integration () =
  with_oplat @@ fun () ->
  let module SS = Redo_kv.Sharded_store in
  let store = SS.create ~shards:2 ~partitions:64 ~cache_capacity:32 () in
  Fun.protect ~finally:(fun () -> SS.close store) @@ fun () ->
  for i = 1 to 2_000 do
    let key = Printf.sprintf "k%04d" (i mod 97) in
    if i mod 10 = 0 then SS.delete store key else SS.put store key "v";
    if i mod 256 = 0 then Redo_wal.Log_manager.await (SS.put_durable store key "commit")
  done;
  SS.sync store;
  let r = Oplat.report () in
  Alcotest.(check bool)
    (Printf.sprintf "sampled some ops (%d)" r.Oplat.r_sampled)
    true (r.Oplat.r_sampled > 0);
  Alcotest.(check int) "all sampled ops completed" r.Oplat.r_sampled r.Oplat.r_completed;
  Alcotest.(check bool)
    (Printf.sprintf "coverage >= 0.9 (got %.3f)" r.Oplat.r_coverage)
    true
    (r.Oplat.r_coverage >= 0.9);
  Alcotest.(check bool) "dwell observed" true (stage_events r "dwell" > 0);
  Alcotest.(check bool) "apply observed" true (stage_events r "apply" > 0);
  Alcotest.(check bool) "force observed" true (stage_events r "force" > 0)

(* A durable put on an idle shard runs in its caller. Its sampled
   ticket still carries its edges, [dequeue] stamped right after the
   mailbox lock, and folds once with stage sums equal to its end-to-end
   latency. *)
let test_inline_put_durable () =
  with_oplat @@ fun () ->
  let module SS = Redo_kv.Sharded_store in
  let inline = Metrics.counter "mailbox.runs_inline" in
  let store = SS.create ~shards:1 ~partitions:8 () in
  Fun.protect ~finally:(fun () -> SS.close store) @@ fun () ->
  let i0 = Metrics.count inline in
  Redo_wal.Log_manager.await (SS.put_durable store "k" "v");
  Alcotest.(check int) "the durable put ran inline" (i0 + 1) (Metrics.count inline);
  let r = Oplat.report () in
  Alcotest.(check int) "sampled" 1 r.Oplat.r_sampled;
  Alcotest.(check int) "folded exactly once" 1 r.Oplat.r_completed;
  Alcotest.(check int) "one end-to-end event" 1 r.Oplat.r_e2e.Oplat.sv_events;
  List.iter
    (fun name -> Alcotest.(check int) (name ^ " stamped") 1 (stage_events r name))
    [ "dwell"; "apply" ];
  let e2e = r.Oplat.r_e2e.Oplat.sv_sum_ns in
  let stages = List.fold_left (fun acc sv -> acc +. sv.Oplat.sv_sum_ns) 0. r.Oplat.r_stages in
  Alcotest.(check bool)
    (Printf.sprintf "stage sums %.0f ns = end to end %.0f ns" stages e2e)
    true
    (e2e > 0. && Float.abs (stages -. e2e) <= 1e-9 *. e2e)

(* A force that lands between a durable put and its [await] (the
   background flusher's, or another client's barrier) leaves the
   ticket stable before the await: the await must still ack it. The
   force here is the flusher's own entry point, which acks nothing. *)
let test_await_stable_ticket_acks () =
  with_oplat @@ fun () ->
  let module LM = Redo_wal.Log_manager in
  let lm = LM.create () in
  let gc = Redo_wal.Group_commit.create ~mode:Redo_wal.Group_commit.Inline lm in
  Fun.protect ~finally:(fun () -> Redo_wal.Group_commit.detach gc) @@ fun () ->
  let lsn = LM.append lm (Redo_wal.Record.App_op { tag = "t"; body = "durable" }) in
  let tk = take_ticket () in
  Oplat.stamp_dequeue tk ~shard:0;
  Oplat.stamp_apply tk;
  Oplat.register tk ~lsn:(Redo_storage.Lsn.to_int lsn) ~durable:true;
  let ticket = LM.force_async lm ~upto:lsn in
  LM.force_direct lm ~upto:lsn;
  Alcotest.(check bool) "stable before the await" true (LM.ticket_stable ticket);
  Alcotest.(check int) "not completed by the force" 0 (Oplat.report ()).Oplat.r_completed;
  LM.await ticket;
  Alcotest.(check int) "completed by the await" 1 (Oplat.report ()).Oplat.r_completed

let suite =
  [
    Alcotest.test_case "ticket lifecycle" `Quick test_ticket_lifecycle;
    Alcotest.test_case "eventually-durable completes at force" `Quick
      test_eventually_durable_completes_at_force;
    Alcotest.test_case "disabled is None" `Quick test_disabled_is_none;
    Alcotest.test_case "sampling interval" `Quick test_sampling_interval;
    Alcotest.test_case "crash drops in-flight tickets" `Quick test_drop_inflight;
    Alcotest.test_case "drain finalizes stragglers" `Quick test_drain_finalizes_stragglers;
    Alcotest.test_case "reservoir bound" `Quick test_reservoir_bound;
    Alcotest.test_case "recovery gauge" `Quick test_recovery_gauge;
    Alcotest.test_case "concurrent finalization" `Quick test_concurrent_finalization;
    Alcotest.test_case "time series and json" `Quick test_timeseries_and_json;
    Alcotest.test_case "sharded service integration" `Quick test_service_integration;
    Alcotest.test_case "inline durable put: one ticket, exact sums" `Quick
      test_inline_put_durable;
    Alcotest.test_case "await on a stable durable ticket acks it" `Quick
      test_await_stable_ticket_acks;
  ]
