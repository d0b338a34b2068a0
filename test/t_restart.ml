(* Instant restart: the per-page lazy-redo plan and controller, the
   sharded store's [`Instant] recovery mode, and the flight recorder's
   reconstruction of on-demand drains.

   Three layers of evidence:

   - a plan-partition property (randomized): the per-page queues of
     [Lazy_redo.plan] exactly partition the slice's physiological
     records above the horizon test — nothing lost, nothing duplicated,
     LSN order preserved per page, queue sums and sweep order
     consistent;
   - controller units: drains are idempotent and exactly-once, counters
     and pending gauges move as specified, the sweeper alone makes the
     recovered set total, [stop] wakes waiters without draining, and a
     drain that raises is reported rather than hung on;
   - end-to-end fuzz at shards 1, 2 and 4 (100 runs each): crash (a
     third of the crashes with a stale master record), open instantly, serve reads and writes mid-recovery against a per-key
     durable-prefix model, then either finish the lazy restart or crash
     it mid-flight (sometimes torn) and recover again — every path must
     end certified against the serial witness of the stable prefix,
     i.e. converge to the state one eager recovery produces. *)

open Redo_storage
open Redo_wal
open Redo_kv
open Redo_workload
module Lazy_redo = Redo_restart.Lazy_redo
module Theory_check = Redo_methods.Theory_check
module Flight = Redo_obs.Flight
module Triage = Redo_obs.Triage

let value_opt = Alcotest.(option string)

(* ---- plan partition (randomized) ----------------------------------- *)

(* A synthetic redo slice: [n] physiological records in LSN order over
   [pids] pages, with checkpoint noise sprinkled in, and a per-page
   stability horizon standing in for the shard-horizon ∨ DPT test. *)
let plan_partitions seed =
  let rng = Random.State.make [| 0x1a2e; seed |] in
  let shards = [| 1; 2; 4 |].(seed mod 3) in
  let pids = shards * (2 + Random.State.int rng 6) in
  let n = 20 + Random.State.int rng 120 in
  let horizon = Array.init pids (fun _ -> Random.State.int rng (n + 1)) in
  let records = ref [] in
  let phys = ref [] in
  for i = 1 to n do
    let lsn = Lsn.of_int i in
    if Random.State.int rng 10 = 0 then
      records :=
        Record.make ~lsn (Record.Checkpoint { dirty_pages = []; note = "noise" })
        :: !records
    else begin
      let pid = Random.State.int rng pids in
      let r =
        Record.make ~lsn
          (Record.Physiological { pid; op = Page_op.Put (Printf.sprintf "k%d" i, "v") })
      in
      records := r :: !records;
      phys := (pid, r) :: !phys
    end
  done;
  let records = List.rev !records and phys = List.rev !phys in
  let surely_on_disk ~pid ~lsn = Lsn.to_int lsn <= horizon.(pid) in
  let plan = Lazy_redo.plan ~shards ~surely_on_disk records in
  (* Expected per-page queues: the pending records in LSN order. *)
  let expect pid =
    List.filter_map
      (fun (p, r) ->
        if p = pid && not (surely_on_disk ~pid:p ~lsn:(Record.lsn r)) then Some r else None)
      phys
  in
  let lsns rs = List.map (fun r -> Lsn.to_int (Record.lsn r)) rs in
  let queue pid = List.map Lsn.to_int (Lazy_redo.plan_queue plan pid) in
  let pending = ref 0 and preskipped = ref 0 in
  for pid = 0 to pids - 1 do
    let want = expect pid in
    pending := !pending + List.length want;
    Alcotest.(check (list int))
      (Printf.sprintf "page %d queue = its pending slice records, LSN order" pid)
      (lsns want) (queue pid)
  done;
  List.iter
    (fun (p, r) -> if surely_on_disk ~pid:p ~lsn:(Record.lsn r) then incr preskipped)
    phys;
  (* The queues and the preskipped count partition the slice exactly. *)
  Alcotest.(check int) "queues cover every pending record" !pending
    (Lazy_redo.plan_records plan);
  Alcotest.(check int) "preskipped = horizon-cleared records" !preskipped
    (Lazy_redo.plan_preskipped plan);
  Alcotest.(check int) "pending + preskipped = physiological records"
    (List.length phys)
    (Lazy_redo.plan_records plan + Lazy_redo.plan_preskipped plan);
  (* The queues' lengths, summed over every shard's pages, are the
     plan's total. *)
  let queued = ref 0 in
  for pid = 0 to pids - 1 do
    queued := !queued + List.length (queue pid)
  done;
  Alcotest.(check int) "queue lengths sum to the plan's records" !queued
    (Lazy_redo.plan_records plan);
  (* The sweep order is exactly the non-empty pages, longest first. *)
  let queued = Lazy_redo.plan_queued_pids plan in
  let nonempty = List.filter (fun pid -> expect pid <> []) (List.init pids Fun.id) in
  Alcotest.(check int) "plan_pages = non-empty queues" (List.length nonempty)
    (Lazy_redo.plan_pages plan);
  Alcotest.(check (list int)) "sweep order is a permutation of the queued pages"
    (List.sort compare nonempty)
    (List.sort compare queued);
  let rec descending = function
    | a :: (b :: _ as rest) ->
      List.length (queue a) >= List.length (queue b)
      && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "sweep order is longest-queue-first" true (descending queued);
  true

(* ---- controller units ----------------------------------------------- *)

let mk_records specs =
  (* specs: (lsn, pid) list, ascending LSNs. *)
  List.map
    (fun (lsn, pid) ->
      Record.make ~lsn:(Lsn.of_int lsn)
        (Record.Physiological { pid; op = Page_op.Put (Printf.sprintf "k%d" lsn, "v") }))
    specs

let everything_pending ~pid:_ ~lsn:_ = false

let test_controller_drains () =
  let records = mk_records [ 1, 0; 2, 1; 3, 0; 4, 2; 5, 1 ] in
  let plan = Lazy_redo.plan ~shards:2 ~surely_on_disk:everything_pending records in
  let applied = Hashtbl.create 8 in
  let t =
    Lazy_redo.create ~plan ~apply:(fun ~shard ~pid q ->
        Alcotest.(check int) "apply routed to the owner shard" (pid mod 2) shard;
        Hashtbl.replace applied pid (Array.length q);
        Array.length q, 0)
  in
  Alcotest.(check int) "pages pending on both shards" 3 (Lazy_redo.pending_total t);
  Alcotest.(check bool) "not finished yet" false (Lazy_redo.finished t);
  (* First touch drains; second is an idempotent no-op. *)
  Alcotest.(check bool) "demand drain fires" true (Lazy_redo.ensure t ~pid:0 ~trigger:Lazy_redo.Demand);
  Alcotest.(check bool) "second touch is a no-op" false
    (Lazy_redo.ensure t ~pid:0 ~trigger:Lazy_redo.Demand);
  Alcotest.(check int) "page 0 queue arrived whole" 2 (Hashtbl.find applied 0);
  Alcotest.(check int) "pending dropped" 2 (Lazy_redo.pending_total t);
  (* A page with no queue never drains. *)
  Alcotest.(check bool) "empty page is a no-op" false
    (Lazy_redo.ensure t ~pid:7 ~trigger:Lazy_redo.Demand);
  Alcotest.(check bool) "out-of-range page is a no-op" false
    (Lazy_redo.ensure t ~pid:1_000 ~trigger:Lazy_redo.Demand);
  Alcotest.(check bool) "sweeper drain fires" true
    (Lazy_redo.ensure t ~pid:1 ~trigger:Lazy_redo.Sweeper);
  Alcotest.(check bool) "demand drain fires (last page)" true
    (Lazy_redo.ensure t ~pid:2 ~trigger:Lazy_redo.Demand);
  Alcotest.(check bool) "finished once every queue drained" true (Lazy_redo.finished t);
  Alcotest.(check int) "demand drains counted" 2 (Lazy_redo.demand_drains t);
  Alcotest.(check int) "sweeper drains counted" 1 (Lazy_redo.sweeper_drains t);
  let redone, skipped = Lazy_redo.drained t in
  Alcotest.(check (pair int int)) "drained tallies apply's returns" (5, 0) (redone, skipped);
  Alcotest.(check bool) "await returns immediately when finished" true (Lazy_redo.await t);
  Lazy_redo.stop t

let test_sweeper_completes () =
  let records = mk_records [ 1, 0; 2, 1; 3, 2; 4, 3; 5, 0; 6, 2 ] in
  let plan = Lazy_redo.plan ~shards:2 ~surely_on_disk:everything_pending records in
  let t = Lazy_redo.create ~plan ~apply:(fun ~shard:_ ~pid:_ q -> Array.length q, 0) in
  (* The test's touch calls ensure directly: single-threaded apply, and
     no demand traffic races the sweeper's pool domain. *)
  Lazy_redo.start_sweeper t ~touch:(fun ~pid ~trigger -> ignore (Lazy_redo.ensure t ~pid ~trigger));
  Alcotest.(check bool) "await reaches the total recovered set" true (Lazy_redo.await t);
  Alcotest.(check int) "nothing pending" 0 (Lazy_redo.pending_total t);
  Alcotest.(check int) "all drains were the sweeper's" 4 (Lazy_redo.sweeper_drains t);
  let redone, _ = Lazy_redo.drained t in
  Alcotest.(check int) "every record replayed" 6 redone;
  Alcotest.(check bool) "second sweeper rejected" true
    (match Lazy_redo.start_sweeper t ~touch:(fun ~pid:_ ~trigger:_ -> ()) with
    | exception Invalid_argument _ -> true
    | () -> false);
  Lazy_redo.stop t

let test_stop_wakes_await () =
  let records = mk_records [ 1, 0; 2, 1 ] in
  let plan = Lazy_redo.plan ~shards:1 ~surely_on_disk:everything_pending records in
  let t = Lazy_redo.create ~plan ~apply:(fun ~shard:_ ~pid:_ q -> Array.length q, 0) in
  Lazy_redo.stop t;
  (* Abandoned, not drained: stop leaves the queues to the next
     recovery, and await must not hang on them. *)
  Alcotest.(check bool) "await unblocks unfinished" false (Lazy_redo.await t);
  Alcotest.(check int) "queues abandoned, not drained" 2 (Lazy_redo.pending_total t)

(* ---- instant mode serves during recovery (deterministic) ------------ *)

let test_instant_serves_during_recovery () =
  let store = Sharded_store.create ~shards:2 ~partitions:12 ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  for i = 1 to 40 do
    Sharded_store.put store (Printf.sprintf "k%02d" i) (Printf.sprintf "v%02d" i)
  done;
  Sharded_store.sync store;
  Sharded_store.crash store;
  let stats = Sharded_store.recover ~mode:`Instant store in
  Alcotest.(check int) "instant replays nothing up front" 0 stats.Sharded_store.redone;
  Alcotest.(check bool) "pages queued behind the open" true
    (Sharded_store.recovery_pending store > 0);
  (* Reads mid-recovery observe the synced (hence stable) values, and a
     write lands on top of whatever its page's drain reproduced. *)
  Alcotest.check value_opt "read during recovery" (Some "v07")
    (Sharded_store.get store "k07");
  Sharded_store.put store "k07" "fresh";
  Alcotest.check value_opt "write during recovery visible" (Some "fresh")
    (Sharded_store.get store "k07");
  let demand, swept = Sharded_store.await_recovery store in
  Alcotest.(check int) "recovered set total" 0 (Sharded_store.recovery_pending store);
  Alcotest.(check bool) "every queued page drained by someone" true (demand + swept > 0);
  Alcotest.check value_opt "late read after total" (Some "v23") (Sharded_store.get store "k23");
  Sharded_store.sync store;
  let cert = Sharded_store.certify store ~phase:`Live in
  Alcotest.(check bool)
    (Fmt.str "post-restart: %a" Theory_check.pp_certificate cert)
    true
    (Theory_check.certificate_ok cert);
  Alcotest.(check bool) "await again is a no-op" true
    (Sharded_store.await_recovery store = (0, 0))

(* ---- the restart rule: no inline calls while a restart is live ------- *)

(* A get or durable put on an idle shard runs in its caller, except
   while an instant restart is live: then it hands off to the owner, so
   the sweeper's queued drains cannot slip in ahead of the caller. *)
let test_restart_hands_off () =
  let module Metrics = Redo_obs.Metrics in
  let inline = Metrics.counter "mailbox.runs_inline" in
  let queued = Metrics.counter "mailbox.runs_queued" in
  let store = Sharded_store.create ~shards:2 ~partitions:12 ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  for i = 1 to 40 do
    Sharded_store.put store (Printf.sprintf "k%02d" i) (Printf.sprintf "v%02d" i)
  done;
  Sharded_store.sync store;
  Sharded_store.crash store;
  ignore (Sharded_store.recover ~mode:`Instant store);
  Alcotest.(check bool) "a restart is live" true (Sharded_store.recovery_pending store > 0);
  let i0 = Metrics.count inline and q0 = Metrics.count queued in
  Alcotest.check value_opt "get mid-restart" (Some "v07") (Sharded_store.get store "k07");
  Log_manager.await (Sharded_store.put_durable store "k08" "w08");
  (* Handed straight to the owner: [Mailbox.run] never saw them. *)
  Alcotest.(check int) "mid-restart: nothing inline" i0 (Metrics.count inline);
  Alcotest.(check int) "mid-restart: no run queued either" q0 (Metrics.count queued);
  ignore (Sharded_store.await_recovery store);
  Sharded_store.drain store;
  let i1 = Metrics.count inline and q1 = Metrics.count queued in
  Alcotest.check value_opt "get after the restart" (Some "v23") (Sharded_store.get store "k23");
  Alcotest.(check int) "after await_recovery: the get ran inline" (i1 + 1) (Metrics.count inline);
  Alcotest.(check int) "after await_recovery: nothing queued" q1 (Metrics.count queued)

(* ---- a drain that raises ------------------------------------------- *)

(* A queued frame corrupted after the crash: the drain that decodes it
   raises. The restart must report it, not hang: [await_recovery]
   re-raises it, and the page keeps raising at every touch. *)
let test_failed_drain_is_reported () =
  Util.with_timeout ~seconds:60. "failed drain" @@ fun () ->
  let store = Sharded_store.create ~shards:2 ~partitions:8 ~cache_capacity:8 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  for i = 1 to 40 do
    Sharded_store.put store (Printf.sprintf "k%02d" i) "v"
  done;
  ignore (Sharded_store.checkpoint_sharded store);
  for i = 1 to 40 do
    Sharded_store.put store (Printf.sprintf "k%02d" i) "w"
  done;
  Sharded_store.sync store;
  let log = Sharded_store.log store in
  let medium = Log_manager.medium log in
  Sharded_store.crash store;
  (* The newest record: a put after the checkpoint, so its page's redo
     tail queues it. Flip the last byte of its frame (of its value). *)
  let records = Log_manager.stable_records log in
  let last = List.nth records (List.length records - 1) in
  let lsn = Lsn.to_int (Record.lsn last) in
  let key =
    match Record.payload last with
    | Record.Physiological { op = Page_op.Put (k, _); _ } -> k
    | _ -> Alcotest.fail "the newest record is not a put"
  in
  let offset = Stable_log.byte_size medium - 8 - Codec.encoded_size last in
  Stable_log.corrupt_byte medium ~pos:(Stable_log.byte_size medium - 1);
  ignore (Sharded_store.recover ~mode:`Instant store);
  let reports what f =
    match f () with
    | exception Stable_log.Corrupt_frame c ->
      Alcotest.(check (pair int int)) (what ^ ": names the frame") (lsn, offset) (c.lsn, c.offset)
    | _ -> Alcotest.fail (what ^ ": returned instead of reporting the corrupt frame")
  in
  reports "await_recovery" (fun () -> ignore (Sharded_store.await_recovery store));
  reports "a get on the page" (fun () -> ignore (Sharded_store.get store key));
  Alcotest.(check bool) "the page is still pending" true
    (Sharded_store.recovery_pending store > 0);
  reports "await_recovery again" (fun () -> ignore (Sharded_store.await_recovery store))

(* ---- the queue-depth histogram under concurrent drains ------------- *)

(* During an instant restart every shard owner drains its own pages at
   once, and each drain observes [restart.lazy_queue_depth]. Histograms
   are plain mutable records, so an unguarded observe from four owners
   loses events now and then; the histogram must count every drain in
   every round. *)
let test_queue_depth_counts_every_drain () =
  let module Metrics = Redo_obs.Metrics in
  let h = Metrics.histogram ~bounds:Metrics.count_bounds "restart.lazy_queue_depth" in
  let store = Sharded_store.create ~shards:4 ~partitions:2048 ~cache_capacity:512 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  for i = 1 to 40_000 do
    Sharded_store.put store (Printf.sprintf "k%05d" (i mod 10_000)) (Printf.sprintf "v%d" i)
  done;
  Sharded_store.sync store;
  for round = 1 to 40 do
    Sharded_store.crash store;
    let before = Metrics.events h in
    ignore (Sharded_store.recover ~mode:`Instant store);
    for i = 1 to 2_000 do
      ignore (Sharded_store.get store (Printf.sprintf "k%05d" (i * 5 mod 10_000)))
    done;
    let demand, swept = Sharded_store.await_recovery store in
    Alcotest.(check int)
      (Printf.sprintf "round %d: one histogram event per drain" round)
      (demand + swept)
      (Metrics.events h - before)
  done

(* ---- triage reconstructs the on-demand recovery --------------------- *)

let with_flight f =
  Flight.reset ();
  Flight.configure ();
  Flight.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.reset ())

let test_triage_lazy_drains () =
  with_flight @@ fun () ->
  let store = Sharded_store.create ~shards:2 ~partitions:8 ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  for i = 1 to 24 do
    Sharded_store.put store (Printf.sprintf "k%02d" i) "v"
  done;
  Sharded_store.sync store;
  Sharded_store.crash store;
  ignore (Sharded_store.recover ~mode:`Instant store);
  ignore (Sharded_store.get store "k05");
  let demand, swept = Sharded_store.await_recovery store in
  let report =
    Triage.analyze ~flight:(Flight.scan ())
      ~log:(Redo_sim.Simulator.triage_log_summary (Sharded_store.log store))
  in
  Alcotest.(check bool) "triage verdict OK" true (Triage.ok report);
  let drains = report.Triage.lazy_drains in
  Alcotest.(check int) "one frame per drain" (demand + swept) (List.length drains);
  Alcotest.(check int) "demand drains attributed" demand
    (List.length (List.filter (fun d -> d.Triage.ld_demand) drains));
  Alcotest.(check bool) "a completed restart has no pre-crash drains" true
    (List.for_all (fun d -> not d.Triage.ld_pre_crash) drains);
  List.iter
    (fun d -> Alcotest.(check bool) "drain replayed records" true (d.Triage.ld_queue > 0))
    drains

let test_triage_interrupted_restart () =
  (* An instant restart cut down by a second crash: the drains it did
     complete belong to the crashed epoch, and triage must label them
     as redone-again work rather than recovery of the final crash. *)
  with_flight @@ fun () ->
  let store = Sharded_store.create ~shards:2 ~partitions:8 ~cache_capacity:4 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  for i = 1 to 24 do
    Sharded_store.put store (Printf.sprintf "k%02d" i) "v"
  done;
  Sharded_store.sync store;
  Sharded_store.crash store;
  ignore (Sharded_store.recover ~mode:`Instant store);
  (* Touch a key so at least one page has provably drained (the get's
     demand fault, or the sweeper beat it — either path emits the
     frame) before the restart itself dies. *)
  Alcotest.check value_opt "served mid-restart" (Some "v") (Sharded_store.get store "k03");
  Sharded_store.crash store;
  ignore (Sharded_store.recover store);
  let report =
    Triage.analyze ~flight:(Flight.scan ())
      ~log:(Redo_sim.Simulator.triage_log_summary (Sharded_store.log store))
  in
  Alcotest.(check bool) "triage verdict OK" true (Triage.ok report);
  let pre = List.filter (fun d -> d.Triage.ld_pre_crash) report.Triage.lazy_drains in
  Alcotest.(check bool) "the interrupted restart's drains are in the crashed epoch" true
    (pre <> []);
  let cert = Sharded_store.certify store ~phase:`Recovered in
  Alcotest.(check bool) "recovered certified after interrupted restart" true
    (Theory_check.certificate_ok cert)

(* ---- crash-mid-restart fuzz ----------------------------------------- *)

(* The per-key durable-prefix model, as in t_sharded_store: recovered
   values must be some prefix of the key's history at least as new as
   its durable floor. *)
type model = {
  hist : (string, string option list) Hashtbl.t;  (* newest first *)
  floor : (string, int) Hashtbl.t;
}

let model_push m key v =
  Hashtbl.replace m.hist key (v :: Option.value ~default:[] (Hashtbl.find_opt m.hist key))

let model_latest m key =
  match Hashtbl.find_opt m.hist key with Some (v :: _) -> v | _ -> None

let raise_floor m key idx =
  let prev = Option.value ~default:0 (Hashtbl.find_opt m.floor key) in
  if idx > prev then Hashtbl.replace m.floor key idx

let check_recovered m key observed =
  let ordered = List.rev (Option.value ~default:[] (Hashtbl.find_opt m.hist key)) in
  let floor = Option.value ~default:0 (Hashtbl.find_opt m.floor key) in
  let m_len = List.length ordered in
  let ok = ref false in
  for j = floor to m_len do
    let candidate = if j = 0 then None else List.nth ordered (j - 1) in
    if candidate = observed then ok := true
  done;
  if not !ok then
    Alcotest.fail
      (Printf.sprintf "key %s: mid-restart %s not a durable-consistent prefix of its history"
         key
         (match observed with None -> "<absent>" | Some v -> v))

let fuzz_instant ~shards seed =
  let rng = Random.State.make [| 0x1257a27; shards; seed |] in
  let store = Sharded_store.create ~shards ~partitions:(6 * shards) ~cache_capacity:8 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  let zipf = Zipf.create ~theta:0.9 24 in
  let nops = 40 + Random.State.int rng 81 in
  let m = { hist = Hashtbl.create 32; floor = Hashtbl.create 8 } in
  let awaited = ref [] in
  let medium = Log_manager.medium (Sharded_store.log store) in
  let masters = ref [] in
  for _ = 1 to nops do
    let key = Zipf.sample_key zipf rng in
    match Random.State.int rng 100 with
    | r when r < 55 ->
      let v = Printf.sprintf "v%d" (Random.State.int rng 1000) in
      Sharded_store.put store key v;
      model_push m key (Some v)
    | r when r < 65 ->
      Sharded_store.delete store key;
      model_push m key None
    | r when r < 78 ->
      let v = Printf.sprintf "d%d" (Random.State.int rng 1000) in
      let tk = Sharded_store.put_durable store key v in
      model_push m key (Some v);
      let idx = List.length (Hashtbl.find m.hist key) in
      if Random.State.bool rng then begin
        Log_manager.await tk;
        awaited := (tk, key, idx) :: !awaited;
        raise_floor m key idx
      end
    | r when r < 90 ->
      Alcotest.check value_opt ("live get " ^ key) (model_latest m key)
        (Sharded_store.get store key)
    | r when r < 94 ->
      ignore (Sharded_store.checkpoint_sharded store);
      Util.track_masters medium masters
    | r when r < 97 ->
      Sharded_store.checkpoint store;
      Util.track_masters medium masters
    | _ -> Sharded_store.sync store
  done;
  let crash () =
    (* Sometimes the crash beat the newest checkpoint's master write. *)
    if Random.State.int rng 3 = 0 then
      Stable_log.set_master medium (Util.pick_stale rng !masters);
    if Random.State.int rng 3 = 0 then
      Sharded_store.crash_torn store ~drop:(1 + Random.State.int rng 4)
    else Sharded_store.crash store
  in
  crash ();
  List.iter
    (fun (tk, key, idx) ->
      Alcotest.(check bool) "awaited ticket survives" true (Log_manager.ticket_stable tk);
      raise_floor m key idx)
    !awaited;
  (match Sharded_store.verify_recovery_invariant store with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("recovery invariant: " ^ msg));
  ignore (Sharded_store.recover ~mode:`Instant store);
  (* Serve mid-restart: reads must observe a durable-consistent prefix
     (the page's drain runs before the read); writes land on top and
     read back immediately. *)
  for _ = 1 to 1 + Random.State.int rng 6 do
    let key = Zipf.sample_key zipf rng in
    if Random.State.int rng 3 = 0 then begin
      let v = Printf.sprintf "m%d" (Random.State.int rng 1000) in
      Sharded_store.put store key v;
      model_push m key (Some v);
      Alcotest.check value_opt ("mid-restart readback " ^ key) (Some v)
        (Sharded_store.get store key)
    end
    else check_recovered m key (Sharded_store.get store key)
  done;
  (* Half the runs let the restart finish; half crash it mid-flight
     (sometimes torn) and recover again — randomly eagerly or instantly
     — which must converge to the same state as one eager recovery. *)
  if Random.State.bool rng then begin
    ignore (Sharded_store.await_recovery store);
    Alcotest.(check int) "recovered set total" 0 (Sharded_store.recovery_pending store);
    (* The mid-restart writes are in the log but not yet forced; the
       [`Recovered] certificate compares against the stable prefix, so
       bring the prefix up to them. *)
    Sharded_store.sync store
  end
  else begin
    crash ();
    if Random.State.bool rng then ignore (Sharded_store.recover store)
    else begin
      ignore (Sharded_store.recover ~mode:`Instant store);
      ignore (Sharded_store.await_recovery store)
    end;
    Alcotest.(check int) "second recovery total" 0 (Sharded_store.recovery_pending store)
  end;
  (* Whichever path ran, the store must now equal the serial replay of
     its stable prefix — the state one eager recovery produces. *)
  let recovered = Sharded_store.certify store ~phase:`Recovered in
  Alcotest.(check bool)
    (Fmt.str "recovered: %a" Theory_check.pp_certificate recovered)
    true
    (Theory_check.certificate_ok recovered);
  let dump = Sharded_store.dump store in
  List.iter
    (fun (key, _) ->
      if not (Hashtbl.mem m.hist key) then Alcotest.fail ("phantom key " ^ key))
    dump;
  Hashtbl.iter (fun key _ -> check_recovered m key (List.assoc_opt key dump)) m.hist;
  (* And it stays usable. *)
  for i = 1 to 5 do
    Sharded_store.put store (Printf.sprintf "post%02d" i) "p"
  done;
  Sharded_store.sync store;
  Alcotest.check value_opt "post-restart get" (Some "p") (Sharded_store.get store "post03");
  let relive = Sharded_store.certify store ~phase:`Live in
  Alcotest.(check bool) "post-restart certified" true (Theory_check.certificate_ok relive);
  true

let suite =
  [
    Util.qtest "plan partitions the slice" plan_partitions;
    Alcotest.test_case "controller drains exactly once" `Quick test_controller_drains;
    Alcotest.test_case "sweeper completes the recovered set" `Quick test_sweeper_completes;
    Alcotest.test_case "stop wakes await, abandons queues" `Quick test_stop_wakes_await;
    Alcotest.test_case "instant mode serves during recovery" `Quick
      test_instant_serves_during_recovery;
    Alcotest.test_case "a drain that raises is reported, not hung" `Quick
      test_failed_drain_is_reported;
    Alcotest.test_case "queue-depth histogram counts every drain" `Quick
      test_queue_depth_counts_every_drain;
    Alcotest.test_case "triage reconstructs lazy drains" `Quick test_triage_lazy_drains;
    Alcotest.test_case "triage of an interrupted restart" `Quick
      test_triage_interrupted_restart;
    Alcotest.test_case "a live restart hands synchronous calls off" `Quick
      test_restart_hands_off;
    Util.takes_both_paths (Util.qtest "crash-mid-restart fuzz: 1 shard" (fuzz_instant ~shards:1));
    Util.takes_both_paths (Util.qtest "crash-mid-restart fuzz: 2 shards" (fuzz_instant ~shards:2));
    Util.takes_both_paths (Util.qtest "crash-mid-restart fuzz: 4 shards" (fuzz_instant ~shards:4));
  ]
