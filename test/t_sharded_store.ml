(* The sharded KV service: randomized crash-recovery fuzz at shard
   counts 1, 2 and 4 (100 runs each, a third of them crashing with a
   stale master record; across its runs each fuzzer must see gets and
   durable puts both run inline and queued), plus a flight-recorder
   triage
   audit of the staged-commit claims after a torn crash and a check of
   the crash markers every crash stamps.

   Each fuzz run drives random Zipf traffic through the worker domains,
   crashes at a random point (sometimes torn), checks the Recovery
   Invariant on the crashed projection, recovers, and then demands two
   independent kinds of agreement:

   - the store's own serial certificate (dump = single-threaded LSN
     replay of the stable prefix), and
   - a test-side per-key model: the recovered value of every key must
     be the result of some prefix of that key's operation history no
     shorter than its durable floor — the newest operation whose commit
     barrier (an awaited [put_durable]) or post-crash [ticket_stable]
     claim promised survival. *)

open Redo_storage
open Redo_wal
open Redo_kv
open Redo_workload
module Theory_check = Redo_methods.Theory_check
module Flight = Redo_obs.Flight
module Triage = Redo_obs.Triage

let value_opt = Alcotest.(option string)

(* Per-key history, oldest first: the value each operation leaves
   behind ([None] for a delete). *)
type model = {
  hist : (string, string option list) Hashtbl.t;  (* newest first *)
  floor : (string, int) Hashtbl.t;  (* surviving prefix must reach here *)
}

let model_push m key v =
  Hashtbl.replace m.hist key (v :: Option.value ~default:[] (Hashtbl.find_opt m.hist key))

let model_latest m key =
  match Hashtbl.find_opt m.hist key with Some (v :: _) -> v | _ -> None

let raise_floor m key idx =
  let prev = Option.value ~default:0 (Hashtbl.find_opt m.floor key) in
  if idx > prev then Hashtbl.replace m.floor key idx

(* After recovery, [key]'s observed value must be [result of op j] for
   some j between the durable floor and the full history length (j = 0
   meaning "no operation survived"). *)
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
      (Printf.sprintf "key %s: recovered %s not a durable-consistent prefix of its history"
         key
         (match observed with None -> "<absent>" | Some v -> v))

let fuzz ~shards seed =
  let rng = Random.State.make [| 0x5aded; shards; seed |] in
  let store = Sharded_store.create ~shards ~partitions:(6 * shards) ~cache_capacity:8 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  let zipf = Zipf.create ~theta:0.9 24 in
  let nops = 40 + Random.State.int rng 81 in
  let m = { hist = Hashtbl.create 32; floor = Hashtbl.create 8 } in
  let awaited = ref [] in
  let held = ref [] in
  let medium = Log_manager.medium (Sharded_store.log store) in
  let masters = ref [] in
  for _ = 1 to nops do
    let key = Zipf.sample_key zipf rng in
    match Random.State.int rng 100 with
    | r when r < 50 ->
      let v = Printf.sprintf "v%d" (Random.State.int rng 1000) in
      Sharded_store.put store key v;
      model_push m key (Some v)
    | r when r < 60 ->
      Sharded_store.delete store key;
      model_push m key None
    | r when r < 72 ->
      let v = Printf.sprintf "d%d" (Random.State.int rng 1000) in
      let tk = Sharded_store.put_durable store key v in
      model_push m key (Some v);
      let idx = List.length (Hashtbl.find m.hist key) in
      if Random.State.bool rng then begin
        (* A commit barrier: this operation must survive any crash. *)
        Log_manager.await tk;
        awaited := tk :: !awaited;
        raise_floor m key idx
      end
      else held := (tk, key, idx) :: !held
    | r when r < 84 ->
      (* Reads linearize per key: the owner's mailbox is FIFO, so a get
         posted after the key's last write observes it. *)
      Alcotest.check value_opt ("live get " ^ key) (model_latest m key)
        (Sharded_store.get store key)
    | r when r < 89 ->
      let tk = Sharded_store.get_async store key in
      Alcotest.check value_opt ("async get " ^ key) (model_latest m key)
        (Redo_par.Mailbox.Ticket.await tk)
    | r when r < 93 ->
      Sharded_store.checkpoint store;
      Util.track_masters medium masters
    | r when r < 96 ->
      ignore (Sharded_store.checkpoint_sharded store);
      Util.track_masters medium masters
    | _ -> Sharded_store.sync store
  done;
  (* Certify the live run: concurrent execution = serial LSN replay. *)
  let live = Sharded_store.certify store ~phase:`Live in
  Alcotest.(check bool)
    (Fmt.str "live: %a" Theory_check.pp_certificate live)
    true
    (Theory_check.certificate_ok live);
  (* Crash at this point, sometimes tearing the final force, and
     sometimes before the newest checkpoint's master write. *)
  if Random.State.int rng 3 = 0 then
    Stable_log.set_master medium (Util.pick_stale rng !masters);
  if Random.State.int rng 3 = 0 then
    Sharded_store.crash_torn store ~drop:(1 + Random.State.int rng 4)
  else Sharded_store.crash store;
  (* Barriered commits must hold their stability claim across the crash;
     held tickets now resolve, raising the model's durable floor. *)
  List.iter
    (fun tk ->
      Alcotest.(check bool) "awaited ticket survives" true (Log_manager.ticket_stable tk))
    !awaited;
  List.iter
    (fun (tk, key, idx) -> if Log_manager.ticket_stable tk then raise_floor m key idx)
    !held;
  (* The crashed store must satisfy the Recovery Invariant... *)
  (match Sharded_store.verify_recovery_invariant store with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("recovery invariant: " ^ msg));
  (* ...and recovery must reproduce the stable prefix's serial replay. *)
  ignore (Sharded_store.recover store);
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
  (* The store stays usable after recovery. *)
  for i = 1 to 5 do
    Sharded_store.put store (Printf.sprintf "post%02d" i) "p"
  done;
  Sharded_store.sync store;
  Alcotest.check value_opt "post-recovery get" (Some "p") (Sharded_store.get store "post03");
  let relive = Sharded_store.certify store ~phase:`Live in
  Alcotest.(check bool) "post-recovery certified" true (Theory_check.certificate_ok relive);
  true

(* ---- triage of staged claims (flight recorder) --------------------- *)

let with_flight f =
  Flight.reset ();
  Flight.configure ();
  Flight.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.reset ())

let test_triage_staged_claims () =
  (* Two barriered batches, six staged commits racing a torn crash.
     Post-crash triage — given only the surviving flight frames and the
     stable log — must find nobody who was lied to and must agree with
     every in-process [ticket_stable] verdict, and recovery must still
     certify against the stable prefix. *)
  with_flight @@ fun () ->
  let store = Sharded_store.create ~shards:2 ~partitions:8 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  for i = 1 to 8 do
    Sharded_store.put store (Printf.sprintf "k%02d" i) "v"
  done;
  Sharded_store.sync store;
  ignore (Sharded_store.checkpoint_sharded store);
  let held =
    List.init 6 (fun i -> Sharded_store.put_durable store (Printf.sprintf "s%02d" i) "w")
  in
  Sharded_store.crash_torn store ~drop:3;
  let report =
    Triage.analyze ~flight:(Flight.scan ())
      ~log:(Redo_sim.Simulator.triage_log_summary (Sharded_store.log store))
  in
  Alcotest.(check int) "nobody was lied to" 0 report.Triage.lied_to;
  Alcotest.(check bool) "triage verdict OK" true (Triage.ok report);
  let verdicts = Triage.staged_verdicts report in
  List.iter
    (fun tk ->
      let lsn = Lsn.to_int (Log_manager.ticket_lsn tk) in
      match List.assoc_opt lsn verdicts with
      | Some v ->
        Alcotest.(check bool)
          (Printf.sprintf "lsn %d: triage agrees with ticket_stable" lsn)
          (Log_manager.ticket_stable tk) v
      | None -> ())
    held;
  ignore (Sharded_store.recover store);
  let cert = Sharded_store.certify store ~phase:`Recovered in
  Alcotest.(check bool) "recovered certified" true (Theory_check.certificate_ok cert)

let test_crash_markers () =
  (* Every crash runs the recorder's crash gate: one marker per crash,
     numbered by the store's crash count, torn exactly when bytes were
     dropped. *)
  with_flight @@ fun () ->
  let store = Sharded_store.create ~shards:2 ~partitions:8 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  List.iter
    (fun crash ->
      Sharded_store.put store "k" "v";
      Sharded_store.sync store;
      crash store;
      ignore (Sharded_store.recover store))
    [
      Sharded_store.crash;
      (fun s -> Sharded_store.crash_torn s ~drop:3);
      (fun s -> Sharded_store.crash_torn s ~drop:0);
    ];
  let markers =
    List.filter_map
      (fun f ->
        match f.Flight.event with
        | Flight.Crash { crash; torn } -> Some (crash, torn)
        | _ -> None)
      (Flight.scan ()).Flight.frames
  in
  Alcotest.(check (list (pair int bool))) "one marker per crash"
    [ 1, false; 2, true; 3, false ]
    markers;
  Alcotest.(check int) "crashes counted" 3 (Sharded_store.stats store).Sharded_store.crashes

(* ---- basic unit coverage ------------------------------------------- *)

let test_basics () =
  let store = Sharded_store.create ~shards:4 ~partitions:16 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  Alcotest.(check int) "shards" 4 (Sharded_store.shards store);
  Alcotest.(check int) "partitions" 16 (Sharded_store.partitions store);
  Sharded_store.put store "a" "1";
  Sharded_store.put store "b" "2";
  Sharded_store.delete store "a";
  Alcotest.check value_opt "deleted" None (Sharded_store.get store "a");
  Alcotest.check value_opt "present" (Some "2") (Sharded_store.get store "b");
  Sharded_store.sync store;
  Alcotest.(check int) "durable ops" 3 (Sharded_store.durable_ops store);
  Alcotest.(check (list (pair string string))) "dump" [ "b", "2" ] (Sharded_store.dump store);
  let s = Sharded_store.stats store in
  Alcotest.(check int) "puts counted" 2 s.Sharded_store.puts;
  Alcotest.(check int) "deletes counted" 1 s.Sharded_store.deletes;
  Alcotest.(check bool) "empty key rejected" true
    (match Sharded_store.put store "" "x" with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_close_idempotent () =
  let store = Sharded_store.create ~shards:2 () in
  Sharded_store.put store "k" "v";
  Sharded_store.close store;
  Sharded_store.close store;
  Alcotest.(check bool) "ops rejected after close" true
    (match Sharded_store.sync store with
    | exception Invalid_argument _ -> true
    | () -> false)

(* A drain writes a page's redone tail with one cache update, which must
   record the first LSN it redid as the page's recLSN, not the last: a
   fuzzy checkpoint's dirty-page table takes the cached pages' recLSNs,
   and the next redo skips what lies below them. *)
let test_batched_redo_rec_lsn mode () =
  let store = Sharded_store.create ~shards:2 ~partitions:4 ~cache_capacity:8 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  let base = List.init 20 (fun i -> Printf.sprintf "b%02d" i, "v") in
  List.iter (fun (k, v) -> Sharded_store.put store k v) base;
  ignore (Sharded_store.checkpoint_sharded store);
  (* Twenty puts on four pages: every page's tail holds several. *)
  let tail = List.init 20 (fun i -> Printf.sprintf "t%02d" i, string_of_int i) in
  List.iter (fun (k, v) -> Sharded_store.put store k v) tail;
  Sharded_store.sync store;
  let restart () =
    Sharded_store.crash store;
    ignore (Sharded_store.recover ~mode store);
    ignore (Sharded_store.await_recovery store)
  in
  restart ();
  Sharded_store.checkpoint store;
  restart ();
  List.iter
    (fun (k, v) ->
      Alcotest.check value_opt ("acknowledged write " ^ k) (Some v) (Sharded_store.get store k))
    (base @ tail)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "close idempotent" `Quick test_close_idempotent;
    Alcotest.test_case "triage of staged claims" `Quick test_triage_staged_claims;
    Util.takes_both_paths (Util.qtest "fuzz: 1 shard" (fuzz ~shards:1));
    Util.takes_both_paths (Util.qtest "fuzz: 2 shards" (fuzz ~shards:2));
    Util.takes_both_paths (Util.qtest "fuzz: 4 shards" (fuzz ~shards:4));
    Alcotest.test_case "crash gate stamps one marker per crash" `Quick test_crash_markers;
    Alcotest.test_case "recLSN of a batched redo: eager" `Quick
      (test_batched_redo_rec_lsn `Eager);
    Alcotest.test_case "recLSN of a batched redo: instant" `Quick
      (test_batched_redo_rec_lsn `Instant);
  ]
