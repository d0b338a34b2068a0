(* The master record and decode on read.

   - The master cell follows forced global checkpoints and survives
     crashes.
   - Faults below the master: a flipped payload or CRC byte leaves the
     crash alone and is reported, naming its LSN and frame offset, by
     every reader that reaches the frame; a flipped length or LSN byte
     makes the header walk miss the master's offset, and a flipped byte
     in the master's own frame fails its CRC; the crash reports either
     without truncating any forced frame.
   - Faults from the master on: a frame that checks but carries the
     wrong LSN is reported by the crash; one that checks but does not
     decode survives it and is reported by whatever reads it. Neither is
     truncated as a torn tail.
   - A stale master (a crash that beat the master write, modelled by
     rolling the cell back to an older checkpoint or clearing it)
     restarts to exactly what the current master does: the same stable
     records, checkpoint index, analysis slice, recovery statistics and
     contents, for all
     four methods and both sharded restart modes, after clean and torn
     crashes.
   - The analysis reads only the shard records after the redo start,
     and clears the same slice records as all of them would.
   - A restart decodes only what it redoes: a crash decodes nothing, an
     open only the checkpoint and the shard records after the redo
     start, and the drains or the eager replay each record they redo,
     once. A generalized (B-tree) recovery decodes its redo slice, the
     checkpoint and the shard records after the slice starts. *)

open Redo_storage
open Redo_wal
open Redo_kv
module Registry = Redo_methods.Registry
module Method_intf = Redo_methods.Method_intf
module Page_redo = Redo_restart.Page_redo
module Metrics = Redo_obs.Metrics
module Theory_check = Redo_methods.Theory_check

let payload_put k v = Record.Physiological { pid = 0; op = Page_op.Put (k, v) }

(* Each stable record's LSN and frame offset, in LSN order. *)
let frame_offsets log =
  let pos = ref 0 in
  List.map
    (fun r ->
      let at = !pos in
      pos := at + 8 + Codec.encoded_size r;
      Lsn.to_int (Record.lsn r), at)
    (Log_manager.stable_records log)

let master_lsn medium =
  match Stable_log.master medium with
  | Some { Stable_log.ckpt_lsn; _ } -> Lsn.to_int ckpt_lsn
  | None -> 0

let test_master_follows_forced_checkpoints () =
  let log = Log_manager.create () in
  let medium = Log_manager.medium log in
  ignore (Log_manager.append log (payload_put "a" "1"));
  let c1 = Log_manager.append log (Record.Checkpoint { dirty_pages = []; note = "one" }) in
  ignore (Log_manager.append log (payload_put "b" "2"));
  Alcotest.(check int) "an unforced checkpoint writes no master" 0 (master_lsn medium);
  Log_manager.force log ~upto:c1;
  Alcotest.(check int) "the forced checkpoint is the master" (Lsn.to_int c1) (master_lsn medium);
  let offset = List.assoc (Lsn.to_int c1) (frame_offsets log) in
  Alcotest.(check (option int)) "at its frame's offset" (Some offset)
    (Option.map (fun m -> m.Stable_log.offset) (Stable_log.master medium));
  ignore
    (Log_manager.append log
       (Record.Shard_checkpoint
          {
            shard_pages = [ 0 ];
            horizon = c1;
            shard_index = 0;
            shard_total = 1;
            shard_note = "s";
          }));
  Log_manager.force_all log;
  Alcotest.(check int) "a shard checkpoint does not move it" (Lsn.to_int c1) (master_lsn medium);
  let c2 = Log_manager.append log (Record.Checkpoint { dirty_pages = []; note = "two" }) in
  ignore (Log_manager.append log (payload_put "c" "3"));
  Log_manager.force_all log;
  Alcotest.(check int) "a later force moves it" (Lsn.to_int c2) (master_lsn medium);
  let before = List.map Codec.encode_record (Log_manager.stable_records log) in
  Log_manager.crash log;
  Alcotest.(check int) "it survives a crash" (Lsn.to_int c2) (master_lsn medium);
  Alcotest.(check (list string)) "every record reads back" before
    (List.map Codec.encode_record (Log_manager.stable_records log));
  Alcotest.(check int) "ops counted without decoding" 3 (Log_manager.stable_op_records log);
  (match Log_manager.last_stable_checkpoint log with
  | Some (lsn, { Record.note; _ }) ->
    Alcotest.(check int) "newest checkpoint" (Lsn.to_int c2) (Lsn.to_int lsn);
    Alcotest.(check string) "note" "two" note
  | None -> Alcotest.fail "checkpoint lost");
  Alcotest.(check int) "the shard checkpoint below the master reads back" 1
    (List.length (Log_manager.stable_shard_checkpoints log))

(* ---- faults below the master -------------------------------------- *)

let key i = Printf.sprintf "key%03d" i

(* A sharded store whose stable log holds 40 puts, a sharded checkpoint
   (the master) and 20 more puts. *)
let with_checkpointed_store f =
  let store = Sharded_store.create ~shards:2 ~partitions:8 ~cache_capacity:8 () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  for i = 1 to 40 do
    Sharded_store.put store (key i) "v"
  done;
  ignore (Sharded_store.checkpoint_sharded store);
  for i = 41 to 60 do
    Sharded_store.put store (key i) "w"
  done;
  Sharded_store.sync store;
  f store

let expect_corrupt what ~lsn ~offset f =
  match f () with
  | exception (Stable_log.Corrupt_frame c as exn) ->
    Alcotest.(check int) (what ^ ": names the LSN") lsn c.lsn;
    Alcotest.(check int) (what ^ ": names the offset") offset c.offset;
    let msg = Printexc.to_string exn in
    let mentions s =
      let n = String.length s in
      let rec go i = i + n <= String.length msg && (String.sub msg i n = s || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (what ^ ": message names both") true
      (mentions (Printf.sprintf "LSN %d" lsn) && mentions (Printf.sprintf "byte %d" offset))
  | _ -> Alcotest.fail (what ^ ": returned instead of reporting the corrupt frame")

let test_payload_flip_below_master () =
  (* Record 10 is a put, well below the master. Flip the last byte of
     its payload (its value) or a byte of its CRC. *)
  List.iter
    (fun (what, byte_of) ->
      with_checkpointed_store @@ fun store ->
      let log = Sharded_store.log store in
      let medium = Log_manager.medium log in
      let offsets = frame_offsets log in
      let offset = List.assoc 10 offsets and next = List.assoc 11 offsets in
      Alcotest.(check bool) "below the master" true (11 < master_lsn medium);
      let expected = Sharded_store.dump store in
      Stable_log.corrupt_byte medium ~pos:(byte_of ~offset ~next);
      let bytes = Stable_log.byte_size medium in
      Sharded_store.crash store;
      Alcotest.(check int) (what ^ ": nothing truncated") bytes (Stable_log.byte_size medium);
      Alcotest.(check int) (what ^ ": every frame still stable") (List.length offsets)
        (Lsn.to_int (Log_manager.flushed_lsn log));
      (* Recovery reads from the master on and never meets the frame. *)
      ignore (Sharded_store.recover store);
      Alcotest.(check (list (pair string string))) (what ^ ": recovered") expected
        (Sharded_store.dump store);
      expect_corrupt (what ^ ": stable_records") ~lsn:10 ~offset (fun () ->
          Log_manager.stable_records log);
      expect_corrupt (what ^ ": records_from") ~lsn:10 ~offset (fun () ->
          Log_manager.records_from log ~from:(Lsn.of_int 5));
      expect_corrupt (what ^ ": certify") ~lsn:10 ~offset (fun () ->
          Sharded_store.certify store ~phase:`Recovered))
    [
      "payload byte", (fun ~offset:_ ~next -> next - 1);
      "CRC byte", (fun ~offset ~next:_ -> offset + 5);
    ]

let test_header_flip_below_master () =
  (* A flipped length or LSN byte below the master sends the walk off
     its frames, and a flipped byte in the master's own frame fails its
     CRC: either way the crash reports it, and the medium keeps every
     forced byte. *)
  List.iter
    (fun (what, lsn, delta) ->
      let log = Log_manager.create () in
      for i = 1 to 30 do
        ignore (Log_manager.append log (payload_put (key i) "v"))
      done;
      ignore (Log_manager.append log (Record.Checkpoint { dirty_pages = []; note = "m" }));
      for i = 31 to 40 do
        ignore (Log_manager.append log (payload_put (key i) "w"))
      done;
      Log_manager.force_all log;
      let medium = Log_manager.medium log in
      Alcotest.(check int) "the checkpoint is the master" 31 (master_lsn medium);
      let offset = List.assoc lsn (frame_offsets log) in
      Stable_log.corrupt_byte medium ~pos:(offset + delta);
      let bytes = Stable_log.contents medium in
      (match Log_manager.crash log with
      | exception Stable_log.Corrupt_frame c ->
        Alcotest.(check bool) (what ^ ": names a frame up to the master") true
          (c.lsn >= lsn && c.lsn <= 31)
      | () -> Alcotest.fail (what ^ ": the crash did not report it"));
      Alcotest.(check bool) (what ^ ": nothing truncated") true
        (Stable_log.contents medium = bytes))
    [
      "length high byte", 10, 0;
      "length low byte", 10, 3;
      "LSN high byte", 10, 8;
      "LSN low byte", 10, 15;
      "the master's own payload", 31, 12;
    ]

(* Crash with the master rolled back to [stale], observe the restart,
   then re-read the same stable log with the current master and observe
   it again. Nothing unforced survives the first crash, so the second is
   a plain re-read; every cache holds all its pages, so the first
   recovery evicts nothing and leaves the disk as the crash did. *)
let stale_equals_current ~medium ~stale ~crash ~observe =
  let current = Stable_log.master medium in
  Stable_log.set_master medium stale;
  crash ();
  let stale_view = observe () in
  Stable_log.set_master medium current;
  crash ();
  stale_view = observe ()

let encoded records = List.map Codec.encode_record records

(* What a restart reads of the stable log: every record, the checkpoint
   index, and the analysis pass's redo start and slice. *)
let read_back log ~pages =
  let a = Page_redo.analyze log ~pages in
  ( encoded (Log_manager.stable_records log),
    Log_manager.stable_op_records log,
    Option.map (fun (lsn, _) -> Lsn.to_int lsn) (Log_manager.last_stable_checkpoint log),
    List.map (fun (pid, h) -> pid, Lsn.to_int h) (Log_manager.stable_shard_horizons log),
    ( Lsn.to_int (Page_redo.redo_start a),
      Page_redo.analysis_scanned a,
      encoded (Log_manager.records_from log ~from:(fst (Page_redo.slice a))),
      Lsn.to_int (snd (Page_redo.slice a)) ) )

let prop_stale_master_method name seed =
  let rng = Random.State.make [| 0x57a1e; seed |] in
  let i = Registry.find name ~cache_capacity:512 ~partitions:8 () in
  let log = Method_intf.instance_log i in
  let medium = Log_manager.medium log in
  let masters = ref [] in
  for step = 1 to 60 + Random.State.int rng 80 do
    let k = key (Random.State.int rng 40) in
    (match Random.State.int rng 100 with
    | r when r < 55 -> Method_intf.instance_put i k (string_of_int step)
    | r when r < 65 -> Method_intf.instance_delete i k
    | r when r < 75 -> Method_intf.instance_flush_some i rng
    | r when r < 84 -> Method_intf.instance_checkpoint i
    | r when r < 90 -> ignore (Method_intf.instance_checkpoint_sharded ~domains:1 i)
    | _ -> Method_intf.instance_sync i);
    Util.track_masters medium masters
  done;
  if Stable_log.master medium = None then begin
    Method_intf.instance_checkpoint i;
    Util.track_masters medium masters
  end;
  let torn = Random.State.bool rng and drop = 1 + Random.State.int rng 8 in
  stale_equals_current ~medium ~stale:(Util.pick_stale rng !masters)
    ~crash:(fun () ->
      if torn then Method_intf.instance_crash_torn i ~drop else Method_intf.instance_crash i)
    ~observe:(fun () ->
      let read = read_back log ~pages:4096 in
      let stats = Method_intf.instance_recover i in
      read, stats, Method_intf.instance_dump i)

let prop_stale_master_sharded ~mode seed =
  let rng = Random.State.make [| 0x57a1e5; seed |] in
  let partitions = 8 in
  let store = Sharded_store.create ~shards:2 ~partitions ~cache_capacity:partitions () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  let log = Sharded_store.log store in
  let medium = Log_manager.medium log in
  let masters = ref [] in
  for step = 1 to 60 + Random.State.int rng 80 do
    let k = key (Random.State.int rng 40) in
    (match Random.State.int rng 100 with
    | r when r < 55 -> Sharded_store.put store k (string_of_int step)
    | r when r < 65 -> Sharded_store.delete store k
    | r when r < 75 -> Log_manager.await (Sharded_store.put_durable store k "d")
    | r when r < 84 -> Sharded_store.checkpoint store
    | r when r < 90 -> ignore (Sharded_store.checkpoint_sharded store)
    | _ -> Sharded_store.sync store);
    Util.track_masters medium masters
  done;
  if Stable_log.master medium = None then begin
    Sharded_store.checkpoint store;
    Util.track_masters medium masters
  end;
  let torn = Random.State.bool rng and drop = 1 + Random.State.int rng 8 in
  stale_equals_current ~medium ~stale:(Util.pick_stale rng !masters)
    ~crash:(fun () ->
      if torn then Sharded_store.crash_torn store ~drop else Sharded_store.crash store)
    ~observe:(fun () ->
      let read = read_back log ~pages:partitions in
      let stats = Sharded_store.recover ~mode store in
      ignore (Sharded_store.await_recovery store);
      read, stats, Sharded_store.dump store)

(* ---- frames from the master on --------------------------------------- *)

(* Rewrite the stable log from the frame of [lsn] on: that frame gets
   [payload] (framed with a valid CRC) and the frames after it are
   appended again as they were. Returns the frame's offset. *)
let rewrite_frame log ~lsn payload =
  let medium = Log_manager.medium log in
  let records = Log_manager.stable_records log in
  let offset = List.assoc lsn (frame_offsets log) in
  Stable_log.tear medium ~drop:(Stable_log.byte_size medium - offset);
  List.iter
    (fun r ->
      let l = Lsn.to_int (Record.lsn r) in
      if l = lsn then ignore (Stable_log.append medium payload)
      else if l > lsn then ignore (Stable_log.append_record medium r))
    records;
  offset

let test_undecodable_frame_from_master () =
  (* A put after the master, its payload shortened by one byte under a
     recomputed CRC, with valid frames after it: corruption, not a torn
     tail. The crash keeps it, and whatever reads it reports it. *)
  Util.with_timeout ~seconds:60. "undecodable frame" @@ fun () ->
  with_checkpointed_store @@ fun store ->
  let log = Sharded_store.log store in
  let medium = Log_manager.medium log in
  let lsn = master_lsn medium + 5 in
  let r = List.nth (Log_manager.stable_records log) (lsn - 1) in
  let key =
    match Record.payload r with
    | Record.Physiological { op = Page_op.Put (k, _); _ } -> k
    | _ -> Alcotest.fail "not a put"
  in
  let full = Codec.encode_record r in
  let offset = rewrite_frame log ~lsn (String.sub full 0 (String.length full - 1)) in
  let bytes = Stable_log.contents medium in
  let stable = Lsn.to_int (Log_manager.flushed_lsn log) in
  Sharded_store.crash store;
  Alcotest.(check bool) "never truncated" true (Stable_log.contents medium = bytes);
  Alcotest.(check int) "it survives the crash" stable (Lsn.to_int (Log_manager.flushed_lsn log));
  expect_corrupt "its reader" ~lsn ~offset (fun () ->
      Log_manager.records_from log ~from:(Lsn.of_int lsn));
  expect_corrupt "an eager recovery" ~lsn ~offset (fun () -> Sharded_store.recover store);
  Sharded_store.crash store;
  ignore (Sharded_store.recover ~mode:`Instant store);
  expect_corrupt "a get on its page" ~lsn ~offset (fun () -> Sharded_store.get store key);
  expect_corrupt "await_recovery" ~lsn ~offset (fun () -> Sharded_store.await_recovery store);
  Sharded_store.crash store;
  Alcotest.(check bool) "still never truncated" true (Stable_log.contents medium = bytes)

let test_wrong_lsn_from_master () =
  (* A frame after the master that checks but carries another LSN was
     written wrong: the crash reports it and truncates nothing. *)
  let log = Log_manager.create () in
  for i = 1 to 30 do
    ignore (Log_manager.append log (payload_put (key i) "v"))
  done;
  ignore (Log_manager.append log (Record.Checkpoint { dirty_pages = []; note = "m" }));
  for i = 31 to 40 do
    ignore (Log_manager.append log (payload_put (key i) "w"))
  done;
  Log_manager.force_all log;
  let medium = Log_manager.medium log in
  Alcotest.(check int) "the checkpoint is the master" 31 (master_lsn medium);
  let r = List.nth (Log_manager.stable_records log) 34 in
  let offset =
    rewrite_frame log ~lsn:35
      (Codec.encode_record (Record.make ~lsn:(Lsn.of_int 36) (Record.payload r)))
  in
  let bytes = Stable_log.contents medium in
  expect_corrupt "the crash" ~lsn:35 ~offset (fun () -> Log_manager.crash log);
  Alcotest.(check bool) "nothing truncated" true (Stable_log.contents medium = bytes)

(* ---- shard horizons from the redo start on ----------------------------- *)

(* A crash that tore a sharded checkpoint's final force: its shard
   records reached the medium, its summary checkpoint did not, and the
   master write after the force never happened. Call right after
   [checkpoint_sharded], whose summary is then the medium's last frame
   and its master. *)
let tear_summary medium ~previous =
  match Stable_log.master medium with
  | Some { Stable_log.offset; _ } ->
    Stable_log.tear medium ~drop:(Stable_log.byte_size medium - offset);
    Stable_log.set_master medium previous
  | None -> Alcotest.fail "no summary to tear"

(* The analysis reads only the shard records after the redo start. Over
   random stores mixing fuzzy and sharded checkpoints, half of them
   ending in a torn summary (so that shard records lie after the redo
   start), the filtered horizons clear exactly the slice records all of
   them clear, and both restart modes report the same work. *)
let prop_horizons_from_redo_start seed =
  let rng = Random.State.make [| 0x40121; seed |] in
  let partitions = 8 in
  let store = Sharded_store.create ~shards:2 ~partitions ~cache_capacity:partitions () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  let log = Sharded_store.log store in
  let medium = Log_manager.medium log in
  for step = 1 to 60 + Random.State.int rng 80 do
    let k = key (Random.State.int rng 40) in
    match Random.State.int rng 100 with
    | r when r < 60 -> Sharded_store.put store k (string_of_int step)
    | r when r < 70 -> Sharded_store.delete store k
    | r when r < 80 -> Log_manager.await (Sharded_store.put_durable store k "d")
    | r when r < 88 -> Sharded_store.checkpoint store
    | r when r < 95 -> ignore (Sharded_store.checkpoint_sharded store)
    | _ -> Sharded_store.sync store
  done;
  let torn = Random.State.bool rng in
  if torn then begin
    for i = 1 to 5 do
      Sharded_store.put store (key i) "last"
    done;
    let previous = Stable_log.master medium in
    ignore (Sharded_store.checkpoint_sharded store);
    tear_summary medium ~previous
  end;
  Sharded_store.crash store;
  let a = Page_redo.analyze log ~pages:partitions in
  let start = Page_redo.redo_start a in
  if torn then
    Alcotest.(check bool) "shard records lie after the redo start" true
      (List.exists
         (fun (lsn, _) -> Lsn.(start < lsn))
         (Log_manager.stable_shard_checkpoints log));
  let every = Log_manager.stable_shard_horizons log in
  let preskipped = ref 0 in
  List.iter
    (fun r ->
      match Record.payload r with
      | Record.Physiological { pid; _ } ->
        let lsn = Record.lsn r in
        let filtered = Page_redo.surely_on_disk a ~pid ~lsn in
        let all =
          filtered
          || match List.assoc_opt pid every with Some h -> Lsn.(lsn <= h) | None -> false
        in
        Alcotest.(check bool) (Printf.sprintf "verdict on LSN %d" (Lsn.to_int lsn)) all filtered;
        if filtered then incr preskipped
      | _ -> ())
    (Log_manager.records_from log ~from:start);
  let eager = Sharded_store.recover store in
  Sharded_store.crash store;
  let before = Sharded_store.stats store in
  let instant = Sharded_store.recover ~mode:`Instant store in
  ignore (Sharded_store.await_recovery store);
  let after = Sharded_store.stats store in
  let drained_redone = after.records_redone - before.records_redone in
  let drained_skipped = after.records_skipped - before.records_skipped - instant.skipped in
  Alcotest.(check int) "preskipped = the records every horizon clears" !preskipped instant.skipped;
  Alcotest.(check (list int)) "eager = instant: scanned, redone, skipped, analysis_scanned"
    [ eager.scanned; eager.redone; eager.skipped; eager.analysis_scanned ]
    [ instant.scanned; drained_redone; instant.skipped + drained_skipped; instant.analysis_scanned ];
  Theory_check.certificate_ok (Sharded_store.certify store ~phase:`Recovered)

(* ---- decodes per restart ------------------------------------------------ *)

(* Run [f] and count the frames it decoded. *)
let decodes f =
  let decoded = Metrics.counter "stable_log.frames_decoded" in
  let before = Metrics.count decoded in
  let r = f () in
  r, Metrics.count decoded - before

(* What an open decodes: the analysis decodes the checkpoint and the
   shard records after the redo start, and nothing else. Returns the
   analysis. *)
let open_decodes log ~pages =
  let a, n = decodes (fun () -> Page_redo.analyze log ~pages) in
  let after =
    List.length
      (List.filter
         (fun (lsn, _) -> Lsn.(Page_redo.redo_start a < lsn))
         (Log_manager.stable_shard_checkpoints log))
  in
  Alcotest.(check int) "the analysis decodes the checkpoint and the shard records after the redo start"
    (1 + after) n;
  a, 1 + after

let test_decodes_per_restart () =
  let partitions = 16 in
  let store = Sharded_store.create ~shards:2 ~partitions ~cache_capacity:partitions () in
  Fun.protect ~finally:(fun () -> Sharded_store.close store) @@ fun () ->
  let log = Sharded_store.log store in
  let medium = Log_manager.medium log in
  let fill round =
    for i = 1 to 150 do
      Sharded_store.put store (key ((round * 37) + i)) (string_of_int round)
    done
  in
  for round = 1 to 6 do
    fill round;
    (* Fuzzy and sharded checkpoints alternate; the last, the master,
       is sharded, so its empty dirty-page table starts redo right
       after it. *)
    if round mod 2 = 1 then Sharded_store.checkpoint store
    else ignore (Sharded_store.checkpoint_sharded store)
  done;
  for i = 1 to 100 do
    Sharded_store.put store (key i) "tail"
  done;
  Sharded_store.sync store;
  (* Instant: the crash decodes nothing, the open its analysis, and the
     drains the plan's records, each once. *)
  let instant what =
    let (), n = decodes (fun () -> Sharded_store.crash store) in
    Alcotest.(check int) (what ^ ": the crash decodes nothing") 0 n;
    let a, opened = open_decodes log ~pages:partitions in
    let plan, n = decodes (fun () -> Redo_restart.Lazy_redo.plan_slice ~shards:2 a) in
    Alcotest.(check int) (what ^ ": the plan decodes nothing") 0 n;
    let queued = Redo_restart.Lazy_redo.plan_records plan in
    let before = Sharded_store.stats store in
    let st, n =
      decodes (fun () ->
          let st = Sharded_store.recover ~mode:`Instant store in
          ignore (Sharded_store.await_recovery store);
          st)
    in
    let after = Sharded_store.stats store in
    Alcotest.(check int) (what ^ ": the drains apply the plan's records") queued
      (after.records_redone - before.records_redone + after.records_skipped
     - before.records_skipped - st.skipped);
    Alcotest.(check int) (what ^ ": the open and the drains decode the analysis and the plan")
      (opened + queued) n;
    opened
  in
  Alcotest.(check int) "no shard record after the redo start" 1 (instant "clean");
  (* Eager: the crash decodes nothing, and the recovery the analysis and
     each slice record it does not clear as surely on disk, once. *)
  let (), n = decodes (fun () -> Sharded_store.crash_torn store ~drop:3) in
  Alcotest.(check int) "a torn crash decodes nothing" 0 n;
  let a, opened = open_decodes log ~pages:partitions in
  let pages, _ = Page_redo.redo_pages a in
  let to_redo = Array.fold_left (fun n pid -> if pid >= 0 then n + 1 else n) 0 pages in
  Alcotest.(check bool) "the eager recovery has records to redo" true (to_redo > 0);
  let stats, n = decodes (fun () -> Sharded_store.recover store) in
  Alcotest.(check int) "an eager recovery decodes the analysis and the records it redoes"
    (opened + to_redo) n;
  (* The full-scan reference: the same crash and recovery with no
     master. It decodes nothing at the crash either. *)
  Stable_log.set_master medium None;
  let (), n = decodes (fun () -> Sharded_store.crash store) in
  Alcotest.(check int) "a crash without a master decodes nothing" 0 n;
  let reference = Sharded_store.recover store in
  Alcotest.(check (list int)) "scanned/redone/skipped/analysis_scanned as a full scan"
    [
      reference.scanned;
      reference.redone;
      reference.skipped;
      reference.analysis_scanned;
    ]
    [ stats.scanned; stats.redone; stats.skipped; stats.analysis_scanned ];
  (* A sharded checkpoint whose summary the crash tore off: its shard
     records lie after the redo start, and the open decodes them. *)
  fill 7;
  ignore (Sharded_store.checkpoint store);
  fill 8;
  let previous = Stable_log.master medium in
  ignore (Sharded_store.checkpoint_sharded store);
  tear_summary medium ~previous;
  Alcotest.(check bool) "shard records after the redo start" true (instant "torn summary" > 1)

(* The B-tree takes its next page id from the disk and the redo slice,
   so a generalized recovery decodes the redo slice, the checkpoint and
   the shard records after the redo start: nothing below the slice. *)
let test_generalized_recover_decodes () =
  let i = Registry.find "generalized" ~cache_capacity:512 ~partitions:8 () in
  let log = Method_intf.instance_log i in
  let medium = Log_manager.medium log in
  (* Sharded then fuzzy checkpoints: the last, the master, lists pages
     dirtied since the sharded one, so the redo slice starts below it. *)
  for round = 1 to 4 do
    for k = 1 to 60 do
      Method_intf.instance_put i (key ((round * 13) + k)) (string_of_int round)
    done;
    if round mod 2 = 1 then ignore (Method_intf.instance_checkpoint_sharded ~domains:1 i)
    else Method_intf.instance_checkpoint i
  done;
  for k = 1 to 40 do
    Method_intf.instance_put i (key k) "tail"
  done;
  Method_intf.instance_sync i;
  let (), n = decodes (fun () -> Method_intf.instance_crash i) in
  Alcotest.(check int) "the crash decodes nothing" 0 n;
  let master = master_lsn medium in
  let start = Lsn.to_int (Page_redo.scan_start log) in
  let stable = Lsn.to_int (Log_manager.flushed_lsn log) in
  let shard_after =
    List.length
      (List.filter
         (fun (lsn, _) -> Lsn.to_int lsn > start)
         (Log_manager.stable_shard_checkpoints log))
  in
  Alcotest.(check bool) "the redo slice starts below the master" true (start < master);
  Alcotest.(check bool) "the log below the slice holds more than the shard records" true
    (start - 1 > shard_after);
  let stats, n = decodes (fun () -> Method_intf.instance_recover i) in
  Alcotest.(check int) "recovery decodes the checkpoint, the slice and the shard records after it"
    (1 + (stable - start + 1) + shard_after)
    n;
  let contents = Method_intf.instance_dump i in
  (* The full-scan reference: the same crash and recovery with no
     master. *)
  Stable_log.set_master medium None;
  Method_intf.instance_crash i;
  let reference = Method_intf.instance_recover i in
  Alcotest.(check (list int)) "scanned/redone/skipped as a full scan"
    [ reference.scanned; reference.redone; reference.skipped ]
    [ stats.scanned; stats.redone; stats.skipped ];
  Alcotest.(check (list (pair string string))) "contents as a full scan"
    (Method_intf.instance_dump i) contents

let suite =
  [
    Alcotest.test_case "master follows forced checkpoints" `Quick
      test_master_follows_forced_checkpoints;
    Alcotest.test_case "payload flip below the master: reported on read" `Quick
      test_payload_flip_below_master;
    Alcotest.test_case "header or master frame flip: reported by the crash" `Quick
      test_header_flip_below_master;
    Util.qtest ~count:20 "stale master = current: physiological"
      (prop_stale_master_method "physiological");
    Util.qtest ~count:20 "stale master = current: generalized"
      (prop_stale_master_method "generalized");
    Util.qtest ~count:20 "stale master = current: physical" (prop_stale_master_method "physical");
    Util.qtest ~count:20 "stale master = current: logical" (prop_stale_master_method "logical");
    Util.qtest ~count:20 "stale master = current: sharded eager"
      (prop_stale_master_sharded ~mode:`Eager);
    Util.qtest ~count:20 "stale master = current: sharded instant"
      (prop_stale_master_sharded ~mode:`Instant);
    Alcotest.test_case "a restart decodes only what it redoes" `Quick test_decodes_per_restart;
    Alcotest.test_case "generalized recovery decodes its redo slice" `Quick
      test_generalized_recover_decodes;
    Alcotest.test_case "undecodable frame after the master: kept, reported on read" `Quick
      test_undecodable_frame_from_master;
    Alcotest.test_case "wrong LSN after the master: reported by the crash" `Quick
      test_wrong_lsn_from_master;
    Util.qtest ~count:30 "shard horizons from the redo start on: same verdicts and work"
      prop_horizons_from_redo_start;
  ]
