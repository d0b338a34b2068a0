(* Flight recorder: concurrent appends, torn-tail truncation, the crash
   gate, the disabled no-op, ring rotation bounds, save/load, event
   codec, frame JSON — and Triage reproducing the group-commit
   torn-batch verdicts from surviving frames alone. *)

open Redo_obs
open Redo_wal

let payload i =
  Record.Logical (Record.Db_put (Printf.sprintf "k%04d" i, "v"))

(* Every test runs with a fresh default ring and leaves the recorder
   disabled, whatever happens: the recorder is process-global state and
   the rest of the suite must not see our frames. *)
let with_flight ?segments ?segment_bytes f =
  Flight.reset ();
  Flight.configure ?segments ?segment_bytes ();
  Flight.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.reset ())

let test_concurrent_domains () =
  (* Four domains append 500 frames each into one recorder. Nothing is
     lost, and every domain's seq numbers are dense and monotone — the
     per-domain ordering evidence triage leans on. *)
  with_flight ~segments:8 (fun () ->
      let per_domain = 500 in
      let workers =
        List.init 4 (fun w ->
            Domain.spawn (fun () ->
                for i = 1 to per_domain do
                  Flight.emit (Flight.Note (Printf.sprintf "d%d-%03d" w i))
                done))
      in
      List.iter Domain.join workers;
      let scan = Flight.scan () in
      Alcotest.(check int) "no frame lost" (4 * per_domain)
        (List.length scan.Flight.frames);
      Alcotest.(check int) "no drops" 0 scan.Flight.dropped_frames;
      let by_domain = Hashtbl.create 8 in
      List.iter
        (fun f ->
          let d = f.Flight.domain in
          let seqs = Option.value ~default:[] (Hashtbl.find_opt by_domain d) in
          Hashtbl.replace by_domain d (f.Flight.seq :: seqs))
        scan.Flight.frames;
      Alcotest.(check int) "four domains" 4 (Hashtbl.length by_domain);
      Hashtbl.iter
        (fun d seqs ->
          let seqs = List.sort compare seqs in
          Alcotest.(check int)
            (Printf.sprintf "domain %d: %d frames" d per_domain)
            per_domain (List.length seqs);
          List.iteri
            (fun i seq ->
              Alcotest.(check int)
                (Printf.sprintf "domain %d: dense seq" d)
                (i + 1) seq)
            seqs)
        by_domain)

(* Crash markers and all other frames in a scan, counted apart. *)
let count_frames scan =
  let markers, others =
    List.partition
      (fun f -> match f.Flight.event with Flight.Crash _ -> true | _ -> false)
      scan.Flight.frames
  in
  List.length markers, List.length others

let test_torn_tail () =
  (* A crash tears bytes off the recorder's active segment; the scan
     truncates at the damage exactly like the WAL's torn-tail scan. The
     crash marker lands after the tear, in the fresh segment. *)
  with_flight (fun () ->
      for i = 1 to 5 do
        Flight.emit (Flight.Note (Printf.sprintf "n%d" i))
      done;
      Alcotest.(check int) "all five before the crash" 5
        (List.length (Flight.scan ()).Flight.frames);
      Flight.crash ~drop:3 1;
      let scan = Flight.scan () in
      Alcotest.(check (pair int int)) "torn note truncated, marker whole" (1, 4)
        (count_frames scan);
      Alcotest.(check bool) "tear detected" true (scan.Flight.torn_segments >= 1);
      (* Post-crash frames land in the fresh sealed epoch, undamaged. *)
      Flight.emit (Flight.Note "after");
      Alcotest.(check (pair int int)) "recording continues" (1, 5)
        (count_frames (Flight.scan ())))

let event = Alcotest.testable Flight.pp_event ( = )

let test_crash_gate_order () =
  (* Each crash tears its [drop] off the frames before it, seals the
     epoch, and only then stamps its marker: markers arrive whole, in
     crash order, and say whether bytes were lost. *)
  with_flight (fun () ->
      let note s = Flight.emit (Flight.Note s) in
      note "a1";
      note "a2";
      Flight.crash 1;
      note "b1";
      note "b2";
      Flight.crash ~drop:2 2;
      note "c1";
      let scan = Flight.scan () in
      Alcotest.(check (list event)) "tear, then marker"
        Flight.
          [
            Note "a1";
            Note "a2";
            Crash { crash = 1; torn = false };
            Note "b1";
            Crash { crash = 2; torn = true };
            Note "c1";
          ]
        (List.map (fun f -> f.Flight.event) scan.Flight.frames);
      Alcotest.(check int) "one segment per epoch" 3 scan.Flight.segments_used;
      Alcotest.(check int) "only the torn crash's segment" 1 scan.Flight.torn_segments)

let test_disabled_records_nothing () =
  (* With the recorder off, [emit] and the crash gate touch nothing: no
     frame lands, and the frames already recorded are not torn. *)
  with_flight (fun () ->
      for i = 1 to 3 do
        Flight.emit (Flight.Note (Printf.sprintf "n%d" i))
      done;
      Flight.set_enabled false;
      Flight.emit (Flight.Note "off");
      Flight.crash ~drop:3 1;
      Flight.set_enabled true;
      let scan = Flight.scan () in
      Alcotest.(check (pair int int)) "no marker, no note" (0, 3) (count_frames scan);
      Alcotest.(check int) "nothing torn" 0 scan.Flight.torn_segments)

let test_ring_rotation () =
  (* A tiny two-segment ring under a long run: old frames are dropped
     (and counted), the survivors are the newest, and every surviving
     byte still decodes. *)
  with_flight ~segments:2 ~segment_bytes:128 (fun () ->
      for i = 1 to 100 do
        Flight.emit (Flight.Note (Printf.sprintf "note-%03d" i))
      done;
      let scan = Flight.scan () in
      Alcotest.(check bool) "old frames dropped" true (scan.Flight.dropped_frames > 0);
      Alcotest.(check bool) "rotations counted" true (scan.Flight.rotations > 0);
      Alcotest.(check bool) "ring keeps the newest" true
        (List.length scan.Flight.frames > 0);
      Alcotest.(check int) "bounded segments" 2 scan.Flight.segments_used;
      Alcotest.(check int) "accounting adds up" 100
        (List.length scan.Flight.frames + scan.Flight.dropped_frames);
      let last = List.nth scan.Flight.frames (List.length scan.Flight.frames - 1) in
      (match last.Flight.event with
      | Flight.Note s -> Alcotest.(check string) "newest survives" "note-100" s
      | _ -> Alcotest.fail "expected a Note frame"))

let all_events =
  [
    Flight.Commit { lsn = 7 };
    Flight.Stage { lsn = 8 };
    Flight.Batch { upto = 9; requests = 3 };
    Flight.Force { upto = 9; records = 2 };
    Flight.Checkpoint { lsn = 10; dirty = 4 };
    Flight.Shard_ckpt { lsn = 11; shard = 1; total = 2; horizon = 6; pages = [ 3; 5 ] };
    Flight.Flush { page = 3; forced = true };
    Flight.Evict { page = 5; dirty = false };
    Flight.Phase { name = "redo"; crash = 2 };
    Flight.Crash { crash = 2; torn = true };
    Flight.Note "free text";
  ]

let test_event_codec () =
  (* Every event variant survives encode -> CRC -> decode intact. *)
  with_flight (fun () ->
      List.iter Flight.emit all_events;
      let scan = Flight.scan () in
      Alcotest.(check int) "one frame per event" (List.length all_events)
        (List.length scan.Flight.frames);
      List.iter2
        (fun sent (f : Flight.frame) ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %s" (Flight.event_name sent))
            true (sent = f.Flight.event))
        all_events scan.Flight.frames)

let test_frame_json () =
  (* [redo stats --format json] prints one [frame_to_json] object per
     frame: event, seq, domain and ts_ns first, then the event's
     attributes as JSON literals. *)
  let json seq event = Flight.frame_to_json { Flight.seq; domain = 1; ts_ns = 2500; event } in
  Alcotest.(check string) "crash frame"
    {|{"event": "flight.crash", "seq": 4, "domain": 1, "ts_ns": 2500, "crash": 2, "torn": true}|}
    (json 4 (Flight.Crash { crash = 2; torn = true }));
  Alcotest.(check string) "quoted note"
    {|{"event": "flight.note", "seq": 9, "domain": 1, "ts_ns": 2500, "note": "say \"hi\""}|}
    (json 9 (Flight.Note {|say "hi"|}));
  (* Note and phase strings can come from a dump file: whatever their
     bytes, the frame stays valid JSON. *)
  Alcotest.(check string) "non-ASCII, control and invalid bytes"
    {|{"event": "flight.note", "seq": 2, "domain": 1, "ts_ns": 2500, "note": "café\u0001\ufffd"}|}
    (json 2 (Flight.Note "caf\195\169\001\255"));
  Alcotest.(check string) "phase name escaped"
    {|{"event": "flight.phase", "seq": 3, "domain": 1, "ts_ns": 2500, "phase": "a\\b", "crash": 1}|}
    (json 3 (Flight.Phase { name = {|a\b|}; crash = 1 }));
  List.iter
    (fun e ->
      let prefix = Printf.sprintf {|{"event": "%s", "seq": 1, |} (Flight.event_name e) in
      let s = json 1 e in
      Alcotest.(check string)
        (Flight.event_name e ^ " leads with the schema keys")
        prefix
        (String.sub s 0 (min (String.length s) (String.length prefix))))
    all_events

let test_save_load () =
  (* The dump file reloads into the same frames in a process that never
     saw the recorder — the triage-from-dump path. *)
  with_flight (fun () ->
      List.iter Flight.emit all_events;
      Flight.crash ~drop:2 1;
      let before = Flight.scan () in
      let file = Filename.temp_file "flight" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Flight.save file;
          let after = Flight.load file in
          Alcotest.(check int) "same frame count"
            (List.length before.Flight.frames)
            (List.length after.Flight.frames);
          Alcotest.(check int) "drop accounting preserved"
            before.Flight.dropped_frames after.Flight.dropped_frames;
          Alcotest.(check int) "rotation accounting preserved"
            before.Flight.rotations after.Flight.rotations;
          List.iter2
            (fun (a : Flight.frame) (b : Flight.frame) ->
              Alcotest.(check bool) "identical frame" true (a = b))
            before.Flight.frames after.Flight.frames))

let test_triage_torn_group_force () =
  (* The t_group_commit torn-batch scenario, judged post-mortem: two
     barriered commits (stability claimed), four staged tickets racing
     the crash, a [drop]-byte tear on both media. Triage — given only
     the surviving flight frames and the stable log — must agree with
     every in-process [ticket_stable] verdict it can observe, and must
     find nobody who was lied to. *)
  let barriered = 2 and staged = 4 in
  let run ~drop =
    with_flight (fun () ->
        let log = Log_manager.create () in
        let gc = Group_commit.create log in
        for i = 1 to barriered do
          ignore (Group_commit.commit gc (payload i))
        done;
        let tickets =
          List.init staged (fun i ->
              let lsn = Log_manager.append log (payload (barriered + i)) in
              Log_manager.force_async log ~upto:lsn)
        in
        (* The crash gate tears the recorder's own medium by the same
           drop — then the WAL is torn. *)
        Flight.crash ~drop 1;
        Log_manager.crash_torn log ~drop;
        let report =
          Redo_sim.Simulator.(
            Triage.analyze ~flight:(Flight.scan ()) ~log:(triage_log_summary log))
        in
        Alcotest.(check int)
          (Printf.sprintf "drop=%d: nobody was lied to" drop)
          0 report.Triage.lied_to;
        Alcotest.(check bool)
          (Printf.sprintf "drop=%d: triage verdict OK" drop)
          true (Triage.ok report);
        let verdicts = Triage.staged_verdicts report in
        let observed = ref 0 in
        List.iter
          (fun tk ->
            let lsn = Redo_storage.Lsn.to_int (Log_manager.ticket_lsn tk) in
            match List.assoc_opt lsn verdicts with
            | Some v ->
              incr observed;
              Alcotest.(check bool)
                (Printf.sprintf "drop=%d: lsn=%d triage agrees with ticket_stable"
                   drop lsn)
                (Log_manager.ticket_stable tk) v
            | None -> ())
          tickets;
        Group_commit.detach gc;
        !observed)
  in
  (* The tear takes in-flight frames with it — the recorder lost those
     bytes the same way the WAL did — so a one-byte tear truncates the
     last Stage frame and triage observes one ticket fewer; larger
     tears walk further back. Whatever survives, the verdicts agreed
     above. *)
  Alcotest.(check int) "no tear: all four staged observed" staged (run ~drop:0);
  Alcotest.(check int) "one-byte tear: last stage frame torn" (staged - 1) (run ~drop:1);
  Alcotest.(check bool) "large tear: observers only shrink" true (run ~drop:40 <= staged - 1);
  Alcotest.(check int) "whole segment torn: nothing observed" 0 (run ~drop:10_000)

let test_simulator_flight () =
  (* A full simulator run with the recorder on: every crash leaves its
     marker, recovery phases are recorded, and the run itself stays
     clean. *)
  with_flight ~segments:8 (fun () ->
      let cfg =
        {
          Redo_sim.Simulator.default_config with
          Redo_sim.Simulator.seed = 11;
          total_ops = 300;
          crash_every = Some 75;
          torn_write_prob = 1.0;
          group_commit = true;
        }
      in
      let instance = Redo_methods.Registry.physiological () in
      let outcome = Redo_sim.Simulator.run cfg instance in
      Alcotest.(check (list string)) "clean run" [] outcome.Redo_sim.Simulator.verify_failures;
      Alcotest.(check bool) "crashed at least twice" true
        (outcome.Redo_sim.Simulator.crashes >= 2);
      let scan = Flight.scan () in
      let events = List.map (fun f -> f.Flight.event) scan.Flight.frames in
      let markers =
        List.filter_map
          (function Flight.Crash { crash; torn } -> Some (crash, torn) | _ -> None)
          events
      in
      (* The gate stamps each marker after its tear, so every crash
         leaves one, in order. Every crash mid-run is torn
         ([torn_write_prob] is 1); the final crash after the last sync is
         clean. *)
      let crashes = outcome.Redo_sim.Simulator.crashes in
      Alcotest.(check int) "nothing dropped by the ring" 0 scan.Flight.dropped_frames;
      Alcotest.(check (list (pair int bool))) "one marker per crash, torn where torn"
        (List.init crashes (fun i -> i + 1, i + 1 < crashes))
        markers;
      Alcotest.(check bool) "recovery phases recorded" true
        (List.exists
           (function Flight.Phase { name = "sim.redo"; _ } -> true | _ -> false)
           events);
      (* Frames are stamped on the monotonic clock: along each domain's
         seq order, ts_ns never decreases. *)
      let domains =
        List.sort_uniq compare (List.map (fun f -> f.Flight.domain) scan.Flight.frames)
      in
      List.iter
        (fun d ->
          let ts =
            List.filter (fun f -> f.Flight.domain = d) scan.Flight.frames
            |> List.sort (fun a b -> compare a.Flight.seq b.Flight.seq)
            |> List.map (fun f -> f.Flight.ts_ns)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "domain %d: ts_ns non-decreasing in seq order" d)
            (List.sort compare ts) ts)
        domains)

let suite =
  [
    Alcotest.test_case "concurrent domain appends" `Quick test_concurrent_domains;
    Alcotest.test_case "torn tail truncation" `Quick test_torn_tail;
    Alcotest.test_case "ring rotation bounds" `Quick test_ring_rotation;
    Alcotest.test_case "event codec roundtrip" `Quick test_event_codec;
    Alcotest.test_case "save/load dump roundtrip" `Quick test_save_load;
    Alcotest.test_case "triage reproduces torn-batch verdicts" `Quick
      test_triage_torn_group_force;
    Alcotest.test_case "simulator run leaves a readable flight" `Quick
      test_simulator_flight;
    Alcotest.test_case "crash gate: tear, seal, then marker" `Quick test_crash_gate_order;
    Alcotest.test_case "disabled recorder records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "frame json schema" `Quick test_frame_json;
  ]
