(* Command-line interface to the redo-recovery library.

   redo demo                 - the paper's scenarios, explained
   redo graphs [-o DIR]      - dot files for the paper's figures
   redo sim -m METHOD ...    - crash-recovery simulation, theory-checked
                               (--crash-every 0: one crash at the end)
   redo torture ...          - many seeds x all methods
   redo faults ...           - broken variants vs the recovery checker
   redo stats ...            - run a crashing workload, dump the metrics registry
                               and the flight recorder's tail
   redo profile -m METHOD .. - span-profile the recoveries: critical path,
                               shard imbalance, optional Chrome trace
   redo triage ...           - tear a group-committed crash and diagnose it
                               from the flight recorder and the stable log
   redo serve-bench ...      - drive the sharded KV service with Zipf
                               traffic; optional certification, triage
                               and end-to-end latency tracing (--lat)

   sim and torture also take --metrics [pretty|json] to dump the
   process-wide metrics registry after the run, and --chrome-trace FILE
   to record the run's span tree as Chrome trace_event JSON. *)

open Cmdliner

let method_names = List.map fst Redo_methods.Registry.all

(* An enum over the names, not the constructors: cmdliner compares enum
   values to print the default, and functions do not compare. *)
let method_arg =
  let doc = Printf.sprintf "Recovery method (%s)." (String.concat ", " method_names) in
  Arg.(
    value
    & opt (enum (List.map (fun n -> n, n) method_names)) "physiological"
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let ops_arg =
  Arg.(value & opt int 300 & info [ "n"; "ops" ] ~docv:"N" ~doc:"Key-value operations to run.")

let partitions_arg =
  Arg.(
    value & opt int 8
    & info [ "p"; "partitions" ] ~docv:"P"
        ~doc:"Page partitions (or B-tree node capacity for the generalized method).")

let cache_arg =
  Arg.(value & opt int 12 & info [ "cache" ] ~docv:"PAGES" ~doc:"Buffer cache capacity.")

let crash_every_arg =
  Arg.(value & opt int 75 & info [ "crash-every" ] ~docv:"N" ~doc:"Crash every N operations.")

let domains_arg =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the theory check's parallel recovery leg; 1 keeps the check \
           sequential.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 40 & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Checkpoint every N operations.")

let checkpoint_shards_arg =
  Arg.(
    value & flag
    & info [ "checkpoint-shards" ]
        ~doc:
          "Checkpoint through the shard-parallel write-graph installer (one domain pool shared \
           across the run), emitting a per-shard horizon record per write-graph component \
           instead of a plain fuzzy checkpoint.")

let group_commit_arg =
  Arg.(
    value & flag
    & info [ "group-commit" ]
        ~doc:
          "Batch WAL forces through a group committer: concurrent force requests coalesce into \
           one medium write and checkpoint shard records piggyback on the next batch. Durability \
           semantics are unchanged.")

(* The simulator config that sim, stats and profile share. *)
let sim_config =
  let config seed total_ops partitions cache_capacity crash_every checkpoint_every =
    let every n = if n <= 0 then None else Some n in
    {
      Redo_sim.Simulator.default_config with
      seed;
      total_ops;
      partitions;
      cache_capacity;
      crash_every = every crash_every;
      checkpoint_every = every checkpoint_every;
    }
  in
  Term.(
    const config $ seed_arg $ ops_arg $ partitions_arg $ cache_arg $ crash_every_arg
    $ checkpoint_every_arg)

let sim_instance method_name (config : Redo_sim.Simulator.config) =
  Redo_methods.Registry.find method_name ~cache_capacity:config.cache_capacity
    ~partitions:config.partitions ()

(* --- metrics plumbing --- *)

let metrics_format = Arg.enum [ "pretty", `Pretty; "json", `Json ]

let metrics_arg =
  Arg.(
    value
    & opt (some metrics_format) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:"Dump the metrics registry after the run ($(b,pretty) or $(b,json)).")

let emit_metrics = function
  | None -> ()
  | Some `Pretty -> Fmt.pr "%a@." Redo_obs.Metrics.pp (Redo_obs.Metrics.snapshot ())
  | Some `Json -> print_endline (Redo_obs.Metrics.to_json (Redo_obs.Metrics.snapshot ()))

(* Counters are process-global; zero them so the dump reflects exactly
   this invocation's run. *)
let with_metrics format run =
  if format <> None then Redo_obs.Metrics.reset ();
  let code = run () in
  emit_metrics format;
  code

(* --- span profiling plumbing --- *)

let chrome_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Record the run's span tree and write it as Chrome trace_event JSON to $(docv) \
           (loadable in Perfetto or chrome://tracing; one track per domain).")

let write_text_file file contents =
  let oc = open_out file in
  output_string oc contents;
  close_out oc

let write_chrome_trace file spans =
  write_text_file file (Redo_obs.Span.chrome_json spans);
  Fmt.pr "wrote %d spans to %s@." (List.length spans) file

(* Enable span recording around [run] and write the Chrome trace if a
   file was asked for. *)
let with_spans chrome_trace run =
  match chrome_trace with
  | None -> run ()
  | Some file ->
    Redo_obs.Span.reset ();
    Redo_obs.Span.set_enabled true;
    let code = Fun.protect ~finally:(fun () -> Redo_obs.Span.set_enabled false) run in
    write_chrome_trace file (Redo_obs.Span.collect ());
    code

(* --- demo --- *)

let demo () =
  let open Redo_core in
  Fmt.pr "The three scenarios of 'A Theory of Redo Recovery' (Lomet & Tuttle, SIGMOD 2003)@.@.";
  List.iter
    (fun (s : Scenario.t) ->
      let cg = Conflict_graph.of_exec s.Scenario.exec in
      Fmt.pr "%s: %s@." s.Scenario.name s.Scenario.description;
      Fmt.pr "  conflict edges: %a@."
        Fmt.(
          list ~sep:(any "  ")
            (fun ppf (a, b, ks) ->
              Fmt.pf ppf "%s-[%s]->%s" a
                (String.concat "," (List.map Conflict_graph.kind_to_string ks))
                b))
        (Conflict_graph.edges_with_kinds cg);
      Fmt.pr "  crash state %a with %a installed: %s@.@." State.pp s.Scenario.crash_state
        Digraph.Node_set.pp s.Scenario.claimed_installed
        (if Replay.potentially_recoverable cg s.Scenario.crash_state then
           "recoverable (and the installation graph explains why)"
         else "NOT recoverable (a read-write edge was violated)"))
    Scenario.all;
  0

(* --- graphs --- *)

let graphs dir =
  let open Redo_core in
  let write name contents =
    let path = Filename.concat dir (name ^ ".dot") in
    write_text_file path contents;
    Fmt.pr "wrote %s@." path
  in
  (match Sys.is_directory dir with
  | true -> ()
  | false | (exception Sys_error _) -> Sys.mkdir dir 0o755);
  let cg = Conflict_graph.of_exec Scenario.figure_4 in
  write "figure4_conflict" (Conflict_graph.to_dot ~name:"figure4" cg);
  write "figure5_installation"
    (Digraph.to_dot ~name:"figure5" (Conflict_graph.installation cg));
  let wg = Write_graph.of_conflict_graph cg in
  let _, wg = Write_graph.collapse ~new_id:"OQ" wg [ "O"; "Q" ] in
  write "figure7_write_graph" (Write_graph.to_dot ~name:"figure7" wg);
  let cg8 = Conflict_graph.of_exec Scenario.figure_8 in
  let wg8 = Write_graph.of_conflict_graph cg8 in
  let _, wg8 = Write_graph.collapse ~new_id:"old-page" wg8 [ "O"; "Q" ] in
  write "figure8_split" (Write_graph.to_dot ~name:"figure8" wg8);
  0

(* --- sim --- *)

let sim method_name config domains checkpoint_shards group_commit metrics chrome_trace =
  with_metrics metrics @@ fun () ->
  with_spans chrome_trace @@ fun () ->
  let open Redo_sim in
  let config = { config with Simulator.domains; checkpoint_shards; group_commit } in
  let o = Simulator.run config (sim_instance method_name config) in
  Fmt.pr "%a@." Simulator.pp_outcome o;
  List.iter (fun m -> Fmt.pr "content failure: %s@." m) o.Simulator.verify_failures;
  List.iter
    (fun r -> Fmt.pr "%a@." Redo_methods.Theory_check.pp_report r)
    o.Simulator.theory_reports;
  if
    o.Simulator.verify_failures = []
    && List.for_all Redo_methods.Theory_check.ok o.Simulator.theory_reports
  then 0
  else 1

(* --- torture --- *)

let torture seeds ops domains group_commit metrics chrome_trace =
  with_metrics metrics @@ fun () ->
  with_spans chrome_trace @@ fun () ->
  let open Redo_sim in
  let failures = ref 0 in
  List.iter
    (fun
      ( name,
        (make :
          ?cache_capacity:int -> ?partitions:int -> unit -> Redo_methods.Method_intf.instance) )
    ->
      for seed = 1 to seeds do
        let config =
          {
            Simulator.default_config with
            Simulator.seed;
            total_ops = ops;
            crash_every = Some (max 20 (ops / 4));
            checkpoint_every = Some (max 10 (ops / 8));
            cache_capacity = 8;
            partitions = 6;
            domains;
            group_commit;
          }
        in
        let instance = make ~cache_capacity:8 ~partitions:6 () in
        let o = Simulator.run config instance in
        let ok =
          o.Simulator.verify_failures = []
          && List.for_all Redo_methods.Theory_check.ok o.Simulator.theory_reports
        in
        if not ok then incr failures;
        Fmt.pr "%-14s seed=%-4d crashes=%-3d %s@." name seed o.Simulator.crashes
          (if ok then "ok" else "FAIL")
      done)
    Redo_methods.Registry.all;
  if !failures = 0 then begin
    Fmt.pr "all runs verified@.";
    0
  end
  else begin
    Fmt.pr "%d failing runs@." !failures;
    1
  end

(* --- faults --- *)

let faults seeds =
  let open Redo_sim in
  Fmt.pr "Fault injection: deliberately broken variants vs the recovery checker@.@.";
  let all_detected = ref true in
  List.iter
    (fun ( name,
           what,
           (make :
             ?cache_capacity:int ->
             ?partitions:int ->
             unit ->
             Redo_methods.Method_intf.instance) )
    ->
      let detections = ref 0 and crashes = ref 0 in
      let sample = ref None in
      for seed = 1 to seeds do
        let config =
          {
            Simulator.default_config with
            Simulator.seed;
            total_ops = 200;
            crash_every = Some 45;
            checkpoint_every = Some 30;
            cache_capacity = 6;
            partitions = 4;
            flush_prob = 0.4;
          }
        in
        let o = Simulator.run config (make ~cache_capacity:6 ~partitions:4 ()) in
        crashes := !crashes + o.Simulator.crashes;
        List.iter
          (fun r ->
            if not (Redo_methods.Theory_check.ok r) then begin
              incr detections;
              if !sample = None then sample := Some r
            end)
          o.Simulator.theory_reports
      done;
      Fmt.pr "%-24s %s@." name what;
      Fmt.pr "  detected at %d of %d crashes%s@." !detections !crashes
        (if !detections = 0 then " <- NOT DETECTED" else "");
      (match !sample with
      | Some r -> Fmt.pr "  e.g. @[<v>%a@]@." Redo_methods.Theory_check.pp_report r
      | None -> ());
      if !detections = 0 then all_detected := false)
    Redo_methods.Registry.faults;
  if !all_detected then 0 else 1

(* --- stats --- *)

(* Run a crashing workload purely for its telemetry: the metrics
   registry (counters, histograms) plus the last [events] frames of the
   flight recorder, which records the run from a fresh epoch. *)
let stats method_name config format events =
  let open Redo_sim in
  let module Flight = Redo_obs.Flight in
  Redo_obs.Metrics.reset ();
  Flight.reset ();
  Flight.set_enabled true;
  let o =
    Fun.protect
      ~finally:(fun () -> Flight.set_enabled false)
      (fun () -> Simulator.run config (sim_instance method_name config))
  in
  let snapshot = Redo_obs.Metrics.snapshot () in
  let frames = (Flight.scan ()).Flight.frames in
  let skip = List.length frames - events in
  let tail = List.filteri (fun i _ -> i >= skip) frames in
  (match format with
  | `Pretty ->
    Fmt.pr "%s: %d ops, %d crashes, %d checkpoints@.@." method_name o.Simulator.kv_ops
      o.Simulator.crashes o.Simulator.checkpoints;
    Fmt.pr "%a@." Redo_obs.Metrics.pp snapshot;
    Fmt.pr "@.flight recorder (last %d of %d surviving frames):@." (List.length tail)
      (List.length frames);
    List.iter (fun f -> Fmt.pr "  %a@." Flight.pp_frame f) tail
  | `Json ->
    let events = List.map Flight.frame_to_json tail |> String.concat ", " in
    Fmt.pr "{\"metrics\": %s, \"events\": [%s]}@." (Redo_obs.Metrics.to_json snapshot) events);
  if o.Simulator.verify_failures = [] then 0 else 1

(* --- profile --- *)

(* Span-profile the simulator's recoveries: run a crashing workload with
   recording on, then answer the two questions the span tree exists for:
   where does recovery wall-clock go (the critical path through each
   sim.recovery root) and how lopsided are the shard replays. *)
let profile method_name config domains checkpoint_shards chrome_trace =
  let open Redo_sim in
  let module Span = Redo_obs.Span in
  let module Profile = Redo_obs.Profile in
  let config = { config with Simulator.domains; checkpoint_shards } in
  Span.reset ();
  Span.set_enabled true;
  let o =
    Fun.protect
      ~finally:(fun () -> Span.set_enabled false)
      (fun () -> Simulator.run config (sim_instance method_name config))
  in
  let spans = Span.collect () in
  Option.iter (fun file -> write_chrome_trace file spans) chrome_trace;
  let roots = Profile.roots ~name:"sim.recovery" spans in
  let measured_ns = List.fold_left (fun acc r -> acc +. Span.duration_ns r) 0. roots in
  Fmt.pr "%s: %d ops, %d crashes, %d spans recorded@." method_name o.Simulator.kv_ops
    o.Simulator.crashes (List.length spans);
  Fmt.pr "recovery wall-clock (%d recoveries): %a@.@." (List.length roots) Profile.pp_ms
    measured_ns;
  let entries = List.concat_map (fun r -> Profile.critical_path spans ~root:r) roots in
  let rows = Profile.attribute entries in
  Fmt.pr "critical path, aggregated over all recoveries:@.%a@." Profile.pp_rows
    (rows, measured_ns);
  let accounted = Profile.total_self rows in
  Fmt.pr "accounted: %a of %a measured (%.1f%%)@." Profile.pp_ms accounted Profile.pp_ms
    measured_ns
    (if measured_ns > 0. then 100. *. accounted /. measured_ns else 0.);
  (* The install phase lives outside the sim.recovery roots (checkpoints
     happen mid-workload), so it gets its own attribution: install
     wall-clock vs replay wall-clock is exactly the trade the per-shard
     horizons buy. *)
  (let install_roots = Profile.roots ~name:"ckpt.install" spans in
   if install_roots <> [] then begin
     let install_ns =
       List.fold_left (fun acc r -> acc +. Span.duration_ns r) 0. install_roots
     in
     Fmt.pr "@.checkpoint install wall-clock (%d installs): %a@." (List.length install_roots)
       Profile.pp_ms install_ns;
     let entries =
       List.concat_map (fun r -> Profile.critical_path spans ~root:r) install_roots
     in
     Fmt.pr "install critical path:@.%a@." Profile.pp_rows
       (Profile.attribute entries, install_ns)
   end
   else if checkpoint_shards then
     Fmt.epr "no ckpt.install spans were recorded despite --checkpoint-shards@.");
  (match Profile.shard_imbalance spans with
  | Some imb -> Fmt.pr "@.%a@." Profile.pp_imbalance imb
  | None ->
    Fmt.pr "@.no recover.shard spans recorded (domains=%d keeps the parallel leg off)@."
      domains);
  List.iter (fun m -> Fmt.pr "content failure: %s@." m) o.Simulator.verify_failures;
  let theory_ok = List.for_all Redo_methods.Theory_check.ok o.Simulator.theory_reports in
  if roots = [] then Fmt.epr "no sim.recovery spans were recorded@.";
  if o.Simulator.verify_failures = [] && theory_ok && roots <> [] then 0 else 1

(* --- triage --- *)

(* Post-crash diagnosis with no live process state: build a torn
   mid-batch crash (staged group-commit tickets racing the final batch,
   shard checkpoint records still piggybacking), let the crash reach
   both the WAL medium and the flight recorder's segments, then run
   Triage over what survived. The in-process tickets are held across
   the crash purely to audit the tool: triage's per-ticket survival
   verdicts must match Log_manager.ticket_stable exactly. *)
let triage method_name seed ops partitions cache staged drop segments segment_bytes json
    report_json flight_dump chrome_trace from_dump =
  let module Flight = Redo_obs.Flight in
  let module Triage = Redo_obs.Triage in
  match from_dump with
  | Some file ->
    (* Offline mode: just the reconstructed timeline from a saved dump. *)
    let scan = Flight.load file in
    if json then begin
      let frames = List.map Flight.frame_to_json scan.Flight.frames |> String.concat ", " in
      Fmt.pr
        "{\"frames\": %d, \"segments_used\": %d, \"torn_segments\": %d, \"dropped_frames\": \
         %d, \"timeline\": [%s]}@."
        (List.length scan.Flight.frames)
        scan.Flight.segments_used scan.Flight.torn_segments scan.Flight.dropped_frames frames
    end
    else begin
      Fmt.pr "flight dump %s: %d frames in %d segments (%d torn tails, %d dropped by ring)@."
        file
        (List.length scan.Flight.frames)
        scan.Flight.segments_used scan.Flight.torn_segments scan.Flight.dropped_frames;
      List.iter (fun f -> Fmt.pr "  %a@." Flight.pp_frame f) scan.Flight.frames
    end;
    if scan.Flight.frames = [] then 1 else 0
  | None ->
    let open Redo_sim in
    Flight.configure ~segments ~segment_bytes ();
    Flight.set_enabled true;
    Fun.protect ~finally:(fun () -> Flight.set_enabled false) @@ fun () ->
    let instance =
      Redo_methods.Registry.find method_name ~cache_capacity:cache ~partitions ()
    in
    let log = Redo_methods.Method_intf.instance_log instance in
    (* Inline group commit: forces batch, shard records piggyback, and
       force_async gives us real staged tickets to race the crash. *)
    Redo_wal.Group_commit.set ~enabled:true log;
    let rng = Random.State.make [| seed; 0xf17 |] in
    for i = 1 to ops do
      let key = Printf.sprintf "k%04d" (Random.State.int rng 40) in
      if Random.State.float rng 1.0 < 0.15 then
        Redo_methods.Method_intf.instance_delete instance key
      else Redo_methods.Method_intf.instance_put instance key (Printf.sprintf "v%d" i);
      if Random.State.float rng 1.0 < 0.25 then
        Redo_methods.Method_intf.instance_flush_some instance rng;
      if i mod 20 = 0 then Redo_methods.Method_intf.instance_sync instance
    done;
    Redo_methods.Method_intf.instance_sync instance;
    (* A sharded checkpoint whose shard records stay staged (they
       piggyback on the next batch — which never comes), then [staged]
       async commits: the mid-batch state the crash will tear. *)
    ignore (Redo_methods.Method_intf.instance_checkpoint_sharded ~domains:1 instance);
    let tickets =
      List.init staged (fun i ->
          Redo_methods.Method_intf.instance_put instance
            (Printf.sprintf "tail%02d" i)
            (Printf.sprintf "t%d" i);
          Redo_wal.Log_manager.force_async log ~upto:(Redo_wal.Log_manager.last_lsn log))
    in
    let torn_drop = if drop <= 0 then None else Some drop in
    Simulator.crash_instance ~crash_no:1 ?torn_drop instance;
    (* Everything below uses only what survived: recorder segments and
       the restored stable log. *)
    let scan = Flight.scan () in
    let report =
      Triage.analyze ~flight:scan ~log:(Simulator.triage_log_summary log)
    in
    Option.iter
      (fun file ->
        Flight.save file;
        Fmt.pr "wrote flight-recorder dump to %s@." file)
      flight_dump;
    Option.iter
      (fun file ->
        write_text_file file (Triage.to_json report);
        Fmt.pr "wrote triage report JSON to %s@." file)
      report_json;
    Option.iter
      (fun file ->
        write_text_file file (Triage.chrome_json report);
        Fmt.pr "wrote flight timeline Chrome trace to %s@." file)
      chrome_trace;
    if json then print_endline (Triage.to_json report)
    else Fmt.pr "%a@." (Triage.pp ?timeline:None) report;
    (* The audit: triage, reading only crash survivors, must reach the
       same per-ticket verdicts as the in-process tickets. *)
    let verdicts = Triage.staged_verdicts report in
    let observed, unobserved =
      List.partition
        (fun tk ->
          List.mem_assoc
            (Redo_storage.Lsn.to_int (Redo_wal.Log_manager.ticket_lsn tk))
            verdicts)
        tickets
    in
    let mismatches =
      List.filter
        (fun tk ->
          let lsn = Redo_storage.Lsn.to_int (Redo_wal.Log_manager.ticket_lsn tk) in
          List.assoc lsn verdicts <> Redo_wal.Log_manager.ticket_stable tk)
        observed
    in
    Fmt.pr "triage vs in-process: %d/%d staged ticket verdicts agree@."
      (List.length observed - List.length mismatches)
      (List.length observed);
    (* A ticket whose Stage frame the tear destroyed is unobservable,
       not misjudged: the recorder lost those bytes the same way the
       WAL did. Reported, but not a triage failure. *)
    List.iter
      (fun tk ->
        Fmt.pr "unobserved: ticket lsn=%d torn out of the recorder (in-process stable=%b)@."
          (Redo_storage.Lsn.to_int (Redo_wal.Log_manager.ticket_lsn tk))
          (Redo_wal.Log_manager.ticket_stable tk))
      unobserved;
    List.iter
      (fun tk ->
        Fmt.pr "MISMATCH: ticket lsn=%d in-process stable=%b@."
          (Redo_storage.Lsn.to_int (Redo_wal.Log_manager.ticket_lsn tk))
          (Redo_wal.Log_manager.ticket_stable tk))
      mismatches;
    if mismatches = [] && Triage.ok report then 0 else 1

(* --- serve-bench --- *)

(* Drive the sharded KV service with Zipf traffic and report throughput
   plus the group committer's force accounting. With --check, certify
   the run against its serial witness on both sides of a crash (and
   check the Recovery Invariant when the run is small enough to
   project); with --triage, run the whole thing under the flight
   recorder, tear the final force, and audit the staged-commit claims
   post-mortem; with --lat, trace sampled operations end to end and
   print the latency report, whose stage sums must cover >= 90% of
   end-to-end latency (the bound that makes the telescoping stamps
   falsifiable). *)
let pp_ns ppf ns =
  if ns >= 1e9 then Fmt.pf ppf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Fmt.pf ppf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Fmt.pf ppf "%.1fus" (ns /. 1e3)
  else Fmt.pf ppf "%.0fns" ns

let serve_bench shards ops keys theta partitions cache restart do_check do_triage drop do_lat
    lat_out lat_sample metrics =
  with_metrics metrics @@ fun () ->
  let module SS = Redo_kv.Sharded_store in
  let module Flight = Redo_obs.Flight in
  let module Triage = Redo_obs.Triage in
  let module Oplat = Redo_obs.Oplat in
  let module Theory_check = Redo_methods.Theory_check in
  let partitions = if partitions > 0 then partitions else 32 * shards in
  let cache = if cache > 0 then cache else max 1 (partitions / shards) in
  let do_lat = do_lat || lat_out <> None in
  if do_triage then begin
    Flight.reset ();
    Flight.configure ();
    Flight.set_enabled true
  end;
  if do_lat then begin
    Oplat.reset ();
    Oplat.set_sample_every lat_sample;
    Oplat.set_enabled true
  end;
  Fun.protect
    ~finally:(fun () ->
      if do_triage then Flight.set_enabled false;
      if do_lat then Oplat.set_enabled false)
  @@ fun () ->
  let store = SS.create ~shards ~partitions ~cache_capacity:cache () in
  Fun.protect ~finally:(fun () -> SS.close store) @@ fun () ->
  let zipf = Redo_workload.Zipf.create ~theta keys in
  let rng = Random.State.make [| 0x5e12e; shards; ops |] in
  let before = Redo_obs.Metrics.counter_values () in
  let t0 = Unix.gettimeofday () in
  (* Checkpoints at a quarter, half and three quarters of the run: the
     crash at the end then leaves the last quarter for recovery to
     replay. *)
  let quarter = max 1 (ops / 4) in
  for i = 1 to ops do
    let key = Redo_workload.Zipf.sample_key zipf rng in
    if i mod 10 = 0 then SS.delete store key else SS.put store key (Printf.sprintf "v%d" i);
    if i mod 512 = 0 then Redo_wal.Log_manager.await (SS.put_durable store key "commit");
    if i mod quarter = 0 && i / quarter <= 3 then ignore (SS.checkpoint_sharded store)
  done;
  SS.sync store;
  let seconds = Unix.gettimeofday () -. t0 in
  let deltas =
    Redo_obs.Metrics.counter_diff ~before ~after:(Redo_obs.Metrics.counter_values ())
  in
  let delta name = Option.value ~default:0 (List.assoc_opt name deltas) in
  Fmt.pr "serve-bench: %d shards over %d partitions, %d ops in %.3fs (%.0f ops/s)@." shards
    partitions ops seconds
    (float ops /. seconds);
  Fmt.pr "  wal: %d forces for %d appends (%d group batches, %d forces saved)@."
    (delta "wal.forces") (delta "wal.appends") (delta "wal.group.batches")
    (delta "wal.group.forces_saved");
  let failures = ref 0 in
  let check_cert label cert =
    Fmt.pr "  %s: %a@." label Theory_check.pp_certificate cert;
    if not (Theory_check.certificate_ok cert) then incr failures
  in
  if do_check then check_cert "live" (SS.certify store ~phase:`Live);
  if do_check || do_triage then begin
    (* The crash: torn mid-batch when triaging (with staged durable
       commits racing the tear), clean otherwise. *)
    let held =
      if do_triage then
        List.init 4 (fun i -> SS.put_durable store (Printf.sprintf "tail%02d" i) "t")
      else []
    in
    (* The crash checks frames and decodes none: a restart decodes only
       what it redoes. *)
    let count name = Redo_obs.Metrics.(count (counter name)) in
    let checked0 = count "stable_log.frames_checked" in
    let decoded0 = count "stable_log.frames_decoded" in
    if do_triage then SS.crash_torn store ~drop else SS.crash store;
    Fmt.pr "  crash: %d frames checked, %d decoded@."
      (count "stable_log.frames_checked" - checked0)
      (count "stable_log.frames_decoded" - decoded0);
    if do_triage then begin
      let report =
        Triage.analyze ~flight:(Flight.scan ())
          ~log:(Redo_sim.Simulator.triage_log_summary (SS.log store))
      in
      let verdicts = Triage.staged_verdicts report in
      let agreed =
        List.for_all
          (fun tk ->
            match
              List.assoc_opt (Redo_storage.Lsn.to_int (Redo_wal.Log_manager.ticket_lsn tk))
                verdicts
            with
            | Some v -> v = Redo_wal.Log_manager.ticket_stable tk
            | None -> true)
          held
      in
      Fmt.pr "  triage: %s, %d lied to, staged verdicts %s@."
        (if Triage.ok report then "ok" else "NOT OK")
        report.Triage.lied_to
        (if agreed then "agree with in-process tickets" else "DISAGREE");
      if not (Triage.ok report && report.Triage.lied_to = 0 && agreed) then incr failures
    end;
    if do_check then begin
      (* The invariant check projects the whole stable log; past a few
         thousand ops that dwarfs the bench itself. *)
      if ops <= 10_000 then
        match SS.verify_recovery_invariant store with
        | Ok report ->
          Fmt.pr "  invariant: ok (%d ops, %d redo)@." report.Theory_check.op_count
            report.Theory_check.redo_count
        | Error msg ->
          Fmt.pr "  INVARIANT VIOLATION: %s@." msg;
          incr failures
      else Fmt.pr "  invariant: skipped (n > 10000; use a smaller -n to project the log)@."
    end;
    (* A restart decodes each record it redoes, once, where its page is
       drained; the open decodes the rest: the checkpoint and the shard
       records after the redo start. *)
    (match restart with
    | `Eager ->
      let decoded0 = count "stable_log.frames_decoded" in
      let r = SS.recover store in
      Fmt.pr "  recovery: %d scanned, %d redone, %d skipped (analysis %d)@." r.SS.scanned
        r.SS.redone r.SS.skipped r.SS.analysis_scanned;
      let decoded = count "stable_log.frames_decoded" - decoded0 in
      Fmt.pr "  eager: frames decoded: open %d, redo %d@." (decoded - r.SS.redone) r.SS.redone
    | `Instant ->
      (* Instant restart: time the open, serve a hot read while the
         queues are still draining, then wait out the sweeper for the
         full time-to-recovery. *)
      let decoded0 = count "stable_log.frames_decoded" in
      let before = SS.stats store in
      let t_open = Unix.gettimeofday () in
      let r = SS.recover ~mode:`Instant store in
      let open_ns = (Unix.gettimeofday () -. t_open) *. 1e9 in
      Fmt.pr "  instant: open for service in %a (%d scanned, %d preskipped, %d pages queued)@."
        pp_ns open_ns r.SS.scanned r.SS.skipped (SS.recovery_pending store);
      let hot = Redo_workload.Zipf.key zipf 0 in
      let t_hot = Unix.gettimeofday () in
      ignore (SS.get store hot);
      let hot_ns = (Unix.gettimeofday () -. t_hot) *. 1e9 in
      Fmt.pr "  instant: hot get served in %a with %d pages still pending@." pp_ns hot_ns
        (SS.recovery_pending store);
      let demand, swept = SS.await_recovery store in
      let ttfr_ns = (Unix.gettimeofday () -. t_open) *. 1e9 in
      Fmt.pr "  instant: recovery total in %a (%d demand drains, %d sweeper drains)@." pp_ns
        ttfr_ns demand swept;
      let redone = (SS.stats store).SS.records_redone - before.SS.records_redone in
      let decoded = count "stable_log.frames_decoded" - decoded0 in
      Fmt.pr "  instant: frames decoded: open %d, drains %d@." (decoded - redone) redone;
      if SS.recovery_pending store <> 0 then begin
        Fmt.pr "  instant: PAGES STILL PENDING AFTER AWAIT@.";
        incr failures
      end);
    if do_check then check_cert "recovered" (SS.certify store ~phase:`Recovered)
  end;
  Fmt.pr "  stats: %a@." SS.pp_stats (SS.stats store);
  if do_lat then begin
    let r = Oplat.report () in
    Fmt.pr "%a@." Oplat.pp r;
    if r.Oplat.r_completed > 0 && r.Oplat.r_coverage < 0.9 then begin
      Fmt.pr "lat: COVERAGE BELOW 90%%@.";
      incr failures
    end;
    Option.iter
      (fun prefix ->
        write_text_file (prefix ^ ".jsonl") (Oplat.timeseries_jsonl ());
        write_text_file (prefix ^ ".json") (Oplat.to_json r);
        write_text_file (prefix ^ ".trace.json") (Oplat.chrome_json ());
        Fmt.pr "lat: wrote %s.jsonl, %s.json and %s.trace.json (%d sampled traces)@." prefix
          prefix prefix (Oplat.trace_count ()))
      lat_out
  end;
  if !failures = 0 then 0 else 1

(* --- command wiring --- *)

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Walk through the paper's three scenarios")
    Term.(const demo $ const ())

let graphs_cmd =
  let dir =
    Arg.(value & opt string "graphs" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v (Cmd.info "graphs" ~doc:"Emit Graphviz files for the paper's figures")
    Term.(const graphs $ dir)

let sim_cmd =
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a crash-recovery simulation with content and theory verification")
    Term.(
      const sim $ method_arg $ sim_config $ domains_arg $ checkpoint_shards_arg
      $ group_commit_arg $ metrics_arg $ chrome_trace_arg)

let torture_cmd =
  let seeds = Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per method.") in
  Cmd.v (Cmd.info "torture" ~doc:"Torture all methods across many seeds")
    Term.(
      const torture $ seeds $ ops_arg $ domains_arg $ group_commit_arg $ metrics_arg
      $ chrome_trace_arg)

let stats_cmd =
  let format =
    Arg.(
      value & opt metrics_format `Pretty
      & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format ($(b,pretty) or $(b,json)).")
  in
  let events =
    Arg.(
      value & opt int 24
      & info [ "events" ] ~docv:"N"
          ~doc:"Flight-recorder frames to print from the end of the run.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a crashing workload and dump the telemetry: WAL/cache/recovery counters, \
          histograms, and the flight recorder's tail")
    Term.(const stats $ method_arg $ sim_config $ format $ events)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Span-profile the recoveries: critical-path attribution, shard-imbalance report, \
          optional Chrome trace")
    Term.(
      const profile $ method_arg $ sim_config $ domains_arg $ checkpoint_shards_arg
      $ chrome_trace_arg)

let triage_cmd =
  let staged =
    Arg.(
      value & opt int 4
      & info [ "stage" ] ~docv:"N"
          ~doc:"Async commits staged into the batch the crash will race.")
  in
  let drop =
    Arg.(
      value & opt int 3
      & info [ "drop" ] ~docv:"BYTES"
          ~doc:
            "Bytes torn off both the stable log's and the flight recorder's final write; 0 \
             crashes cleanly.")
  in
  let segments =
    Arg.(
      value & opt int 4
      & info [ "segments" ] ~docv:"N" ~doc:"Stable recorder segments in the ring.")
  in
  let segment_bytes =
    Arg.(
      value & opt int 65536
      & info [ "segment-bytes" ] ~docv:"BYTES" ~doc:"Bytes per recorder segment.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the triage report as JSON.")
  in
  let report_json =
    Arg.(
      value & opt (some string) None
      & info [ "report-json" ] ~docv:"FILE" ~doc:"Also write the triage report JSON to $(docv).")
  in
  let flight_dump =
    Arg.(
      value & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Save the surviving recorder segments to $(docv) (readable later with \
             $(b,--from-dump)).")
  in
  let from_dump =
    Arg.(
      value & opt (some string) None
      & info [ "from-dump" ] ~docv:"FILE"
          ~doc:
            "Skip the crash scenario: reconstruct the timeline from a saved flight-recorder \
             dump.")
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:
         "Crash a torn mid-batch workload and diagnose it post-mortem from the flight \
          recorder + stable log: stable vs staged LSNs, per-ticket survival, shard horizons \
          vs the recovery plan, reconstructed timeline")
    Term.(
      const triage $ method_arg $ seed_arg $ ops_arg $ partitions_arg $ cache_arg $ staged
      $ drop $ segments $ segment_bytes $ json $ report_json $ flight_dump $ chrome_trace_arg
      $ from_dump)

let serve_bench_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Worker shard domains.")
  in
  let ops =
    Arg.(
      value & opt int 100_000
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Operations to drive through the service.")
  in
  let keys =
    Arg.(value & opt int 10_000 & info [ "keys" ] ~docv:"N" ~doc:"Zipf key population.")
  in
  let theta =
    Arg.(value & opt float 0.99 & info [ "theta" ] ~docv:"T" ~doc:"Zipf skew (0 = uniform).")
  in
  let partitions =
    Arg.(
      value & opt int 0
      & info [ "p"; "partitions" ] ~docv:"P"
          ~doc:"Page partitions; 0 picks 32 per shard.")
  in
  let cache =
    Arg.(
      value & opt int 0
      & info [ "cache" ] ~docv:"PAGES"
          ~doc:"Per-shard cache capacity; 0 sizes it to the shard's page count.")
  in
  let restart =
    Arg.(
      value
      & opt (enum [ "eager", `Eager; "instant", `Instant ]) `Eager
      & info [ "restart" ] ~docv:"MODE"
          ~doc:
            "Recovery mode for the post-crash restart: $(b,eager) replays everything before \
             returning; $(b,instant) opens for service right after analysis and drains \
             per-page redo queues on demand (plus a background sweeper), reporting \
             time-to-first-op vs time-to-full-recovery.")
  in
  let do_check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Certify the run against its serial witness before and after a crash + recovery \
             (and check the Recovery Invariant when -n is small enough to project).")
  in
  let do_triage =
    Arg.(
      value & flag
      & info [ "triage" ]
          ~doc:
            "Run under the flight recorder, crash torn mid-batch with staged commits in \
             flight, and audit the post-mortem triage verdicts against the in-process \
             tickets.")
  in
  let drop =
    Arg.(
      value & opt int 3
      & info [ "drop" ] ~docv:"BYTES"
          ~doc:"Bytes torn off the final force when --triage crashes the service.")
  in
  let do_lat =
    Arg.(
      value & flag
      & info [ "lat" ]
          ~doc:
            "Trace sampled operation latency end to end and print the report after the \
             throughput one: per-stage percentiles (mailbox dwell, shard apply, WAL stage, \
             batch wait, force, stable ack), tail attribution by dominant stage, and with \
             $(b,--check) the recovery window and time to first op. Fails if the stage sums \
             cover < 90% of end-to-end latency.")
  in
  let lat_out =
    Arg.(
      value & opt (some string) None
      & info [ "lat-out" ] ~docv:"PREFIX"
          ~doc:
            "Imply $(b,--lat) and also write $(docv).jsonl (the time series), $(docv).json \
             (the report) and $(docv).trace.json (the sampled full traces as Chrome \
             trace_event JSON).")
  in
  let lat_sample =
    Arg.(
      value & opt int 32
      & info [ "lat-sample" ] ~docv:"N"
          ~doc:
            "Sample one operation in $(docv) across all posting domains for the latency \
             tracer.")
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Drive the sharded KV service (domain-per-shard workers, one group-committed WAL) \
          with Zipf traffic; report throughput and force coalescing, optionally certified \
          through crash + recovery, triaged post-mortem and traced for end-to-end latency")
    Term.(
      const serve_bench $ shards $ ops $ keys $ theta $ partitions $ cache $ restart
      $ do_check $ do_triage $ drop $ do_lat $ lat_out $ lat_sample $ metrics_arg)

let faults_cmd =
  let seeds = Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per variant.") in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run deliberately broken recovery variants and show the checker catching them")
    Term.(const faults $ seeds)

let main_cmd =
  let doc = "A Theory of Redo Recovery (Lomet & Tuttle, SIGMOD 2003), executable" in
  Cmd.group (Cmd.info "redo" ~version:"1.0.0" ~doc)
    [
      demo_cmd;
      graphs_cmd;
      sim_cmd;
      torture_cmd;
      faults_cmd;
      stats_cmd;
      profile_cmd;
      triage_cmd;
      serve_bench_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
