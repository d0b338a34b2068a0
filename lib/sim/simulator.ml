open Redo_methods
module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span
module Flight = Redo_obs.Flight

let c_kv_ops = Metrics.counter "sim.kv_ops"
let c_crashes = Metrics.counter "sim.crashes"
let c_torn_crashes = Metrics.counter "sim.torn_crashes"
let c_checkpoints = Metrics.counter "sim.checkpoints"
let c_theory_ok = Metrics.counter "sim.theory_ok"
let c_theory_fail = Metrics.counter "sim.theory_fail"
let c_verify_failures = Metrics.counter "sim.verify_failures"
let c_rec_scanned = Metrics.counter "recovery.scanned"
let c_rec_redone = Metrics.counter "recovery.redone"
let c_rec_skipped = Metrics.counter "recovery.skipped"
let c_rec_analysis = Metrics.counter "recovery.analysis_scanned"

(* The three phases of a crash-recovery cycle (Lomet & Tzoumas split
   redo time the same way): the pre-recovery log scan (inside crash),
   the redo pass itself, and the content verification. *)
let h_crash_scan_ns = Metrics.histogram "recovery.crash_scan_ns"
let h_redo_ns = Metrics.histogram "recovery.redo_ns"
let h_verify_ns = Metrics.histogram "recovery.verify_ns"
let h_theory_ns = Metrics.histogram "recovery.theory_check_ns"

type config = {
  seed : int;
  total_ops : int;
  key_space : int;
  delete_fraction : float;
  checkpoint_every : int option;
  flush_prob : float;
  sync_prob : float;
  crash_every : int option;
  torn_write_prob : float;
  partitions : int;
  cache_capacity : int;
  verify_theory : bool;
  domains : int;
  checkpoint_shards : bool;
  group_commit : bool;
}

let default_config =
  {
    seed = 42;
    total_ops = 300;
    key_space = 40;
    delete_fraction = 0.15;
    checkpoint_every = Some 40;
    flush_prob = 0.2;
    sync_prob = 0.1;
    crash_every = Some 75;
    torn_write_prob = 0.25;
    partitions = 8;
    cache_capacity = 16;
    verify_theory = true;
    domains = 2;
    checkpoint_shards = false;
    group_commit = false;
  }

type outcome = {
  kv_ops : int;
  crashes : int;
  checkpoints : int;
  ckpt_shards : int;  (* write-graph components installed across all checkpoints *)
  scanned : int;
  redone : int;
  skipped : int;
  analysis_scanned : int;
  verify_failures : string list;
  theory_reports : Theory_check.report list;
  recovery_seconds : float;
}

(* Every simulated crash goes through here: the recorder's medium takes
   the same tear as the WAL's before the instance discards volatile
   state. *)
let crash_instance ?torn_drop ~crash_no instance =
  Flight.crash ?drop:torn_drop crash_no;
  match torn_drop with
  | Some drop -> Method_intf.instance_crash_torn instance ~drop
  | None -> Method_intf.instance_crash instance

let flight_phase name ~crash_no =
  if Flight.enabled () then Flight.emit (Flight.Phase { name; crash = crash_no })

(* Plain-data view of the post-crash stable log for [Triage.analyze]:
   triage itself lives in lib/obs, below lib/wal, so callers hand it
   the summary rather than the log. *)
let triage_log_summary log =
  let open Redo_wal in
  let module Lsn = Redo_storage.Lsn in
  {
    Redo_obs.Triage.stable_lsn = Lsn.to_int (Log_manager.flushed_lsn log);
    (* LSNs are dense from 1, so the stable horizon is the count. *)
    stable_records = Lsn.to_int (Log_manager.flushed_lsn log);
    stable_bytes = (Log_manager.stats log).Log_manager.stable_bytes;
    checkpoint_lsn =
      Option.map (fun (lsn, _) -> Lsn.to_int lsn) (Log_manager.last_stable_checkpoint log);
    shard_horizons =
      List.map
        (fun (pid, h) -> (pid, Lsn.to_int h))
        (Log_manager.stable_shard_horizons log);
  }

let mismatch_message ~when_ expected actual =
  let pp_kv ppf (k, v) = Fmt.pf ppf "%s=%s" k v in
  Fmt.str "%s: expected %a, got %a" when_
    Fmt.(brackets (list ~sep:(any "; ") pp_kv))
    expected
    Fmt.(brackets (list ~sep:(any "; ") pp_kv))
    actual

(* Crash, recover, verify. The durable horizon is the number of
   key-value operations whose records made it to the stable log; the
   recovered contents must equal the reference trace truncated there. *)
let crash_recover_verify ?(rng : Random.State.t option) ?pool cfg instance reference outcome =
  (* The root span of one crash-recovery cycle: every phase below —
     crash scan, theory check, redo, verify — is a child, so the
     critical-path extractor can account for the whole recovery
     wall-clock from this one subtree. *)
  Span.span "sim.recovery" ~attrs:[ "crash", Span.Int (!outcome.crashes + 1) ] @@ fun () ->
  (* Some crashes tear the final log frame: the stable medium lost a few
     bytes mid-append and the damaged record with them. *)
  let torn =
    match rng with
    | Some rng when Random.State.float rng 1.0 < cfg.torn_write_prob -> true
    | _ -> false
  in
  Metrics.incr c_crashes;
  if torn then Metrics.incr c_torn_crashes;
  (* The crash runs the pre-recovery stable-log scan (checksums, torn
     tail truncation): phase one of the recovery timeline. *)
  Span.span "sim.crash_scan" (fun () ->
      Metrics.span h_crash_scan_ns (fun () ->
          crash_instance instance
            ~crash_no:(!outcome.crashes + 1)
            ?torn_drop:
              (if torn then Some (1 + Random.State.int (Option.get rng) 6) else None)));
  let theory_reports =
    if cfg.verify_theory then begin
      flight_phase "sim.theory" ~crash_no:(!outcome.crashes + 1);
      Span.span "sim.theory" @@ fun () ->
      Metrics.span h_theory_ns (fun () ->
          let report =
            Theory_check.check ~domains:cfg.domains ?pool
              (Method_intf.instance_projection instance)
          in
          Metrics.incr (if Theory_check.ok report then c_theory_ok else c_theory_fail);
          report :: !outcome.theory_reports)
    end
    else !outcome.theory_reports
  in
  let t0 = Sys.time () in
  flight_phase "sim.redo" ~crash_no:(!outcome.crashes + 1);
  (* A recovery or traversal that raises is itself a verification
     failure (injected faults corrupt state badly enough for that). *)
  let stats, recover_error =
    Span.span "sim.redo" @@ fun () ->
    Metrics.span h_redo_ns (fun () ->
        match Method_intf.instance_recover instance with
        | stats -> stats, None
        | exception e ->
          ( { Method_intf.scanned = 0; redone = 0; skipped = 0; analysis_scanned = 0 },
            Some e ))
  in
  let dt = Sys.time () -. t0 in
  Metrics.add c_rec_scanned stats.Method_intf.scanned;
  Metrics.add c_rec_redone stats.Method_intf.redone;
  Metrics.add c_rec_skipped stats.Method_intf.skipped;
  Metrics.add c_rec_analysis stats.Method_intf.analysis_scanned;
  flight_phase "sim.verify" ~crash_no:(!outcome.crashes + 1);
  let verify_failures =
    Span.span "sim.verify" @@ fun () ->
    Metrics.span h_verify_ns (fun () ->
        let durable = Method_intf.instance_durable_ops instance in
        Reference.truncate reference durable;
        let expected = Reference.dump reference in
        let actual_or_error =
          match recover_error with
          | Some e -> Error e
          | None -> (try Ok (Method_intf.instance_dump instance) with e -> Error e)
        in
        match actual_or_error with
        | Ok actual when expected = actual -> !outcome.verify_failures
        | Ok actual ->
          mismatch_message
            ~when_:
              (Printf.sprintf "after crash %d (%d durable ops)" (!outcome.crashes + 1)
                 durable)
            expected actual
          :: !outcome.verify_failures
        | Error e ->
          Printf.sprintf "after crash %d: recovery/dump raised %s" (!outcome.crashes + 1)
            (Printexc.to_string e)
          :: !outcome.verify_failures)
  in
  if List.length verify_failures > List.length !outcome.verify_failures then
    Metrics.incr c_verify_failures;
  outcome :=
    {
      !outcome with
      crashes = !outcome.crashes + 1;
      scanned = !outcome.scanned + stats.Method_intf.scanned;
      redone = !outcome.redone + stats.Method_intf.redone;
      skipped = !outcome.skipped + stats.Method_intf.skipped;
      analysis_scanned = !outcome.analysis_scanned + stats.Method_intf.analysis_scanned;
      verify_failures;
      theory_reports;
      recovery_seconds = !outcome.recovery_seconds +. dt;
    }

let run cfg instance =
  let rng = Random.State.make [| cfg.seed; 0xbeef |] in
  let reference = Reference.create () in
  (* One process-lifetime pool per size, shared across every recovery,
     theory check and sharded checkpoint of the run — crash-torture
     loops stopped paying a domain spawn per call. *)
  let pool =
    if cfg.domains > 1 then Some (Redo_par.Domain_pool.shared ~domains:cfg.domains) else None
  in
  (* Route every durability edge of the run — commit syncs, the WAL
     hook's barriers, the installer's shard records — through a group
     committer. Background (a flusher domain) when the run is
     multi-domain, Inline otherwise; detached in [finally] so a
     Background flusher never outlives the run. *)
  if cfg.group_commit then
    Redo_wal.Group_commit.set ~enabled:true
      ~mode:(if cfg.domains > 1 then Redo_wal.Group_commit.Background else Redo_wal.Group_commit.Inline)
      (Method_intf.instance_log instance);
  Fun.protect
    ~finally:(fun () ->
      if cfg.group_commit then
        Redo_wal.Group_commit.set ~enabled:false (Method_intf.instance_log instance))
  @@ fun () ->
  let outcome =
    ref
      {
        kv_ops = 0;
        crashes = 0;
        checkpoints = 0;
        ckpt_shards = 0;
        scanned = 0;
        redone = 0;
        skipped = 0;
        analysis_scanned = 0;
        verify_failures = [];
        theory_reports = [];
        recovery_seconds = 0.0;
      }
  in
  (* A run whose store has become unusable (possible only with injected
     faults) is aborted; the raised exception counts as a failure. *)
  let abort step e =
    outcome :=
      {
        !outcome with
        verify_failures =
          Printf.sprintf "aborted at %s: %s" step (Printexc.to_string e)
          :: !outcome.verify_failures;
      };
    raise Exit
  in
  (try
     for i = 1 to cfg.total_ops do
       let key = Printf.sprintf "k%04d" (Random.State.int rng cfg.key_space) in
       (try
          if Random.State.float rng 1.0 < cfg.delete_fraction then begin
            Method_intf.instance_delete instance key;
            Reference.del reference key
          end
          else begin
            let value = Printf.sprintf "v%d" i in
            Method_intf.instance_put instance key value;
            Reference.put reference key value
          end;
          outcome := { !outcome with kv_ops = !outcome.kv_ops + 1 };
          Metrics.incr c_kv_ops;
          if Random.State.float rng 1.0 < cfg.flush_prob then
            Method_intf.instance_flush_some instance rng;
          if Random.State.float rng 1.0 < cfg.sync_prob then Method_intf.instance_sync instance;
          match cfg.checkpoint_every with
          | Some n when i mod n = 0 ->
            let shards =
              if cfg.checkpoint_shards then begin
                let stats =
                  Method_intf.instance_checkpoint_sharded ?pool ~domains:cfg.domains instance
                in
                stats.Method_intf.ckpt_components
              end
              else begin
                Method_intf.instance_checkpoint instance;
                0
              end
            in
            outcome :=
              {
                !outcome with
                checkpoints = !outcome.checkpoints + 1;
                ckpt_shards = !outcome.ckpt_shards + shards;
              };
            Metrics.incr c_checkpoints
          | _ -> ()
        with
       | Exit -> raise Exit
       | e -> abort (Printf.sprintf "op %d" i) e);
       match cfg.crash_every with
       | Some n when i mod n = 0 ->
         (* Pretend some more pages happened to be flushed before the
            crash (always through the cache, so WAL and write orders
            hold). *)
         (try
            let extra_flushes = Random.State.int rng 4 in
            for _ = 1 to extra_flushes do
              Method_intf.instance_flush_some instance rng
            done;
            if Random.State.bool rng then Method_intf.instance_sync instance
          with
         | Exit -> raise Exit
         | e -> abort (Printf.sprintf "pre-crash flush %d" i) e);
         crash_recover_verify ~rng ?pool cfg instance reference outcome
       | _ -> ()
     done;
     (* Final: make everything durable, crash, recover, verify the full
        contents survive. *)
     Method_intf.instance_sync instance;
     crash_recover_verify ?pool cfg instance reference outcome
   with Exit -> ());
  !outcome

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>ops=%d crashes=%d checkpoints=%d ckpt_shards=%d scanned=%d redone=%d skipped=%d \
     verify_failures=%d theory_failures=%d@]"
    o.kv_ops o.crashes o.checkpoints o.ckpt_shards o.scanned o.redone o.skipped
    (List.length o.verify_failures)
    (List.length (List.filter (fun r -> not (Theory_check.ok r)) o.theory_reports))
