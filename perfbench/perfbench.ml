(* perfbench: drive Redo_kv.Sharded_store through one workload from a
   single client domain, check every output, and print the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1). The last
   line of standard output is one JSON object. See README.md. *)

module SS = Redo_kv.Sharded_store
module Log_manager = Redo_wal.Log_manager
module Group_commit = Redo_wal.Group_commit
module Metrics = Redo_obs.Metrics
module Theory_check = Redo_methods.Theory_check
module Zipf = Redo_workload.Zipf

let now = Sample.now_ns

(* ---- command line ----------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let () =
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME ingest | serve | restart";
      "--seed", Arg.Set_int seed, "N workload seed";
      "--seconds", Arg.Set_int seconds, "S measured time per run";
      "--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds <= 0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end

let cfg =
  match Workload.find !workload with
  | Some c -> c
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (ingest | serve | restart)\n" !workload;
    exit 2

let zipf = Zipf.create ~theta:Workload.theta cfg.keys
let key = Zipf.key zipf
let attempted = ref 0

(* A failed check counts as a failed op. [check] is a whole-store check
   and counts as one attempted op itself; [check_op] checks the result of
   an op that was already counted. Only the first failures are printed. *)
let check_op ok fmt =
  if ok then Printf.ifprintf () fmt
  else
    Printf.ksprintf
      (fun msg -> if !Sample.failures < 20 then Sample.fail "%s" msg else incr Sample.failures)
      fmt

let check ok fmt =
  incr attempted;
  check_op ok fmt

let equal_value = Option.equal String.equal
let show = function Some v -> v | None -> "<none>"

(* ---- accumulators ----------------------------------------------------- *)

(* End-to-end numbers of one set of rounds (a traced run keeps two sets:
   untraced and traced rounds alternate, and the difference is the
   tracing overhead). Every timing is kept on both clocks; the gated
   figures are process CPU time (see Sample.cpu_ns and README.md). *)
type e2e = {
  setup : Sample.timing;
  rate : Sample.timing;  (* per round: write + serve ops per CPU / wall second *)
  mutable wal_bytes : int;
  mutable user_bytes : int;
  get : Sample.timing;
  commit : Sample.timing;
  recovery : Sample.timing;
  ttfo : Sample.timing;
  ttfr : Sample.timing;
  canary : Sample.t;  (* CPU ns per canary chase *)
  mutable rounds : int;
}

let new_e2e () =
  {
    setup = Sample.timing ~kind:Per_cycle "setup";
    rate = Sample.timing ~kind:Per_cycle "round rate";
    wal_bytes = 0;
    user_bytes = 0;
    get = Sample.timing ~kind:Per_op "get";
    commit = Sample.timing ~kind:Per_op "commit";
    recovery = Sample.timing ~kind:Per_cycle "recovery";
    ttfo = Sample.timing ~kind:Per_cycle "ttfo";
    ttfr = Sample.timing ~kind:Per_cycle "ttfr";
    canary = Sample.create ~kind:Per_cycle "canary";
    rounds = 0;
  }

(* Per-layer series, filled by traced rounds only. *)
let layer_series : (string, Sample.t) Hashtbl.t = Hashtbl.create 32

let lser kind name =
  match Hashtbl.find_opt layer_series name with
  | Some s -> s
  | None ->
    let s = Sample.create ~kind name in
    Hashtbl.replace layer_series name s;
    s

(* A traced per-op call: a span and a sample of its duration. *)
let op_span name t0 t1 =
  Spans.op name t0 t1;
  Sample.add_op (lser Per_op name) (float (t1 - t0))

let cycle_span name t0 t1 =
  Spans.leaf name t0 t1;
  Sample.add_cycle (lser Per_cycle name) (float (t1 - t0))

let cycle_count name v = Sample.add_cycle (lser Per_cycle name) (float v)

(* Counter deltas per phase, summed over traced rounds (attribution),
   and the first traced round's traffic deltas (exact per seed). *)
let phase_counts : (string, int) Hashtbl.t = Hashtbl.create 64
let first_traffic : (string * int) list option ref = ref None
let first_recovery : SS.recovery_stats option ref = ref None

let add_phase phase before after =
  List.iter
    (fun (name, d) ->
      let k = phase ^ ":" ^ name in
      Hashtbl.replace phase_counts k (d + Option.value (Hashtbl.find_opt phase_counts k) ~default:0))
    (Metrics.counter_diff ~before ~after)

let phase_count phase name = Option.value (Hashtbl.find_opt phase_counts (phase ^ ":" ^ name)) ~default:0
let counter_of l name = Option.value (List.assoc_opt name l) ~default:0

(* Registry histograms accumulate over the whole process; traced rounds
   add the (events, sum) deltas of their write and serve phases here. *)
let hist_reading name =
  let h = Metrics.histogram name in
  Metrics.events h, Metrics.mean h *. float (Metrics.events h)

let hist_deltas : (string, int * float) Hashtbl.t = Hashtbl.create 4
let traced_hists = [ "kv.shard.queue_depth"; "ckpt.install_ns" ]

let add_hist_delta name (e0, s0) =
  let e1, s1 = hist_reading name in
  let e, s = Option.value (Hashtbl.find_opt hist_deltas name) ~default:(0, 0.) in
  Hashtbl.replace hist_deltas name (e + e1 - e0, s +. s1 -. s0)

let hist_mean name =
  match Hashtbl.find_opt hist_deltas name with
  | Some (e, s) when e > 0 -> s /. float e, e
  | _ -> 0., 0

(* ---- one round -------------------------------------------------------- *)

(* Two canary chases, outside every clock. They run before each timed
   set-up, phase and restart cycle, so the canary samples the same
   minutes of the run as the figures it scales. *)
let canary (e : e2e) =
  for _ = 1 to 2 do
    Sample.add_cycle e.canary (float (Sample.canary_ns ()))
  done

let hot = 0

(* The comparison SS.certify makes — the store's contents against the
   serial replay of the log — with the replay done once per round. At
   the end of the serve phase every record is stable (the write phase
   ends with a sync, the serve phase's durable puts are awaited), so the
   live witness and the recovered one are the same replay; crash and
   recovery append nothing, so every cycle recovers that same stable log
   (both conditions are checked). *)
let certify store ~witness ~durable ~phase label =
  let log = SS.log store in
  check
    (Redo_storage.Lsn.equal (Log_manager.flushed_lsn log) (Log_manager.last_lsn log)
    && SS.durable_ops store = durable)
    "%s: log not fully stable, or changed across restart cycles" label;
  let cert =
    Theory_check.certify_serial ~method_name:"sharded" ~phase ~ops:durable ~serial:witness
      ~observed:(SS.dump store)
  in
  check (Theory_check.certificate_ok cert) "%s: certification failed: %s" label
    (Format.asprintf "%a" Theory_check.pp_certificate cert)

(* Set-up: create the store, preload every key, checkpoint, sync and warm
   the read path. Only this is timed; the previous store is collected
   before the clock starts. *)
let set_up ~label ~round_no (e : e2e) =
  Gc.full_major ();
  canary e;
  let t_setup = Sample.stamp () in
  let store =
    SS.create ~shards:1 ~partitions:cfg.pages ~cache_capacity:cfg.cache
      ~commit_mode:Group_commit.Inline ()
  in
  let model = Array.make cfg.keys None in
  (* Descending ranks insert at the head of each page's sorted list. *)
  for r = cfg.keys - 1 downto 0 do
    let v = Workload.preload_value r in
    SS.put store (key r) v;
    model.(r) <- Some v
  done;
  ignore (SS.checkpoint_sharded store);
  SS.sync store;
  let warm = Random.State.make [| !seed; round_no; 0x3a7 |] in
  for _ = 1 to 1000 do
    let r = Zipf.sample zipf warm in
    let got = SS.get store (key r) in
    check_op (equal_value got model.(r)) "%s warm-up get %s" label (key r)
  done;
  Sample.cycle_timing e.setup t_setup (Sample.stamp ());
  attempted := !attempted + cfg.keys + 1000;
  store, model

let round_body ~round_no ~traced (e : e2e) =
  let label = Printf.sprintf "%s round %d" cfg.name round_no in
  (* The inputs are the benchmark's own work and are generated before any
     set-up. Workloads that run only three or four rounds repeat the
     set-up, so setup_s is a median of a dozen or more; the round keeps
     the last store. *)
  let inp = Workload.generate cfg zipf ~seed:!seed ~round:round_no in
  for _ = 2 to cfg.setups do
    SS.close (fst (set_up ~label ~round_no e))
  done;
  let store, model = set_up ~label ~round_no e in
  Gc.full_major ();
  (* Write phase: fire-and-forget puts and deletes, a durable barrier
     every 512 ops, sharded checkpoints, then one sync. *)
  let hists = List.map (fun n -> n, hist_reading n) traced_hists in
  canary e;
  let c0 = Metrics.counter_values () in
  let w0 = Sample.stamp () in
  Array.iteri
    (fun i op ->
      (match (op : Workload.op) with
      | Put (r, v) ->
        if traced then begin
          let t0 = now () in
          SS.put store (key r) v;
          op_span "sharded_store.put" t0 (now ())
        end
        else SS.put store (key r) v;
        model.(r) <- Some v
      | Del r ->
        if traced then begin
          let t0 = now () in
          SS.delete store (key r);
          op_span "sharded_store.delete" t0 (now ())
        end
        else SS.delete store (key r);
        model.(r) <- None
      | Commit (r, v) ->
        let t0 = now () in
        Log_manager.await (SS.put_durable store (key r) v);
        if traced then op_span "sharded_store.barrier" t0 (now ());
        model.(r) <- Some v
      | Get _ -> assert false);
      if inp.checkpoint_after.(i) then begin
        let t0 = now () in
        let components, pages = SS.checkpoint_sharded store in
        if traced then begin
          cycle_span "sharded_store.checkpoint_sharded" t0 (now ());
          cycle_count "ckpt.components_per_checkpoint" components;
          cycle_count "ckpt.pages_per_checkpoint" pages
        end
      end)
    inp.write;
  let t0 = now () in
  SS.sync store;
  let w1 = Sample.stamp () in
  if traced then cycle_span "sharded_store.sync" t0 w1.wall_ns;
  let c1 = Metrics.counter_values () in
  Gc.full_major ();
  (* Serve phase: one op outstanding; every get is checked against the
     model of acknowledged writes. *)
  canary e;
  let s0 = Sample.stamp () in
  Array.iter
    (fun op ->
      match (op : Workload.op) with
      | Get r ->
        let a = Sample.stamp () in
        let got = SS.get store (key r) in
        let b = Sample.stamp () in
        Sample.op_timing e.get a b;
        if traced then op_span "sharded_store.get" a.wall_ns b.wall_ns;
        check_op (equal_value got model.(r)) "%s get %s = %s, expected %s" label (key r) (show got)
          (show model.(r))
      | Commit (r, v) ->
        let a = Sample.stamp () in
        let tk = SS.put_durable store (key r) v in
        let t1 = now () in
        Log_manager.await tk;
        let b = Sample.stamp () in
        Sample.op_timing e.commit a b;
        if traced then begin
          op_span "sharded_store.put_durable" a.wall_ns t1;
          op_span "log_manager.await" t1 b.wall_ns
        end;
        model.(r) <- Some v
      | Put _ | Del _ -> assert false)
    inp.serve;
  let s1 = Sample.stamp () in
  let c2 = Metrics.counter_values () in
  let ops = Array.length inp.write + Array.length inp.serve in
  attempted := !attempted + ops;
  let per_s ns = float ops /. (float ns /. 1e9) in
  Sample.add_cycle e.rate.cpu (per_s (w1.cpu_ns - w0.cpu_ns + s1.cpu_ns - s0.cpu_ns));
  Sample.add_cycle e.rate.wall (per_s (w1.wall_ns - w0.wall_ns + s1.wall_ns - s0.wall_ns));
  e.wal_bytes <- e.wal_bytes + counter_of c2 "wal.bytes_written" - counter_of c0 "wal.bytes_written";
  let user ops = Array.fold_left (fun acc op -> acc + Workload.user_bytes key op) 0 ops in
  e.user_bytes <- e.user_bytes + user inp.write + user inp.serve;
  if traced then begin
    List.iter (fun (n, before) -> add_hist_delta n before) hists;
    add_phase "write" c0 c1;
    add_phase "serve" c1 c2;
    Hashtbl.replace phase_counts "write:ns"
      (w1.wall_ns - w0.wall_ns + Option.value (Hashtbl.find_opt phase_counts "write:ns") ~default:0);
    Hashtbl.replace phase_counts "serve:ns"
      (s1.wall_ns - s0.wall_ns + Option.value (Hashtbl.find_opt phase_counts "serve:ns") ~default:0);
    if !first_traffic = None then first_traffic := Some (Metrics.counter_diff ~before:c0 ~after:c2)
  end;
  let witness = SS.serial_contents ~stable:true store and durable = SS.durable_ops store in
  certify store ~witness ~durable ~phase:"live" (label ^ " live");
  (* Restart cycles. Every acknowledged write was forced (final sync,
     awaited durable puts), so the model is also the durable state. When
     the cache holds every page, redo never evicts and every cycle must
     redo exactly the same records. *)
  let same_work = cfg.cache >= cfg.pages in
  let expected = ref None in
  let check_counts what scanned redone =
    match !expected with
    | None -> expected := Some (scanned, redone)
    | Some (s, r) ->
      if same_work then
        check (s = scanned && r = redone) "%s %s cycle: scanned/redone %d/%d, first cycle %d/%d"
          label what scanned redone s r
  in
  let cycles = if round_no = 0 then 1 else cfg.cycles in
  for _ = 1 to cycles do
    (* Each crash decodes the whole log again; collecting before every
       cycle bounds the heap and starts each cycle from the same state. *)
    Gc.full_major ();
    canary e;
    Spans.parent "restart.eager" (fun () ->
        let a = Sample.stamp () in
        SS.crash store;
        let t1 = now () in
        let st = SS.recover store in
        let b = Sample.stamp () in
        Sample.cycle_timing e.recovery a b;
        if traced then begin
          cycle_span "sharded_store.crash" a.wall_ns t1;
          cycle_span "sharded_store.recover_eager" t1 b.wall_ns;
          if !first_recovery = None then first_recovery := Some st
        end;
        check_counts "eager" st.scanned st.redone);
    let got = SS.get store (key hot) in
    check_op (equal_value got model.(hot)) "%s get %s after eager recovery" label (key hot);
    certify store ~witness ~durable ~phase:"recovered" (label ^ " eager recovery");
    Gc.full_major ();
    canary e;
    let redone0 = (SS.stats store).records_redone in
    Spans.parent "restart.instant" (fun () ->
        let a = Sample.stamp () in
        SS.crash store;
        let t1 = now () in
        let st = SS.recover ~mode:`Instant store in
        let t2 = now () in
        let queued = SS.recovery_pending store in
        let t2' = now () in
        let got = SS.get store (key hot) in
        let first = Sample.stamp () in
        let demand, swept = SS.await_recovery store in
        let b = Sample.stamp () in
        Sample.cycle_timing e.ttfo a first;
        Sample.cycle_timing e.ttfr a b;
        if traced then begin
          cycle_span "sharded_store.crash" a.wall_ns t1;
          cycle_span "sharded_store.recover_instant" t1 t2;
          cycle_span "sharded_store.first_get" t2' first.wall_ns;
          cycle_span "sharded_store.await_recovery" first.wall_ns b.wall_ns;
          cycle_count "lazy_redo.pages_queued" queued;
          cycle_count "lazy_redo.demand_drains" demand;
          cycle_count "lazy_redo.sweeper_drains" swept
        end;
        check_op (equal_value got model.(hot)) "%s first get %s during instant restart" label (key hot);
        check (SS.recovery_pending store = 0) "%s pages still pending after await_recovery" label;
        check_counts "instant" st.scanned ((SS.stats store).records_redone - redone0));
    certify store ~witness ~durable ~phase:"recovered" (label ^ " instant recovery")
  done;
  (* crash, recover and get, twice per cycle *)
  attempted := !attempted + (6 * cycles);
  (* Durability: the recovered store holds exactly the acknowledged
     writes. *)
  let dumped = Hashtbl.create cfg.keys in
  List.iter (fun (k, v) -> Hashtbl.replace dumped k v) (SS.dump store);
  let live = ref 0 and wrong = ref [] in
  Array.iteri
    (fun r v ->
      if v <> None then incr live;
      if not (equal_value (Hashtbl.find_opt dumped (key r)) v) then wrong := key r :: !wrong)
    model;
  check (!wrong = [] && Hashtbl.length dumped = !live)
    "%s after restart: %d keys (expected %d), %d wrong, e.g. %s" label (Hashtbl.length dumped)
    !live (List.length !wrong)
    (match !wrong with k :: _ -> k | [] -> "-");
  e.rounds <- e.rounds + 1;
  inp, store

let round ~round_no ~traced e =
  Spans.enabled := traced;
  Spans.parent "round" (fun () -> round_body ~round_no ~traced e)

(* ---- the run ---------------------------------------------------------- *)

(* Round 0 warms up the process (heap growth, first-touch faults) and is
   discarded; its checks still count. Measured rounds then repeat until
   --seconds of wall time have passed since the first of them started,
   and at least [min_rounds] have run. A traced run alternates untraced
   and traced rounds. *)
let min_rounds = if !trace = 1 then 4 else 3
let wall_cap_ns = 120 * 1_000_000_000

let busy_domains = 2

(* run.py pins the process to one CPU and starts every domain with a
   32 MB minor heap (OCAMLRUNPARAM s=4M); a run set up otherwise is
   refused, so every figure is taken the same way. The gated figures are
   process CPU time (Sample.cpu_ns), which leaves out the time the host
   gives this machine's vCPUs to other guests; the two settings remove
   most of what still moved them between runs of the same code
   (README.md):
   - On two CPUs the scheduler puts the client and the owner on one vCPU
     or on both, round by round, and a hand-off between vCPUs costs about
     twice the CPU time of one within a vCPU (a serve-phase get: 11-13 us
     against 6 us).
   - In OCaml 5 every minor collection stops all domains. With the
     default 2 MB heap that is hundreds of stops a second, and a domain
     waiting in a stop for one the host has descheduled spins on the CPU
     clock. *)
let minor_heap_words = 4 * 1024 * 1024

let () =
  let cpus = Sample.cpus_allowed () and heap = (Gc.get ()).minor_heap_size in
  if cpus <> 1 || heap <> minor_heap_words then begin
    Printf.eprintf
      "perfbench: run through perfbench/run.py (%d CPUs allowed, expected 1; minor heap %d \
       words, expected %d)\n"
      cpus heap minor_heap_words;
    exit 2
  end

let () =
  let nproc = Sample.cpus_online () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d\n" cfg.name !seed !seconds !trace;
  Printf.printf
    "config: keys=%d zipf_theta=%.2f pages=%d cache_pages=%d shards=1 commit_mode=Inline \
     write_ops=%d barrier_every=%d checkpoints=%d serve_ops=%d (90%% get / 10%% put_durable) \
     restart_cycles=%d setups_per_round=%d minor_heap_words=%d\n"
    cfg.keys Workload.theta cfg.pages cfg.cache cfg.write_ops Workload.barrier_every
    cfg.checkpoints cfg.serve_ops cfg.cycles cfg.setups minor_heap_words;
  Printf.printf
    "nproc=%d cpus_used=1 busy_domains=%d (client + 1 shard owner, taking turns on the one CPU, \
     which the CPU clock charges to each only for its turns; the Inline committer forces in its \
     caller; the instant-restart sweeper waits on the owner)%s\n%!"
    nproc busy_domains
    (if busy_domains > nproc then "  ** BUSY DOMAINS EXCEED NPROC: figures are not comparable **" else "")

let plain = new_e2e ()
let traced_e2e = new_e2e ()

let last =
  let start = now () in
  let measuring = ref start in
  let last = ref None in
  let n = ref (-1) in
  while
    !n < min_rounds
    || (now () - !measuring < !seconds * 1_000_000_000 && now () - start < wall_cap_ns)
  do
    incr n;
    let traced = !trace = 1 && !n mod 2 = 0 && !n > 0 in
    let e = if !n = 0 then new_e2e () else if traced then traced_e2e else plain in
    (* Drop the previous round's store before building the next one. *)
    Option.iter (fun (_, store) -> SS.close store) !last;
    last := None;
    last := Some (round ~round_no:!n ~traced e);
    if !n = 0 then measuring := now ()
  done;
  Spans.enabled := false;
  Option.get !last

(* ---- end-to-end report ------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; detail : string }

(* A gated timing is the median on the CPU clock times [canary_nominal_ns]
   over the run's median canary time: the CPU time the work would take on
   this machine while a canary chase takes 2 ms. Each line also prints
   the canary, the unscaled CPU figure and the wall-clock one, which are
   not gated. *)
let canary_nominal_ns = 2e6

let e2e_metrics e =
  let canary = Sample.median e.canary in
  let k = canary_nominal_ns /. canary in
  let note = Printf.sprintf "canary %.0f us (n=%d)" (canary /. 1e3) (Sample.count e.canary) in
  let over what (tm : Sample.timing) scale unit_ =
    Printf.sprintf "median of %d %s, scaled x%.3f; cpu [%s] %s; wall median %.4g %s; %s"
      (Sample.count tm.cpu) what k (Sample.values ~scale tm.cpu) unit_
      (Sample.median tm.wall /. scale) unit_ note
  in
  let per_op (tm : Sample.timing) =
    Printf.sprintf "scaled x%.3f; cpu %s; wall %s; %s" k (Sample.describe ~scale:1e3 tm.cpu)
      (Sample.describe ~scale:1e3 tm.wall) note
  in
  let timing name unit_ scale (tm : Sample.timing) detail =
    { name; unit_; value = Sample.median tm.cpu *. k /. scale; detail }
  in
  [
    timing "setup_s" "s" 1e9 e.setup (over "set-ups" e.setup 1e9 "s");
    {
      name = "ops_per_cpu_s";
      unit_ = "1/s";
      value = Sample.median e.rate.cpu /. k;
      detail =
        Printf.sprintf "median of %d rounds, scaled x%.3f; cpu [%s] ops/s; wall median %.4g ops/s; %s"
          e.rounds (1. /. k) (Sample.values e.rate.cpu) (Sample.median e.rate.wall) note;
    };
    {
      name = "wal_bytes_per_user_byte";
      unit_ = "ratio";
      value = float e.wal_bytes /. float e.user_bytes;
      detail = Printf.sprintf "%d WAL bytes / %d user bytes" e.wal_bytes e.user_bytes;
    };
    timing "get_cpu_p50_us" "us" 1e3 e.get (per_op e.get);
    timing "commit_cpu_p50_us" "us" 1e3 e.commit (per_op e.commit);
    timing "recovery_cpu_ms" "ms" 1e6 e.recovery (over "eager cycles" e.recovery 1e6 "ms");
    timing "ttfo_cpu_ms" "ms" 1e6 e.ttfo (over "instant cycles" e.ttfo 1e6 "ms");
    timing "ttfr_cpu_ms" "ms" 1e6 e.ttfr (over "instant cycles" e.ttfr 1e6 "ms");
  ]

let print_metrics label ms =
  List.iter
    (fun m -> Printf.printf "%s %-28s %16.6f %-6s %s\n" label m.name m.value m.unit_ m.detail)
    ms

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         let v = if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "0" in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name v m.unit_)
       ms)

(* ---- per-layer report ------------------------------------------------- *)

type costs = {
  post_ns : float;
  roundtrip_ns : float;
  append_ns : float;
  force_record_ns : float;
  update_ns : float;
  hit_ns : float;
  miss_ns : float;
  scan_ns : float;
  scan_records : int;
  plan_ns : float;
  plan_records : int;
}

let layer_metrics (inp, store) =
  let lat name =
    match Hashtbl.find_opt layer_series name with
    | Some s when Sample.count s > 0 ->
      { name = name ^ "_ns"; unit_ = "ns"; value = Sample.median s; detail = Sample.describe s }
    | _ -> { name = name ^ "_ns"; unit_ = "ns"; value = 0.; detail = "(no samples)" }
  in
  let med name unit_ =
    match Hashtbl.find_opt layer_series name with
    | Some s when Sample.count s > 0 ->
      {
        name;
        unit_;
        value = Sample.median s;
        detail = Printf.sprintf "median of %d (mean %.1f)" (Sample.count s) (Sample.mean s);
      }
    | _ -> { name; unit_; value = 0.; detail = "(no samples)" }
  in
  let cost name (c : Layers.cost) what =
    { name; unit_ = "ns"; value = c.mean_ns; detail = Printf.sprintf "mean over %d %s" c.n what }
  in
  let count name v detail = { name; unit_ = "count"; value = float v; detail } in
  let rs = Option.get !first_recovery in
  let traffic = Option.value !first_traffic ~default:[] in
  let first name = count name (counter_of traffic name) "delta, first traced round, write + serve phases" in
  let posts = Array.length inp.Workload.write and calls = Array.length inp.Workload.serve in
  (* Each replay starts from a collected heap. *)
  let replay f =
    Gc.full_major ();
    f ()
  in
  let post, rt = replay (fun () -> Layers.mailbox ~posts ~calls) in
  let lc = replay (fun () -> Layers.log_manager ~key ~pages:cfg.pages inp) in
  let cc = replay (fun () -> Layers.cache ~key cfg inp) in
  let scan = replay (fun () -> Layers.stable_log_scan (Log_manager.medium (SS.log store))) in
  let plan = replay (fun () -> Layers.lazy_plan (SS.log store)) in
  let hits = counter_of traffic "cache.hits" and misses = counter_of traffic "cache.misses" in
  let qd_mean, qd_n = hist_mean "kv.shard.queue_depth" in
  let ck_mean, ck_n = hist_mean "ckpt.install_ns" in
  let costs =
    {
      post_ns = post.mean_ns;
      roundtrip_ns = Sample.mean rt;
      append_ns = lc.append.mean_ns;
      force_record_ns = lc.force_per_record.mean_ns;
      update_ns = cc.update.mean_ns;
      hit_ns = cc.read_hit.mean_ns;
      miss_ns = cc.read_miss.mean_ns;
      scan_ns = scan.mean_ns;
      scan_records = scan.n;
      plan_ns = plan.mean_ns;
      plan_records = plan.n;
    }
  in
  costs, [
    lat "sharded_store.put";
    lat "sharded_store.delete";
    lat "sharded_store.barrier";
    lat "sharded_store.get";
    lat "sharded_store.put_durable";
    lat "log_manager.await";
    lat "sharded_store.checkpoint_sharded";
    lat "sharded_store.sync";
    lat "sharded_store.crash";
    lat "sharded_store.recover_eager";
    lat "sharded_store.recover_instant";
    lat "sharded_store.first_get";
    lat "sharded_store.await_recovery";
    count "recovery.scanned" rs.scanned "first traced eager recovery";
    count "recovery.redone" rs.redone "first traced eager recovery";
    count "recovery.skipped" rs.skipped "first traced eager recovery";
    count "recovery.analysis_scanned" rs.analysis_scanned "first traced eager recovery";
    {
      name = "recovery.redone_ratio";
      unit_ = "ratio";
      value = float rs.redone /. float (max 1 rs.scanned);
      detail = "redone / scanned";
    };
    cost "mailbox.post_ns" post "no-op posts";
    {
      name = "mailbox.call_roundtrip_ns";
      unit_ = "ns";
      value = Sample.median rt;
      detail = Sample.describe rt;
    };
    {
      name = "kv.shard.queue_depth";
      unit_ = "count";
      value = qd_mean;
      detail = Printf.sprintf "mean depth at %d durable puts" qd_n;
    };
    cost "log_manager.append_ns" lc.append "appends";
    cost "log_manager.force_ns" lc.force "forces";
    cost "log_manager.force_per_record_ns" lc.force_per_record "records forced";
    first "wal.appends";
    first "wal.forces";
    first "wal.records_forced";
    first "wal.bytes_written";
    first "wal.group.batches";
    first "wal.group.forces_saved";
    cost "codec.encode_ns" lc.encode "records";
    cost "stable_log.scan_ns" scan "records (median of 3 scans)";
    cost "cache.update_ns" cc.update "updates";
    cost "cache.read_hit_ns" cc.read_hit "hits";
    cost "cache.read_miss_ns" cc.read_miss "misses";
    first "cache.hits";
    first "cache.misses";
    first "cache.evictions_dirty";
    first "cache.flushes";
    {
      name = "cache.hit_ratio";
      unit_ = "ratio";
      value = float hits /. float (max 1 (hits + misses));
      detail = "hits / (hits + misses), first traced round";
    };
    med "ckpt.components_per_checkpoint" "count";
    med "ckpt.pages_per_checkpoint" "count";
    {
      name = "ckpt.install_ns";
      unit_ = "ns";
      value = ck_mean;
      detail = Printf.sprintf "mean of %d shard installs (registry clock)" ck_n;
    };
    cost "lazy_redo.plan_ns" plan "records in the redo slice (median of 3 plans)";
    med "lazy_redo.pages_queued" "count";
    med "lazy_redo.demand_drains" "count";
    med "lazy_redo.sweeper_drains" "count";
  ]

(* ---- attribution: layer cost x count against end-to-end time ------- *)

let series_total name =
  match Hashtbl.find_opt layer_series name with Some s -> Sample.total s | None -> 0.

let series_count name =
  match Hashtbl.find_opt layer_series name with Some s -> Sample.count s | None -> 0

let attribution_table title e2e_ns rows =
  Printf.printf "attribution %s: end-to-end %.3f ms\n" title (e2e_ns /. 1e6);
  let line name ns how =
    Printf.printf "  %-44s %12.3f ms %7.1f%%  %s\n" name (ns /. 1e6) (100. *. ns /. e2e_ns) how
  in
  List.iter (fun (name, ns, how) -> line name ns how) rows;
  let sum = List.fold_left (fun acc (_, ns, _) -> acc +. ns) 0. rows in
  line "unexplained remainder" (e2e_ns -. sum) "end-to-end minus the rows above"

let attribution c (rs : SS.recovery_stats) =
  let per name ns n = name, ns *. float n, Printf.sprintf "%.1f ns x %d" ns n in
  let w = phase_count "write" and s = phase_count "serve" in
  let barriers = series_count "sharded_store.barrier" in
  attribution_table "write phase (traced rounds; client and owner take turns on one CPU)" (float (w "ns"))
    [
      per "client Mailbox.post (replay) x fire-and-forget ops" c.post_ns (w "kv.shard.ops" - barriers);
      per "client Mailbox.call round trip (replay) x barriers" c.roundtrip_ns barriers;
      per "owner Log_manager.append (replay) x wal.appends" c.append_ns (w "wal.appends");
      per "owner Cache.update+Page_op.apply (replay) x cache.updates" c.update_ns (w "cache.updates");
      per "force per record (replay) x wal.records_forced" c.force_record_ns (w "wal.records_forced");
      "checkpoint_sharded (spans)", series_total "sharded_store.checkpoint_sharded", "span total";
      "sync (spans)", series_total "sharded_store.sync", "span total";
    ];
  let calls = series_count "sharded_store.get" + series_count "sharded_store.put_durable" in
  attribution_table "serve phase (traced rounds)" (float (s "ns"))
    [
      per "Mailbox.call round trip (replay) x gets+commits" c.roundtrip_ns calls;
      per "Cache.read hit (replay) x cache.hits" c.hit_ns (s "cache.hits");
      per "Cache.read miss (replay) x cache.misses" c.miss_ns (s "cache.misses");
      per "Cache.update+Page_op.apply (replay) x cache.updates" c.update_ns (s "cache.updates");
      per "Log_manager.append (replay) x wal.appends" c.append_ns (s "wal.appends");
      per "force per record (replay) x wal.records_forced" c.force_record_ns (s "wal.records_forced");
    ];
  attribution_table "eager restart (median cycle, wall)" (Sample.median traced_e2e.recovery.wall)
    [
      per "Stable_log.scan+decode (replay) x log records" c.scan_ns c.scan_records;
      per "Cache.update+Page_op.apply (replay) x redone" c.update_ns rs.redone;
    ];
  attribution_table "instant restart to first op (median cycle, wall)"
    (Sample.median traced_e2e.ttfo.wall)
    [
      per "Stable_log.scan+decode (replay) x log records" c.scan_ns c.scan_records;
      per "Lazy_redo.plan (replay) x redo-slice records" c.plan_ns c.plan_records;
      per "Mailbox.call round trip (replay) x first get" c.roundtrip_ns 1;
    ]

(* ---- output ------------------------------------------------------------ *)

let () =
  let inp, store = last in
  let metrics =
    if !trace = 0 then begin
      let ms = e2e_metrics plain in
      print_metrics "metric" ms;
      ms
    end
    else begin
      let costs, ms = layer_metrics (inp, store) in
      print_metrics "layer" ms;
      attribution costs (Option.get !first_recovery);
      (* Tracing overhead: the traced rounds' end-to-end figures against
         the untraced rounds of the same run. *)
      Printf.printf "trace overhead (traced rounds vs untraced rounds of this run):\n";
      List.iter2
        (fun (p : metric) (t : metric) ->
          Printf.printf "  %-28s untraced %14.4f  traced %14.4f %-6s %+7.1f%%\n" p.name p.value
            t.value p.unit_ (100. *. (t.value -. p.value) /. p.value))
        (e2e_metrics plain) (e2e_metrics traced_e2e);
      if not (Sys.file_exists ".perfbench_out") then Sys.mkdir ".perfbench_out" 0o755;
      let file = Printf.sprintf ".perfbench_out/%s-seed%d.trace.json" cfg.name !seed in
      Spans.write_chrome file;
      Printf.printf "spans: %d kept (per-op spans 1 in %d), %d dropped, written to %s\n" !Spans.kept
        Spans.op_every !Spans.dropped file;
      ms
    end
  in
  SS.close store;
  let failed = !Sample.failures in
  Printf.printf "ops attempted=%d failed=%d\n" !attempted failed;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) !attempted failed (json_metrics metrics);
  exit (if failed = 0 then 0 else 1)
