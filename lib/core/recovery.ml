module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span
module Domain_pool = Redo_par.Domain_pool

let c_runs = Metrics.counter "recover.runs"
let c_scanned = Metrics.counter "recover.records_scanned"
let c_already_installed = Metrics.counter "recover.already_installed"
let c_applied = Metrics.counter "recover.ops_applied"
let c_skipped = Metrics.counter "recover.ops_skipped"
let c_analyze_calls = Metrics.counter "recover.analyze_calls"
let h_run_ns = Metrics.histogram "recover.run_ns"
let c_parallel_runs = Metrics.counter "recover.parallel.runs"
let c_sharded_runs = Metrics.counter "recover.sharded.runs"
let c_shard_runs = Metrics.counter "recover.shard.runs"
let c_shard_applied = Metrics.counter "recover.shard.ops_applied"
let c_shard_skipped = Metrics.counter "recover.shard.ops_skipped"
let h_par_run_ns = Metrics.histogram "recover.parallel.run_ns"
let h_shard_ops = Metrics.histogram ~bounds:Metrics.count_bounds "recover.shard.ops"
let c_lazy_runs = Metrics.counter "recover.lazy.runs"
let c_lazy_drains = Metrics.counter "recover.lazy.drains"
let h_lazy_closure = Metrics.histogram ~bounds:Metrics.count_bounds "recover.lazy.closure_ops"

type 'a spec = {
  analyze :
    state:State.t -> log:Log.t -> unrecovered:Digraph.Node_set.t -> 'a option -> 'a option;
  redo : Op.t -> state:State.t -> log:Log.t -> analysis:'a option -> bool;
}

type iteration = {
  op_id : string;
  redone : bool;
  state_before : State.t;
  state_after : State.t;
  unrecovered_before : Digraph.Node_set.t;
}

type schedule =
  | Log_order
  | Shards of {
      domains : int;
      pool : Domain_pool.t option;
      shard_sink : (Partition.shard -> (iteration -> unit) option) option;
    }
  | Touch_order of Var.t list option

type result = {
  final : State.t;
  redo_set : Digraph.Node_set.t;
  iterations : iteration list;
  shard_runs : shard_run list;
}

and shard_run = {
  shard : Partition.shard;
  shard_result : result;
}

let no_analysis : unit spec -> unit spec = fun s -> s

let always_redo =
  {
    analyze = (fun ~state:_ ~log:_ ~unrecovered:_ a -> a);
    redo = (fun _ ~state:_ ~log:_ ~analysis:_ -> true);
  }

let redo_if test =
  {
    analyze = (fun ~state:_ ~log:_ ~unrecovered:_ a -> a);
    redo = (fun op ~state ~log:_ ~analysis:_ -> test op state);
  }

(* Per-run tallies, accumulated locally and flushed into the registry
   counters once the run (or shard) is over. Keeping the loop free of
   registry stores is what lets shards of one recovery run on several
   domains at once: the registry's counters are plain mutable ints, so
   concurrent increments would lose updates, whereas flushing each
   shard's tallies from the coordinating domain after the join is
   race-free and exact. *)
type run_stats = {
  mutable s_scanned : int;
  mutable s_already_installed : int;
  mutable s_applied : int;
  mutable s_skipped : int;
  mutable s_analyze_calls : int;
}

let fresh_stats () =
  { s_scanned = 0; s_already_installed = 0; s_applied = 0; s_skipped = 0; s_analyze_calls = 0 }

let flush_stats s =
  Metrics.add c_scanned s.s_scanned;
  Metrics.add c_already_installed s.s_already_installed;
  Metrics.add c_applied s.s_applied;
  Metrics.add c_skipped s.s_skipped;
  Metrics.add c_analyze_calls s.s_analyze_calls

(* The procedure of Figure 6, over an explicit record list. Figure 6
   re-scans the log for the first unrecovered record at the top of every
   iteration; since records are unique and [unrecovered] only ever
   shrinks by the record just processed, that first-match order is
   exactly one LSN-ordered cursor over the records — a single pass,
   O(total records), not O(n^2). [records] is the whole log for a
   sequential run and one shard's slice for a parallel one.

   With [~trace:true] every iteration additionally snapshots
   state/unrecovered so the Recovery Invariant can be audited after the
   fact; the default keeps only the redo set and final state, so large
   recoveries do not retain O(n^2) memory. A [~sink] receives the same
   per-iteration snapshot as it happens, without retaining it — the
   streaming form that lets an auditor observe recovery live. *)
let run_loop ~trace ~sink ~stats spec ~records ~state ~log ~unrecovered =
  let snapshotting = trace || sink <> None in
  (* Sampled once per run: per-iteration span sites pay one immutable
     boolean test when profiling is off, no closure, no allocation. The
     scan itself (cursor advance, membership test) is the enclosing
     span's self time. *)
  let prof = Span.enabled () in
  let rec loop records state unrecovered analysis redo_set iterations =
    match records with
    | [] -> { final = state; redo_set; iterations = List.rev iterations; shard_runs = [] }
    | r :: rest when not (Digraph.Node_set.mem r.Log.op_id unrecovered) ->
      stats.s_scanned <- stats.s_scanned + 1;
      stats.s_already_installed <- stats.s_already_installed + 1;
      loop rest state unrecovered analysis redo_set iterations
    | r :: rest ->
      stats.s_scanned <- stats.s_scanned + 1;
      let op = Log.find_op log r.Log.op_id in
      stats.s_analyze_calls <- stats.s_analyze_calls + 1;
      let analysis =
        if prof then
          Span.span "recover.analyze" (fun () -> spec.analyze ~state ~log ~unrecovered analysis)
        else spec.analyze ~state ~log ~unrecovered analysis
      in
      let redone =
        if prof then Span.span "recover.redo_test" (fun () -> spec.redo op ~state ~log ~analysis)
        else spec.redo op ~state ~log ~analysis
      in
      if redone then stats.s_applied <- stats.s_applied + 1
      else stats.s_skipped <- stats.s_skipped + 1;
      let state' =
        if redone then
          if prof then Span.span "recover.apply" (fun () -> Op.apply op state)
          else Op.apply op state
        else state
      in
      let redo_set =
        if redone then Digraph.Node_set.add r.Log.op_id redo_set else redo_set
      in
      let iterations =
        if not snapshotting then iterations
        else begin
          let it =
            {
              op_id = r.Log.op_id;
              redone;
              state_before = state;
              state_after = state';
              unrecovered_before = unrecovered;
            }
          in
          (match sink with Some observe -> observe it | None -> ());
          if trace then it :: iterations else iterations
        end
      in
      loop rest state' (Digraph.Node_set.remove r.Log.op_id unrecovered) analysis redo_set
        iterations
  in
  loop records state unrecovered None Digraph.Node_set.empty []

(* ---- Shards: partition-parallel replay ----------------------------- *)

(* Replay each conflict-closed shard of the unrecovered operations as a
   task (on a pool when [domains > 1]), then merge. Soundness is
   Theorem 3 applied shard-wise: no conflict edge crosses a component,
   so the sequential log order restricted to a shard replays that shard
   exactly as the global pass would, and distinct shards touch disjoint
   variables, so overlaying each shard's final bindings (restricted to
   its variables) on the crash state commutes and reconstructs the
   sequential final state.

   The shared inputs — the crash [state], the [log], the spec's closures
   — are immutable; each domain builds only fresh states. The spec is
   consulted with the {e shard's} unrecovered set and state view, which
   is the restriction of the global recovery problem to the component;
   every spec in this library (redo tests reading the variables the
   operation accesses, analyses over the unrecovered set) is confined to
   the component by construction, which is what makes the restriction
   faithful. [shard_sinks] aligns with [plan.shards]; a shard's sink runs
   on whatever domain replays the shard, so it must be confined to that
   shard (the streaming auditors are: {!Explain} and the conflict graph
   are immutable once built). *)
let replay_plan ~trace ~pool ~domains ~shard_sinks spec ~state ~log ~(plan : Partition.plan) =
  (* Shard spans run on worker domains, so the parent cannot come off
     their (empty) stacks: capture the coordinator's open span here
     and hand it into the task closures. Each shard span carries its
     size; the recording domain is the span's [domain] field. *)
  let parallel_span = Span.current () in
  let tasks =
    List.map2
      (fun (s : Partition.shard) sink () ->
        let replay () =
          let stats = fresh_stats () in
          let r =
            run_loop ~trace ~sink ~stats spec ~records:s.Partition.records ~state ~log
              ~unrecovered:s.Partition.ops
          in
          s, r, stats
        in
        if Span.enabled () then
          Span.span ~parent:parallel_span "recover.shard"
            ~attrs:[ "ops", Span.Int (Digraph.Node_set.cardinal s.Partition.ops) ]
            replay
        else replay ())
      plan.Partition.shards shard_sinks
  in
  let domains = min domains (max 1 (List.length tasks)) in
  let runs = Domain_pool.run ?pool ~domains tasks in
  let final, redo_set, iterations =
    Span.span "recover.merge" @@ fun () ->
    let final =
      List.fold_left
        (fun acc (s, r, _) ->
          State.set_many acc (State.bindings (State.restrict r.final s.Partition.vars)))
        state runs
    in
    let redo_set =
      List.fold_left
        (fun acc (_, r, _) -> Digraph.Node_set.union r.redo_set acc)
        Digraph.Node_set.empty runs
    in
    let iterations =
      if trace then List.concat_map (fun (_, r, _) -> r.iterations) runs else []
    in
    final, redo_set, iterations
  in
  List.iter
    (fun ((s : Partition.shard), _, stats) ->
      flush_stats stats;
      Metrics.incr c_shard_runs;
      Metrics.add c_shard_applied stats.s_applied;
      Metrics.add c_shard_skipped stats.s_skipped;
      Metrics.observe h_shard_ops (float (Digraph.Node_set.cardinal s.Partition.ops)))
    runs;
  {
    final;
    redo_set;
    iterations;
    shard_runs = List.map (fun (s, r, _) -> { shard = s; shard_result = r }) runs;
  }

(* ---- Touch_order: demand-order replay ------------------------------ *)

(* Page-granular demand replay: partition the unrecovered records into
   per-home-variable queues (the home of an operation is the least
   variable it accesses — the theory's stand-in for "the page the access
   faults on"), then drain queues in an arbitrary {e touch} order rather
   than log order. Draining one record first drains its still-unrecovered
   conflict-graph predecessors, in log order. [predecessors_of] is the
   transitive closure, so the closure {r} ∪ preds(r) is down-closed:
   replaying it in log order respects every conflict edge inside it, and
   edges leaving it point only at ops replayed earlier. The whole run is
   therefore a conflict-respecting interleaving of per-component log
   orders, which Theorem 3 makes equivalent to the sequential pass — the
   soundness claim instant restart rests on.

   Which records a drain takes depends only on which were taken before,
   never on the state, so the whole drain order is computed up front and
   then replayed by the ordinary loop. *)
let drain_order ~log ~unrecovered touch_order =
  let cg = Log.conflict_graph log in
  let records = Log.records log in
  (* Log position and record of every operation, for ordering closures. *)
  let pos = Hashtbl.create (List.length records) in
  List.iteri (fun i r -> Hashtbl.replace pos r.Log.op_id (i, r)) records;
  (* Per-home-variable queues over the unrecovered suffix, in log order. *)
  let queues : (Var.t, Log.record list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Digraph.Node_set.mem r.Log.op_id unrecovered then
        match Var.Set.min_elt_opt (Op.accesses (Log.find_op log r.Log.op_id)) with
        | None -> ()
        | Some v ->
          (match Hashtbl.find_opt queues v with
          | Some q -> q := r :: !q
          | None -> Hashtbl.add queues v (ref [ r ])))
    records;
  let pending = ref unrecovered and order = ref [] in
  (* Drain one record: its pending predecessors first, in log order,
     then the record itself. *)
  let drain_record r =
    if Digraph.Node_set.mem r.Log.op_id !pending then begin
      Metrics.incr c_lazy_drains;
      let closure =
        Digraph.Node_set.add r.Log.op_id
          (Digraph.Node_set.inter (Conflict_graph.predecessors_of cg r.Log.op_id) !pending)
      in
      Metrics.observe h_lazy_closure (float (Digraph.Node_set.cardinal closure));
      pending := Digraph.Node_set.diff !pending closure;
      Digraph.Node_set.elements closure
      |> List.map (Hashtbl.find pos)
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (_, r) -> order := r :: !order)
    end
  in
  let drain_var v =
    match Hashtbl.find_opt queues v with
    | None -> ()
    | Some q ->
      Hashtbl.remove queues v;
      List.iter drain_record (List.rev !q)
  in
  (* Touch order: caller-supplied, else home variables in descending
     order — adversarial against the ascending log tendency, so the
     equivalence leg actually exercises out-of-log-order drains. *)
  let touched =
    match touch_order with
    | Some vs -> vs
    | None ->
      List.rev
        (Var.Set.elements (Hashtbl.fold (fun v _ acc -> Var.Set.add v acc) queues Var.Set.empty))
  in
  List.iter drain_var touched;
  (* Sweeper of last resort: anything untouched (operations accessing
     no variable, variables a partial touch order omits) drains in log
     order. *)
  List.iter drain_record records;
  List.rev !order

(* ---- the one entry point ------------------------------------------- *)

type horizon = {
  scope : Var.Set.t;
  installed : Digraph.Node_set.t;
}

let checkpoint_of_horizons horizons =
  ignore
    (List.fold_left
       (fun seen h ->
         if not (Var.Set.is_empty (Var.Set.inter seen h.scope)) then
           invalid_arg "Recovery.checkpoint_of_horizons: horizon scopes overlap";
         Var.Set.union seen h.scope)
       Var.Set.empty horizons);
  List.fold_left
    (fun acc h -> Digraph.Node_set.union acc h.installed)
    Digraph.Node_set.empty horizons

let recover ?(trace = false) ?sink ?(schedule = Log_order) ?(horizons = []) spec ~state ~log
    ~checkpoint =
  (match schedule, sink with
  | Shards _, Some _ ->
    invalid_arg "Recovery.recover: ~sink would race across shards; use a shard_sink"
  | _ -> ());
  Metrics.incr c_runs;
  let t0 = Span.now_ns () in
  let checkpoint =
    if horizons = [] then checkpoint
    else begin
      Metrics.incr c_sharded_runs;
      Digraph.Node_set.union checkpoint (checkpoint_of_horizons horizons)
    end
  in
  let in_order name order =
    Span.span name @@ fun () ->
    let unrecovered = Digraph.Node_set.diff (Log.operations log) checkpoint in
    let stats = fresh_stats () in
    let r =
      run_loop ~trace ~sink ~stats spec ~records:(order unrecovered) ~state ~log ~unrecovered
    in
    flush_stats stats;
    if Span.enabled () then
      Span.note
        [
          "scanned", Span.Int stats.s_scanned;
          "applied", Span.Int stats.s_applied;
          "skipped", Span.Int stats.s_skipped;
        ];
    r
  in
  let result =
    match schedule with
    | Log_order -> in_order "recover" (fun _ -> Log.records log)
    | Touch_order touch_order ->
      Metrics.incr c_lazy_runs;
      in_order "recover.lazy" (fun unrecovered -> drain_order ~log ~unrecovered touch_order)
    | Shards { domains; pool; shard_sink } ->
      Metrics.incr c_parallel_runs;
      Span.span (if horizons = [] then "recover.parallel" else "recover.sharded") @@ fun () ->
      let plan = Span.span "recover.plan" (fun () -> Partition.plan ~log ~checkpoint) in
      (* Sinks are constructed on the coordinator, one per shard, before
         any worker runs — each closure is then confined to its own
         shard. *)
      let shard_sinks =
        List.map
          (fun s -> match shard_sink with None -> None | Some f -> f s)
          plan.Partition.shards
      in
      let r = replay_plan ~trace ~pool ~domains ~shard_sinks spec ~state ~log ~plan in
      Metrics.observe h_par_run_ns (Span.now_ns () -. t0);
      r
  in
  Metrics.observe h_run_ns (Span.now_ns () -. t0);
  result

let succeeded ?universe ~log result =
  let cg = Log.conflict_graph log in
  let exec = Conflict_graph.exec cg in
  let universe = Option.value ~default:(Exec.vars exec) universe in
  State.equal_on universe result.final (Exec.final_state exec)

type invariant_violation = {
  at_iteration : int;  (* 0 = before the first iteration *)
  installed : Digraph.Node_set.t;
  reason : string;
}

let installed_at ~log ~redo_set ~unrecovered =
  Digraph.Node_set.diff (Log.operations log) (Digraph.Node_set.inter redo_set unrecovered)

(* "The set operations(log) - redo_set induces a prefix of the
   installation graph that explains the state", evaluated at every point
   of the recovery execution (Section 4.5). The auditor checks each
   point as it is observed — either streamed straight out of [recover]
   via [~sink], or replayed from a [~trace:true] result — retaining only
   the first violation, never the snapshots themselves. *)
type auditor = {
  a_universe : Var.Set.t option;
  a_log : Log.t;
  a_redo_set : Digraph.Node_set.t;  (* the planned redo set *)
  a_ctx : Explain.ctx;
  mutable a_checked : int;  (* iterations audited so far *)
  mutable a_violation : invariant_violation option;
}

type audit_report = {
  violation : invariant_violation option;
  iterations_checked : int;
}

let auditor ?universe ~log ~redo_set () =
  {
    a_universe = universe;
    a_log = log;
    a_redo_set = redo_set;
    a_ctx = Explain.ctx (Log.conflict_graph log);
    a_checked = 0;
    a_violation = None;
  }

let audit_point a ~state ~unrecovered =
  let installed = installed_at ~log:a.a_log ~redo_set:a.a_redo_set ~unrecovered in
  a.a_violation <-
    if not (Explain.ctx_is_installation_prefix a.a_ctx installed) then
      Some
        {
          at_iteration = a.a_checked;
          installed;
          reason = "installed set is not an installation-graph prefix";
        }
    else if not (Explain.ctx_explains ?universe:a.a_universe a.a_ctx ~prefix:installed state)
    then
      Some
        {
          at_iteration = a.a_checked;
          installed;
          reason = "installed prefix does not explain the state";
        }
    else None

let audit_observe a it =
  if a.a_violation = None then begin
    audit_point a ~state:it.state_before ~unrecovered:it.unrecovered_before;
    a.a_checked <- a.a_checked + 1
  end

let audit_finish a ~final =
  if a.a_violation = None then
    audit_point a ~state:final ~unrecovered:Digraph.Node_set.empty;
  { violation = a.a_violation; iterations_checked = a.a_checked }

let audit ?universe ~log result =
  let a = auditor ?universe ~log ~redo_set:result.redo_set () in
  List.iter (audit_observe a) result.iterations;
  audit_finish a ~final:result.final

let check_invariant ?universe ~log result = (audit ?universe ~log result).violation

let pp_violation ppf v =
  Fmt.pf ppf "invariant violated at iteration %d (installed=%a): %s" v.at_iteration
    Digraph.Node_set.pp v.installed v.reason
