open Redo_core
open Redo_storage
module Span = Redo_obs.Span

type report = {
  method_name : string;
  op_count : int;
  installed_count : int;
  redo_count : int;
  shard_count : int;
  installed_is_prefix : bool;
  state_explained : bool;
  recovery_succeeds : bool;
  invariant_held : bool;
  parallel_agrees : bool;
  sharded_agrees : bool;
  lazy_agrees : bool;
  audited_iterations : int;
  sharded_audited : int;
  failure : string option;
  diagnosis : string list;
}

let ok r =
  r.installed_is_prefix && r.state_explained && r.recovery_succeeds && r.invariant_held
  && r.parallel_agrees && r.sharded_agrees && r.lazy_agrees

let fail_report ~method_name ~op_count msg =
  {
    method_name;
    op_count;
    installed_count = 0;
    redo_count = 0;
    shard_count = 0;
    installed_is_prefix = false;
    state_explained = false;
    recovery_succeeds = false;
    invariant_held = false;
    parallel_agrees = false;
    sharded_agrees = false;
    lazy_agrees = false;
    audited_iterations = 0;
    sharded_audited = 0;
    failure = Some msg;
    diagnosis = [];
  }

let pp_value ppf v =
  (* Page values are opaque once projected; decode them back for humans. *)
  match Page.of_value v with
  | page -> Page.pp ppf page
  | exception Page.Not_a_page _ ->
    (match Page.data_of_value v with
    | data -> Page.pp_data ppf data
    | exception Page.Not_a_page _ -> Value.pp ppf v)

(* Human-readable root causes: which exposed variables disagree between
   the stable state and the state the installed prefix determines, and
   which operations would notice. *)
let diagnose cg ~installed ~stable ~universe =
  let determined = Explain.state_determined_by_prefix cg ~prefix:installed in
  Var.Set.fold
    (fun x acc ->
      if Exposed.is_unexposed cg ~installed x then acc
      else
        let actual = State.get stable x and expected = State.get determined x in
        if Value.equal actual expected then acc
        else
          let witness =
            match
              Digraph.Node_set.min_elt_opt (Exposed.minimal_accessors cg ~installed x)
            with
            | Some op -> Fmt.str " (first uninstalled accessor: %s)" op
            | None -> " (needed by the final state)"
          in
          Fmt.str "@[<h>%a is exposed but holds %a instead of %a%s@]" Var.pp x pp_value actual
            pp_value expected witness
          :: acc)
    universe []
  |> List.rev

(* Verify the Recovery Invariant for a crashed system, as projected into
   the theory by its method: (1) the operations the redo test will NOT
   replay form a prefix of the installation graph; (2) that prefix
   explains the stable state; (3) the abstract Figure 6 procedure, run
   with exactly this redo set, rebuilds the final state while keeping
   the invariant at every iteration. *)
let check ?(domains = 2) ?pool (p : Projection.t) =
  let method_name = p.Projection.method_name in
  let op_count = List.length p.Projection.ops in
  Span.span "theory.check" ~attrs:[ "method", Span.String method_name ] @@ fun () ->
  (* Graph construction is its own leg: for big logs the conflict graph
     build rivals the replay legs, and the profiler should say so. *)
  match
    Span.span "theory.graph" (fun () ->
        let exec = Exec.make ~initial:p.Projection.initial p.Projection.ops in
        exec, Conflict_graph.of_exec exec)
  with
  | exception e -> fail_report ~method_name ~op_count (Printexc.to_string e)
  | exec, cg ->
      let redo_set = Digraph.Node_set.of_list p.Projection.redo_ids in
      let installed = Digraph.Node_set.diff (Exec.op_id_set exec) redo_set in
      let universe = p.Projection.universe in
      let installed_is_prefix, state_explained =
        Span.span "theory.explain" (fun () ->
            let is_prefix = Explain.is_installation_prefix cg installed in
            ( is_prefix,
              is_prefix
              && Explain.explains ~universe cg ~prefix:installed p.Projection.stable ))
      in
      let log = Log.of_conflict_graph cg in
      let spec =
        Recovery.redo_if (fun op _ -> Digraph.Node_set.mem (Op.id op) redo_set)
      in
      (* The auditor observes recovery as it runs: each iteration is
         checked and discarded, so nothing is retained but the first
         violation — no materialized trace. *)
      let auditor = Recovery.auditor ~universe ~log ~redo_set () in
      let result, recovery_succeeds, audit =
        Span.span "theory.sequential" (fun () ->
            let result =
              Recovery.recover ~sink:(Recovery.audit_observe auditor) spec
                ~state:p.Projection.stable ~log ~checkpoint:installed
            in
            let recovery_succeeds = Recovery.succeeded ~universe ~log result in
            result, recovery_succeeds, Recovery.audit_finish auditor ~final:result.Recovery.final)
      in
      let violation = audit.Recovery.violation in
      (* Replay the same redo set shard-parallel and insist the merged
         outcome is the sequential one — the executable form of the
         Theorem 3 argument that conflict-free operations commute. Run
         on every check, so any workload the simulator or a test throws
         at a method exercises the equivalence. *)
      let shard_count, parallel_agrees =
        if domains <= 1 then 0, true
        else
          Span.span "theory.parallel" @@ fun () ->
          let par =
            Recovery.recover
              ~schedule:(Recovery.Shards { domains; pool; shard_sink = None })
              spec ~state:p.Projection.stable ~log ~checkpoint:installed
          in
          let shards_disjoint =
            Partition.disjoint
              {
                Partition.shards =
                  List.map (fun sr -> sr.Recovery.shard) par.Recovery.shard_runs;
                unrecovered = redo_set;
              }
          in
          ( List.length par.Recovery.shard_runs,
            shards_disjoint
            && State.equal_on universe par.Recovery.final result.Recovery.final
            && Digraph.Node_set.equal par.Recovery.redo_set result.Recovery.redo_set )
      in
      (* The sharded-horizon leg: express the same installed set as
         per-shard checkpoint horizons — one horizon per component of
         the FULL conflict graph, claiming exactly the installed
         operations inside that component — and recover through the
         horizon code path. The union of the horizons is the global
         checkpoint, so the redo set and final state must be identical;
         each shard's replay is streamed through its own invariant
         auditor (restricted to the shard's variables), so the Recovery
         Invariant is audited DURING the sharded installation-order
         replay, on whatever domain runs the shard. Runs on every
         check, even at [domains = 1] (the shards then replay inline). *)
      let sharded_agrees, sharded_audited, sharded_failure =
        Span.span "theory.sharded" @@ fun () ->
        match
          let full_plan = Partition.plan ~log ~checkpoint:Digraph.Node_set.empty in
          let horizons =
            List.map
              (fun (s : Partition.shard) ->
                {
                  Recovery.scope = s.Partition.vars;
                  installed = Digraph.Node_set.inter installed s.Partition.ops;
                })
              full_plan.Partition.shards
          in
          let auditors = Hashtbl.create 8 in
          let shard_sink (s : Partition.shard) =
            let a =
              Recovery.auditor
                ~universe:(Var.Set.inter universe s.Partition.vars)
                ~log ~redo_set ()
            in
            Hashtbl.replace auditors s.Partition.index a;
            Some (Recovery.audit_observe a)
          in
          let sh =
            Recovery.recover
              ~schedule:(Recovery.Shards { domains; pool; shard_sink = Some shard_sink })
              ~horizons spec ~state:p.Projection.stable ~log
              ~checkpoint:Digraph.Node_set.empty
          in
          let audits =
            List.map
              (fun (sr : Recovery.shard_run) ->
                Recovery.audit_finish
                  (Hashtbl.find auditors sr.Recovery.shard.Partition.index)
                  ~final:sr.Recovery.shard_result.Recovery.final)
              sh.Recovery.shard_runs
          in
          sh, audits
        with
        | exception e -> false, 0, Some (Printexc.to_string e)
        | sh, audits ->
          let audited =
            List.fold_left (fun acc a -> acc + a.Recovery.iterations_checked) 0 audits
          in
          let first_violation =
            List.find_map (fun a -> a.Recovery.violation) audits
          in
          let same_final = State.equal_on universe sh.Recovery.final result.Recovery.final in
          let same_redo = Digraph.Node_set.equal sh.Recovery.redo_set result.Recovery.redo_set in
          let failure =
            match first_violation with
            | Some v ->
              Some (Fmt.str "sharded-horizon replay: %a" Recovery.pp_violation v)
            | None ->
              if not same_final then
                Some "sharded-horizon recovery diverged from global: different final state"
              else if not same_redo then
                Some "sharded-horizon recovery diverged from global: different redo set"
              else None
          in
          failure = None, audited, failure
      in
      (* The lazy ≡ eager leg: replay the same redo set in demand order
         — per-home-variable queues touched in descending variable
         order, each drain pulling its conflict predecessors first —
         and insist the outcome is the sequential one. This is the
         theory-level form of instant restart's page-granular redo;
         running it on every check means every workload the simulator,
         the service, or a test produces also certifies that serving
         before redo completes loses nothing (Theorem 3). *)
      let lazy_agrees, lazy_failure =
        Span.span "theory.lazy" @@ fun () ->
        match
          Recovery.recover ~schedule:(Recovery.Touch_order None) spec
            ~state:p.Projection.stable ~log ~checkpoint:installed
        with
        | exception e -> false, Some (Printexc.to_string e)
        | lz ->
          let same_final =
            State.equal_on universe lz.Recovery.final result.Recovery.final
          in
          let same_redo =
            Digraph.Node_set.equal lz.Recovery.redo_set result.Recovery.redo_set
          in
          let failure =
            if not same_final then
              Some "lazy (demand-order) recovery diverged from sequential: different final state"
            else if not same_redo then
              Some "lazy (demand-order) recovery diverged from sequential: different redo set"
            else None
          in
          failure = None, failure
      in
      let failure =
        if not installed_is_prefix then
          Some "installed operations do not form an installation-graph prefix"
        else if not state_explained then
          Some "installed prefix does not explain the stable state"
        else if not recovery_succeeds then Some "abstract recovery missed the final state"
        else if not parallel_agrees then
          Some
            (Fmt.str "parallel recovery (%d shards, %d domains) diverged from sequential"
               shard_count domains)
        else if not sharded_agrees then sharded_failure
        else if not lazy_agrees then lazy_failure
        else Option.map (Fmt.str "%a" Recovery.pp_violation) violation
      in
      let diagnosis =
        if state_explained || not installed_is_prefix then []
        else diagnose cg ~installed ~stable:p.Projection.stable ~universe
      in
      {
        method_name;
        op_count;
        installed_count = Digraph.Node_set.cardinal installed;
        redo_count = Digraph.Node_set.cardinal redo_set;
        shard_count;
        installed_is_prefix;
        state_explained;
        recovery_succeeds;
        invariant_held = violation = None;
        parallel_agrees;
        sharded_agrees;
        lazy_agrees;
        audited_iterations = audit.Recovery.iterations_checked;
        sharded_audited;
        failure;
        diagnosis;
      }

let pp_report ppf r =
  Fmt.pf ppf "[%s] %d ops, %d installed, %d redo, %d shards: %s" r.method_name r.op_count
    r.installed_count r.redo_count r.shard_count
    (match r.failure with
    | None -> Fmt.str "invariant holds (%d iterations audited)" r.audited_iterations
    | Some msg -> "FAIL: " ^ msg);
  List.iter (fun line -> Fmt.pf ppf "@,  %s" line) r.diagnosis

(* ---- serial-equivalence certificates ------------------------------- *)

(* A concurrent execution over conflict-closed shards serializes by
   construction: every operation touches exactly one page, pages are
   statically owned by one shard, and each shard's owner applies its
   operations in the order it appends their records — so the WAL's LSN
   order is a serial execution that agrees with every per-shard program
   order (Theorem 3: any conflict-respecting order works). The
   certificate makes that argument *checked* rather than assumed: the
   store's observable contents must equal a single-threaded replay of
   its own log, live (full log) or after crash + recovery (stable
   prefix). Combined with [check] — which audits the Recovery Invariant
   over the same LSN order — every certified run has
   concurrent execution + crash + recovery ≡ that serial execution. *)

type serial_certificate = {
  sc_method : string;
  sc_phase : string;  (** ["live"] or ["recovered"] — which log prefix serializes. *)
  sc_ops : int;  (** Operations in the serial witness (log order). *)
  sc_agrees : bool;
  sc_failure : string option;  (** First divergent key, if any. *)
}

let certificate_ok c = c.sc_agrees

let first_divergence serial observed =
  let module M = Map.Make (String) in
  let to_map l = M.of_seq (List.to_seq l) in
  let s = to_map serial and o = to_map observed in
  let diff =
    M.merge
      (fun _ a b ->
        match a, b with
        | Some x, Some y when String.equal x y -> None
        | _ -> Some (a, b))
      s o
  in
  match M.min_binding_opt diff with
  | None -> None
  | Some (k, (expected, actual)) ->
    let pp = function None -> "<absent>" | Some v -> v in
    Some
      (Fmt.str "key %s: serial replay has %s, store observed %s" k (pp expected) (pp actual))

let certify_serial ~method_name ~phase ~ops ~serial ~observed =
  let failure =
    if List.equal (fun (a, b) (c, d) -> String.equal a c && String.equal b d) serial observed
    then None
    else
      match first_divergence serial observed with
      | Some msg -> Some msg
      | None -> Some "serial replay and observed contents disagree on ordering"
  in
  {
    sc_method = method_name;
    sc_phase = phase;
    sc_ops = ops;
    sc_agrees = failure = None;
    sc_failure = failure;
  }

let pp_certificate ppf c =
  Fmt.pf ppf "[%s/%s] %d ops: %s" c.sc_method c.sc_phase c.sc_ops
    (match c.sc_failure with
    | None -> "concurrent = serial (certified)"
    | Some msg -> "FAIL: " ^ msg)
