(* The span profiler: recording semantics (nesting, cross-domain
   parents, the disabled no-op), the critical-path extractor's
   last-finisher attribution, the shard-imbalance arithmetic, the Chrome
   trace_event export, and the headline acceptance property — the
   critical path accounts for (all of) a real recovery's wall-clock. *)

open Redo_obs

(* Recording is process-global state; serialize every test through
   enable/reset and always disable on the way out. *)
let recording f =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) f

let collect_after f =
  recording f;
  Span.collect ()

let find name spans = List.find (fun (s : Span.span) -> s.Span.name = name) spans

let test_recording_nesting () =
  let spans =
    collect_after (fun () ->
        Span.span "outer" ~attrs:[ "k", Span.Int 1 ] (fun () ->
            Span.span "inner" (fun () -> Span.note [ "extra", Span.Bool true ]);
            Span.span "inner" (fun () -> ())))
  in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = find "outer" spans in
  Alcotest.(check int) "outer is a root" 0 outer.Span.parent;
  let inners = List.filter (fun (s : Span.span) -> s.Span.name = "inner") spans in
  List.iter
    (fun (s : Span.span) ->
      Alcotest.(check int) "inner nests under outer" outer.Span.id s.Span.parent;
      Alcotest.(check bool) "child interval inside parent" true
        (s.Span.start_ns >= outer.Span.start_ns && s.Span.end_ns <= outer.Span.end_ns))
    inners;
  Alcotest.(check bool) "constructor attrs kept" true
    (List.mem ("k", Span.Int 1) outer.Span.attrs);
  let noted = List.find (fun (s : Span.span) -> s.Span.attrs <> []) inners in
  Alcotest.(check bool) "note appends to the open span" true
    (List.mem ("extra", Span.Bool true) noted.Span.attrs);
  (* Ids are unique and spans come back sorted by start time. *)
  let ids = List.map (fun (s : Span.span) -> s.Span.id) spans in
  Alcotest.(check int) "unique ids" 3 (List.length (List.sort_uniq compare ids));
  let starts = List.map (fun (s : Span.span) -> s.Span.start_ns) spans in
  Alcotest.(check bool) "sorted by start" true (List.sort compare starts = starts)

let test_closed_on_raise () =
  let spans =
    collect_after (fun () ->
        try Span.span "boom" (fun () -> raise Exit) with Exit -> ())
  in
  match spans with
  | [ s ] ->
    Alcotest.(check string) "the raising span" "boom" s.Span.name;
    Alcotest.(check bool) "closed with an end time" true (s.Span.end_ns >= s.Span.start_ns)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_disabled_records_nothing () =
  Span.reset ();
  Alcotest.(check bool) "off by default" false (Span.enabled ());
  let ran = ref false in
  Span.span "dropped" (fun () -> ran := true);
  Alcotest.(check bool) "thunk still runs" true !ran;
  Alcotest.(check int) "no open frame visible" 0 (Span.current ());
  Span.note [ "k", Span.Int 1 ];
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.collect ()))

let test_json_value () =
  (* One printer turns every attribute value, span or flight frame, into
     a JSON literal; floats keep enough digits to read back exactly.
     Strings stay valid JSON whatever bytes they hold: UTF-8 passes
     through, control bytes take \u escapes, a byte that is not UTF-8
     becomes U+FFFD; a float that is not finite becomes null. *)
  List.iter
    (fun (v, lit) -> Alcotest.(check string) lit lit (Span.json_value v))
    [
      Span.Int 42, "42";
      Span.Int (-7), "-7";
      Span.Bool false, "false";
      Span.Float 2.25, "2.25";
      Span.Float 1e17, "1e+17";
      Span.Float (-0.), "-0";
      Span.String {|page "7"|}, {|"page \"7\""|};
      Span.String {|a\b|}, {|"a\\b"|};
      Span.String "caf\195\169\001\n", {|"café\u0001\u000a"|};
      Span.String "bad \255 \xe2\x82 end", {|"bad \ufffd \ufffd end"|};
      Span.Float Float.nan, "null";
      Span.Float Float.infinity, "null";
      Span.Float Float.neg_infinity, "null";
    ];
  Alcotest.(check (float 0.)) "float reads back exactly" (1. /. 3.)
    (float_of_string (Span.json_value (Span.Float (1. /. 3.))))

let test_multi_domain_collect () =
  let spans =
    collect_after (fun () ->
        Span.span "root" (fun () ->
            (* Work handed across domains: the submitting side captures
               its open span and the workers attach to it explicitly. *)
            let parent = Span.current () in
            let workers =
              List.init 3 (fun i ->
                  Domain.spawn (fun () ->
                      Span.span ~parent "worker"
                        ~attrs:[ "i", Span.Int i ]
                        (fun () -> Span.span "leaf" (fun () -> ()))))
            in
            List.iter Domain.join workers))
  in
  Alcotest.(check int) "root + 3 workers + 3 leaves" 7 (List.length spans);
  let root = find "root" spans in
  let workers = List.filter (fun (s : Span.span) -> s.Span.name = "worker") spans in
  List.iter
    (fun (w : Span.span) ->
      Alcotest.(check int) "worker's parent crosses domains" root.Span.id w.Span.parent;
      Alcotest.(check bool) "worker recorded on its own domain" true
        (w.Span.domain <> root.Span.domain);
      let leaf =
        List.find (fun (s : Span.span) -> s.Span.parent = w.Span.id) spans
      in
      Alcotest.(check string) "leaf nests under its worker" "leaf" leaf.Span.name;
      Alcotest.(check int) "leaf stays on the worker's domain" w.Span.domain
        leaf.Span.domain)
    workers;
  let domains =
    List.sort_uniq compare (List.map (fun (s : Span.span) -> s.Span.domain) spans)
  in
  Alcotest.(check bool) "spans from several domains" true (List.length domains >= 2)

(* A hand-built recovery-shaped tree: plan, two shards fanned out in
   parallel, merge. The critical path must chain plan -> the straggler
   shard (the last finisher, NOT the earlier-finishing one) -> merge,
   and the self times must partition the root exactly. *)
let mk ~id ~parent ?(domain = 0) name lo hi =
  Span.of_parts ~id ~parent ~domain ~name ~start_ns:lo ~end_ns:hi ~attrs:[]

let test_critical_path_parallel_fanout () =
  let root = mk ~id:1 ~parent:0 "recover.parallel" 0. 100. in
  let spans =
    [
      root;
      mk ~id:2 ~parent:1 "recover.plan" 0. 10.;
      mk ~id:3 ~parent:1 ~domain:1 "recover.shard" 10. 60.;
      mk ~id:4 ~parent:1 ~domain:2 "recover.shard" 12. 90.;
      mk ~id:5 ~parent:1 "recover.merge" 90. 100.;
    ]
  in
  Alcotest.(check (list int)) "one root" [ 1 ]
    (List.map (fun (s : Span.span) -> s.Span.id) (Profile.roots spans));
  let entries = Profile.critical_path spans ~root in
  let on_path = List.map (fun e -> e.Profile.cp_span.Span.id) entries in
  Alcotest.(check bool) "straggler shard on the path" true (List.mem 4 on_path);
  Alcotest.(check bool) "fast shard shadowed" false (List.mem 3 on_path);
  let self id =
    (List.find (fun e -> e.Profile.cp_span.Span.id = id) entries).Profile.cp_self_ns
  in
  Alcotest.(check (float 1e-9)) "plan self" 10. (self 2);
  Alcotest.(check (float 1e-9)) "straggler self" 78. (self 4);
  Alcotest.(check (float 1e-9)) "merge self" 10. (self 5);
  (* plan ends at 10, the straggler starts at 12: the 2ns gap is the
     root's own (scheduling) time. *)
  Alcotest.(check (float 1e-9)) "root keeps only the gap" 2. (self 1);
  Alcotest.(check (float 1e-9)) "self times partition the root exactly" 100.
    (Profile.total_self (Profile.attribute entries))

let test_critical_path_sequential_chain () =
  let root = mk ~id:1 ~parent:0 "recover" 0. 50. in
  let spans =
    [ root; mk ~id:2 ~parent:1 "analyze" 0. 20.; mk ~id:3 ~parent:1 "apply" 20. 45. ]
  in
  let rows = Profile.attribute (Profile.critical_path spans ~root) in
  let self name = (List.find (fun r -> r.Profile.r_name = name) rows).Profile.r_self_ns in
  Alcotest.(check (float 1e-9)) "first leg" 20. (self "analyze");
  Alcotest.(check (float 1e-9)) "second leg" 25. (self "apply");
  Alcotest.(check (float 1e-9)) "root tail after the last child" 5. (self "recover");
  (* Largest self time first. *)
  Alcotest.(check (list string)) "ranked descending" [ "apply"; "analyze"; "recover" ]
    (List.map (fun r -> r.Profile.r_name) rows)

let test_shard_imbalance () =
  Alcotest.(check bool) "no shards -> None" true
    (Profile.shard_imbalance [ mk ~id:1 ~parent:0 "other" 0. 1. ] = None);
  let spans =
    [
      mk ~id:1 ~parent:0 "recover.shard" 0. 10.;
      mk ~id:2 ~parent:0 "recover.shard" 0. 20.;
      mk ~id:3 ~parent:0 "recover.shard" 0. 30.;
    ]
  in
  match Profile.shard_imbalance spans with
  | None -> Alcotest.fail "expected a report"
  | Some i ->
    Alcotest.(check int) "shards" 3 i.Profile.i_shards;
    Alcotest.(check (float 1e-9)) "max is the replay tail" 30. i.Profile.i_max_ns;
    Alcotest.(check (float 1e-9)) "mean" 20. i.Profile.i_mean_ns;
    Alcotest.(check (float 1e-6)) "population stddev" (sqrt (200. /. 3.))
      i.Profile.i_stddev_ns

let test_chrome_trace_export () =
  let spans =
    collect_after (fun () ->
        Span.span "root" (fun () ->
            Span.span "child" (fun () -> ());
            let parent = Span.current () in
            Domain.join
              (Domain.spawn (fun () -> Span.span ~parent "remote" (fun () -> ())))))
  in
  let events = Span.chrome_events spans in
  Alcotest.(check int) "one event per span" (List.length spans) (List.length events);
  List.iter
    (fun (e : Span.chrome_event) ->
      Alcotest.(check string) "complete event" "X" e.Span.ev_ph;
      Alcotest.(check int) "single process" 1 e.Span.ev_pid;
      Alcotest.(check bool) "timestamps from the trace origin" true (e.Span.ev_ts >= 0.);
      Alcotest.(check bool) "non-negative duration" true (e.Span.ev_dur >= 0.))
    events;
  (* Track = recording domain, and within each track the events nest
     properly: Chrome renders per-tid stacks, so an interval must never
     half-overlap another on its own track. *)
  List.iter
    (fun (s : Span.span) ->
      let ev =
        List.find (fun (e : Span.chrome_event) -> e.Span.ev_name = s.Span.name) events
      in
      Alcotest.(check int) "tid is the recording domain" s.Span.domain ev.Span.ev_tid)
    spans;
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Span.chrome_event) ->
      Hashtbl.replace by_tid e.Span.ev_tid
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.Span.ev_tid)))
    events;
  (* eps absorbs float summing of ts +. dur; well below the us
     resolution of the timestamps themselves. *)
  let eps = 1e-3 in
  Hashtbl.iter
    (fun _ evs ->
      List.iter
        (fun (a : Span.chrome_event) ->
          List.iter
            (fun (b : Span.chrome_event) ->
              let a0 = a.Span.ev_ts and a1 = a.Span.ev_ts +. a.Span.ev_dur in
              let b0 = b.Span.ev_ts and b1 = b.Span.ev_ts +. b.Span.ev_dur in
              Alcotest.(check bool) "same-track events nest or are disjoint" true
                (a == b
                || a1 <= b0 +. eps
                || b1 <= a0 +. eps
                || (a0 >= b0 -. eps && a1 <= b1 +. eps)
                || (b0 >= a0 -. eps && b1 <= a1 +. eps)))
            evs)
        evs)
    by_tid;
  let json = Span.chrome_json spans in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in json") true (contains ~needle json))
    [
      "\"traceEvents\"";
      "\"ph\": \"X\"";
      "\"ph\": \"M\"";
      "thread_name";
      "\"displayTimeUnit\": \"ms\"";
      "\"remote\"";
    ]

(* The acceptance property from the issue: profile a real crashing
   simulator run and check the critical path through each sim.recovery
   root accounts for >= 90% of the measured recovery wall-clock. (The
   extractor partitions each root exactly, so this holds with margin;
   the tolerance guards the arithmetic, not the clock.) *)
let test_accounts_for_recovery_wallclock () =
  let spans =
    collect_after (fun () ->
        let make = Redo_methods.Registry.find "generalized" in
        let config =
          {
            Redo_sim.Simulator.default_config with
            Redo_sim.Simulator.total_ops = 120;
            crash_every = Some 40;
            domains = 2;
          }
        in
        let o =
          Redo_sim.Simulator.run config (make ~cache_capacity:12 ~partitions:8 ())
        in
        Alcotest.(check (list string)) "run verifies" [] o.Redo_sim.Simulator.verify_failures)
  in
  let roots = Profile.roots ~name:"sim.recovery" spans in
  Alcotest.(check bool) "at least one recovery recorded" true (roots <> []);
  let measured =
    List.fold_left (fun acc r -> acc +. Span.duration_ns r) 0. roots
  in
  let accounted =
    Profile.total_self
      (Profile.attribute
         (List.concat_map (fun r -> Profile.critical_path spans ~root:r) roots))
  in
  Alcotest.(check bool)
    (Printf.sprintf "critical path accounts for >= 90%% (%.1f%% of %.3fms)"
       (100. *. accounted /. measured)
       (measured /. 1e6))
    true
    (accounted >= 0.9 *. measured);
  (* The theory check ran its parallel leg, so shard spans exist and the
     imbalance report has data. *)
  match Profile.shard_imbalance spans with
  | None -> Alcotest.fail "expected recover.shard spans from the parallel leg"
  | Some i -> Alcotest.(check bool) "max >= mean" true (i.Profile.i_max_ns >= i.Profile.i_mean_ns)

let suite =
  [
    Alcotest.test_case "recording and nesting" `Quick test_recording_nesting;
    Alcotest.test_case "span closed on raise" `Quick test_closed_on_raise;
    Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
    Alcotest.test_case "multi-domain collection" `Quick test_multi_domain_collect;
    Alcotest.test_case "critical path: parallel fan-out" `Quick
      test_critical_path_parallel_fanout;
    Alcotest.test_case "critical path: sequential chain" `Quick
      test_critical_path_sequential_chain;
    Alcotest.test_case "shard imbalance" `Quick test_shard_imbalance;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_trace_export;
    Alcotest.test_case "critical path accounts for recovery wall-clock" `Quick
      test_accounts_for_recovery_wallclock;
    Alcotest.test_case "json value literals" `Quick test_json_value;
  ]
