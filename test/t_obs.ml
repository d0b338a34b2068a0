(* The observability layer: metrics registry semantics (counters,
   gauges, histogram buckets and percentiles) and the multi-domain
   guarantee of atomic counters. *)

open Redo_obs

let test_counter_semantics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.count c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.count c);
  (* Same name resolves to the same instrument. *)
  let c' = Metrics.counter ~registry:r "test.counter" in
  Metrics.incr c';
  Alcotest.(check int) "aliased handle" 43 (Metrics.count c);
  (* Distinct registries are isolated. *)
  let other = Metrics.counter ~registry:(Metrics.create ()) "test.counter" in
  Alcotest.(check int) "fresh registry" 0 (Metrics.count other);
  Metrics.reset ~registry:r ();
  Alcotest.(check int) "reset zeroes, handle survives" 0 (Metrics.count c)

let test_gauge_semantics () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "test.gauge" in
  Metrics.set g 7.5;
  Metrics.set g 3.0;
  Alcotest.(check (float 1e-9)) "last set wins" 3.0 (Metrics.level g)

let test_histogram_buckets () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~bounds:[| 10.; 20.; 40. |] "test.hist" in
  (* Bucket i holds v <= bounds.(i); past the last bound is overflow. *)
  List.iter (Metrics.observe h) [ 5.; 10.; 10.5; 20.; 39.9; 40.; 41.; 1000. ];
  Alcotest.(check (array int)) "bucket boundaries are inclusive upper bounds"
    [| 2; 2; 2; 2 |] (Metrics.bucket_counts h);
  Alcotest.(check int) "events" 8 (Metrics.events h);
  Alcotest.(check (float 1e-9)) "max tracked" 1000. (Metrics.percentile h 100.);
  (match Metrics.histogram ~registry:r ~bounds:[| 3.; 2. |] "test.bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing bounds accepted")

let test_histogram_percentiles () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~bounds:[| 1.; 2.; 4.; 8. |] "test.pctl" in
  Alcotest.(check (float 1e-9)) "empty histogram reads 0" 0. (Metrics.percentile h 50.);
  (* 100 observations of 1, 2, 3, 4 cycling: 25 in each of the first
     three occupied buckets (3 lands in the <=4 bucket with 4). *)
  for i = 0 to 99 do
    Metrics.observe h (float ((i mod 4) + 1))
  done;
  Alcotest.(check (float 1e-9)) "p25 -> first bucket bound" 1. (Metrics.percentile h 25.);
  Alcotest.(check (float 1e-9)) "p50 -> second bucket bound" 2. (Metrics.percentile h 50.);
  Alcotest.(check (float 1e-9)) "p99 -> <=4 bucket bound" 4. (Metrics.percentile h 99.);
  Metrics.observe h 100.;
  Alcotest.(check (float 1e-9)) "p100 in overflow -> max observed" 100.
    (Metrics.percentile h 100.);
  Alcotest.(check (float 1e-6)) "histogram mean" ((2.5 *. 100. +. 100.) /. 101.)
    (Metrics.mean h)

let test_counter_from_many_domains () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "par.counter" in
  let per_domain = 25_000 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done;
            Metrics.add c per_domain))
  in
  List.iter Domain.join workers;
  (* Plain mutable ints under this contention lose thousands of
     updates; the atomic counter must lose none. *)
  Alcotest.(check int) "no increment lost" (4 * 2 * per_domain) (Metrics.count c)

(* End to end: parallel recovery's counter flushes (shard tallies
   accumulated locally, added from the coordinator after the join) must
   account for every operation exactly once. *)
let test_parallel_recovery_counters_exact () =
  let open Redo_core in
  let ops =
    List.init 64 (fun i ->
        let v = Var.of_string (Printf.sprintf "x%d" (i mod 8)) in
        Op.of_assigns ~id:(Printf.sprintf "op%02d" i) [ v, Expr.(var v + int 1) ])
  in
  let log = Log.of_conflict_graph (Conflict_graph.of_exec (Exec.make ops)) in
  let before = Metrics.counter_values () in
  let par =
    Recovery.recover
      ~schedule:(Recovery.Shards { domains = 4; pool = None; shard_sink = None })
      Recovery.always_redo ~state:State.empty ~log ~checkpoint:Digraph.Node_set.empty
  in
  let diff = Metrics.counter_diff ~before ~after:(Metrics.counter_values ()) in
  let moved name = Option.value ~default:0 (List.assoc_opt name diff) in
  Alcotest.(check int) "every op applied exactly once across shards" 64
    (moved "recover.ops_applied");
  Alcotest.(check int) "every record scanned exactly once" 64
    (moved "recover.records_scanned");
  Alcotest.(check int) "one shard-run count per shard" (List.length par.Recovery.shard_runs)
    (moved "recover.shard.runs")

let test_percentile_empty_overflow () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~bounds:[| 10.; 20. |] "test.overflow" in
  (* Every observation inside the bounds: the overflow bucket is empty,
     and no percentile may wander into it (a past off-by-one walked past
     the last bucket and reported the overflow max of 0). *)
  List.iter (Metrics.observe h) [ 5.; 15.; 15. ];
  Alcotest.(check (float 1e-9)) "p50 in a real bucket" 20. (Metrics.percentile h 50.);
  Alcotest.(check (float 1e-9)) "p100 with empty overflow is the last occupied bound" 20.
    (Metrics.percentile h 100.);
  Alcotest.(check (array int)) "overflow bucket untouched" [| 1; 2; 0 |]
    (Metrics.bucket_counts h)

let test_histogram_relookup_ignores_bounds () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~bounds:[| 1.; 2. |] "test.relookup" in
  Metrics.observe h 1.5;
  (* Same name, different bounds: the registry returns the existing
     instrument; the new bounds are documented as ignored, not applied
     (re-bucketing live tallies would corrupt them). *)
  let h' = Metrics.histogram ~registry:r ~bounds:[| 100.; 200.; 300. |] "test.relookup" in
  Metrics.observe h' 1.5;
  Alcotest.(check int) "same instrument" 2 (Metrics.events h);
  Alcotest.(check (array int)) "original bounds still in force" [| 0; 2; 0 |]
    (Metrics.bucket_counts h');
  Alcotest.(check (float 1e-9)) "percentiles use the original bounds" 2.
    (Metrics.percentile h' 50.)

let test_percentile_interp () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~bounds:[| 10.; 20.; 40. |] "test.interp" in
  (* Ten observations into [0,10): the bucket-bound percentile reports
     10 for all of them; interpolation spreads the fractional rank
     across the bucket. rank(p50) = 5 of 10 -> halfway through [0,10). *)
  for _ = 1 to 10 do
    Metrics.observe h 5.
  done;
  Alcotest.(check (float 1e-9)) "bucket-bound p50 stays 10" 10. (Metrics.percentile h 50.);
  Alcotest.(check (float 1e-9)) "interpolated p50 is mid-bucket" 5.
    (Metrics.percentile_interp h 50.);
  Alcotest.(check (float 1e-9)) "interpolated p100 reaches the bound, clamped to max" 5.
    (Metrics.percentile_interp h 100.);
  (* Mixed buckets: 10 below 10, then 10 in [10,20). rank(p75) = 15 ->
     5 events into the second bucket of 10 -> 10 + 0.5 * 10 = 15. *)
  for _ = 1 to 10 do
    Metrics.observe h 15.
  done;
  Alcotest.(check (float 1e-9)) "interpolated p75 lands mid second bucket" 15.
    (Metrics.percentile_interp h 75.);
  Alcotest.(check (float 1e-9)) "empty histogram is 0" 0.
    (Metrics.percentile_interp (Metrics.histogram ~registry:r ~bounds:[| 1. |] "test.interp2") 50.)

let test_percentile_interp_overflow () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~bounds:[| 10. |] "test.interp.ovf" in
  Metrics.observe h 5.;
  Metrics.observe h 100.;
  Metrics.observe h 200.;
  (* Ranks that land in the unbounded overflow bucket report the
     observed max — there is no upper bound to interpolate toward. *)
  Alcotest.(check (float 1e-9)) "overflow rank reports observed max" 200.
    (Metrics.percentile_interp h 99.)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let test_snapshot_and_json () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter ~registry:r "b.count") 2;
  Metrics.add (Metrics.counter ~registry:r "a.count") 1;
  Metrics.set (Metrics.gauge ~registry:r "g.level") 1.5;
  Metrics.observe (Metrics.histogram ~registry:r ~bounds:[| 10. |] "h.ns") 4.;
  let s = Metrics.snapshot ~registry:r () in
  Alcotest.(check (list (pair string int))) "counters sorted"
    [ "a.count", 1; "b.count", 2 ] s.Metrics.counters;
  let json = Metrics.to_json s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in json") true (contains ~needle json))
    [ "\"a.count\": 1"; "\"g.level\": 1.5"; "\"h.ns\""; "\"events\": 1" ]

let test_counter_diff () =
  let r = Metrics.create () in
  let a = Metrics.counter ~registry:r "a" and b = Metrics.counter ~registry:r "b" in
  Metrics.incr a;
  let before = Metrics.counter_values ~registry:r () in
  Metrics.add a 4;
  Metrics.incr b;
  ignore (Metrics.counter ~registry:r "c");
  let diff =
    Metrics.counter_diff ~before ~after:(Metrics.counter_values ~registry:r ())
  in
  Alcotest.(check (list (pair string int))) "only moved counters" [ "a", 4; "b", 1 ] diff

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "snapshot and json" `Quick test_snapshot_and_json;
    Alcotest.test_case "counter diff" `Quick test_counter_diff;
    Alcotest.test_case "counter from many domains" `Quick test_counter_from_many_domains;
    Alcotest.test_case "parallel recovery counters exact" `Quick
      test_parallel_recovery_counters_exact;
    Alcotest.test_case "percentile with empty overflow" `Quick test_percentile_empty_overflow;
    Alcotest.test_case "interpolated percentiles" `Quick test_percentile_interp;
    Alcotest.test_case "interpolated percentile overflow" `Quick
      test_percentile_interp_overflow;
    Alcotest.test_case "histogram re-lookup ignores new bounds" `Quick
      test_histogram_relookup_ignores_bounds;
  ]
