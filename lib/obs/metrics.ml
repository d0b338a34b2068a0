(* Counters are atomic so worker domains may record directly (lost
   updates, not torn values, were the risk: [c <- c + 1] is a
   read-modify-write). Gauges and histograms stay plain mutable —
   multi-field updates would need a lock — under a single-writer rule:
   only the coordinating domain observes them. Recovery's parallel path
   honours this by accumulating per-shard tallies locally and flushing
   from the coordinator after the join (see [Recovery.run_stats]); the
   few histograms that shard-owner domains observe concurrently go
   through [observe_locked]. *)
type counter = { c_name : string; c_count : int Atomic.t }
type gauge = { g_name : string; mutable g_level : float }

type histogram = {
  h_name : string;
  bounds : float array;  (* strictly increasing upper bounds *)
  buckets : int array;  (* one per bound, plus the overflow bucket *)
  mutable h_events : int;
  mutable h_sum : float;
  mutable h_max : float;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let default = create ()

let counter ?(registry = default) name =
  match Hashtbl.find_opt registry.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_count = Atomic.make 0 } in
    Hashtbl.replace registry.counters name c;
    c

let incr c = Atomic.incr c.c_count
let add c n = ignore (Atomic.fetch_and_add c.c_count n)
let count c = Atomic.get c.c_count

let gauge ?(registry = default) name =
  match Hashtbl.find_opt registry.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_level = 0. } in
    Hashtbl.replace registry.gauges name g;
    g

let set g v = g.g_level <- v
let level g = g.g_level

let duration_bounds_ns =
  [|
    100.; 250.; 500.; 1e3; 2.5e3; 5e3; 1e4; 2.5e4; 5e4; 1e5; 2.5e5; 5e5; 1e6; 2.5e6; 5e6;
    1e7; 2.5e7; 5e7; 1e8; 2.5e8; 1e9;
  |]

let count_bounds =
  [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 4096.; 16384.; 65536. |]

(* Log-spaced bounds: [per_decade] buckets per factor of 10, from [lo]
   up to exactly [hi]. Fixed linear (or hand-picked) bucket arrays clip
   whichever tail the workload actually has — Background-mode group
   commit produces wait times spanning five orders of magnitude — so
   tail-heavy histograms should generate their bounds instead. *)
let log_scale ?(per_decade = 3) ~lo ~hi () =
  if not (lo > 0. && hi > lo) then invalid_arg "Metrics.log_scale: need 0 < lo < hi";
  if per_decade < 1 then invalid_arg "Metrics.log_scale: per_decade must be >= 1";
  let ratio = 10. ** (1. /. float per_decade) in
  let bounds = ref [ lo ] and v = ref lo in
  while !v *. ratio < hi do
    v := !v *. ratio;
    bounds := !v :: !bounds
  done;
  Array.of_list (List.rev (hi :: !bounds))

let histogram ?(registry = default) ?(bounds = duration_bounds_ns) name =
  match Hashtbl.find_opt registry.histograms name with
  | Some h -> h
  | None ->
    if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty bounds";
    Array.iteri
      (fun i b ->
        if i > 0 && bounds.(i - 1) >= b then
          invalid_arg "Metrics.histogram: bounds must be strictly increasing")
      bounds;
    let h =
      {
        h_name = name;
        bounds;
        buckets = Array.make (Array.length bounds + 1) 0;
        h_events = 0;
        h_sum = 0.;
        h_max = 0.;
      }
    in
    Hashtbl.replace registry.histograms name h;
    h

(* Smallest i with v <= bounds.(i); length bounds = overflow. The bound
   array is a small constant, so this is a handful of compares. *)
let bucket_index bounds v =
  let lo = ref 0 and hi = ref (Array.length bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe h v =
  let i = bucket_index h.bounds v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_events <- h.h_events + 1;
  h.h_sum <- h.h_sum +. v;
  if v > h.h_max then h.h_max <- v

let observe_mutex = Mutex.create ()

let observe_locked h v =
  Mutex.lock observe_mutex;
  observe h v;
  Mutex.unlock observe_mutex

let events h = h.h_events
let mean h = if h.h_events = 0 then 0. else h.h_sum /. float h.h_events
let max h = h.h_max
let bucket_counts h = Array.copy h.buckets

let percentile h p =
  if h.h_events = 0 then 0.
  else begin
    let rank = Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float h.h_events))) in
    let n = Array.length h.buckets in
    let rec go i acc =
      if i >= n - 1 then h.h_max
      else
        let acc = acc + h.buckets.(i) in
        if acc >= rank then h.bounds.(i) else go (i + 1) acc
    in
    go 0 0
  end

(* [percentile] reports the bucket's upper bound — an overestimate
   bounded by the bucket resolution; this refines it by interpolating
   linearly within the bucket holding the rank, clamped to the observed
   maximum. *)
let percentile_interp h p =
  if h.h_events = 0 then 0.
  else begin
    let events = float h.h_events in
    let rank = Float.max 1e-9 (Float.min (p /. 100. *. events) events) in
    let n = Array.length h.buckets in
    let rec go i cum =
      if i >= n - 1 then h.h_max
      else begin
        let c = h.buckets.(i) in
        let cum' = cum +. float c in
        if c > 0 && cum' >= rank then begin
          let lo = if i = 0 then 0. else h.bounds.(i - 1) in
          let frac = (rank -. cum) /. float c in
          lo +. (frac *. (h.bounds.(i) -. lo))
        end
        else go (i + 1) cum'
      end
    in
    let v = go 0 0. in
    if h.h_max > 0. then Float.min v h.h_max else v
  end

let span h f =
  let t0 = Span.now_ns () in
  Fun.protect ~finally:(fun () -> observe h (Span.now_ns () -. t0)) f

let reset ?(registry = default) () =
  Hashtbl.iter (fun _ c -> Atomic.set c.c_count 0) registry.counters;
  Hashtbl.iter (fun _ g -> g.g_level <- 0.) registry.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 (Array.length h.buckets) 0;
      h.h_events <- 0;
      h.h_sum <- 0.;
      h.h_max <- 0.)
    registry.histograms

let sorted_by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counter_values ?(registry = default) () =
  Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_count) :: acc) registry.counters []
  |> sorted_by_name

let counter_diff ~before ~after =
  let base = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace base name v) before;
  List.filter_map
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (Hashtbl.find_opt base name) in
      if d = 0 then None else Some (name, d))
    after

type histogram_view = {
  hv_name : string;
  hv_events : int;
  hv_mean : float;
  hv_p50 : float;
  hv_p90 : float;
  hv_p99 : float;
  hv_max : float;
  (* Interpolated refinements of the bucket-bound percentiles above. *)
  hv_p50i : float;
  hv_p90i : float;
  hv_p99i : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : histogram_view list;
}

let snapshot ?(registry = default) () =
  {
    counters = counter_values ~registry ();
    gauges =
      Hashtbl.fold (fun name g acc -> (name, g.g_level) :: acc) registry.gauges []
      |> sorted_by_name;
    histograms =
      Hashtbl.fold
        (fun name h acc ->
          {
            hv_name = name;
            hv_events = h.h_events;
            hv_mean = mean h;
            hv_p50 = percentile h 50.;
            hv_p90 = percentile h 90.;
            hv_p99 = percentile h 99.;
            hv_max = h.h_max;
            hv_p50i = percentile_interp h 50.;
            hv_p90i = percentile_interp h 90.;
            hv_p99i = percentile_interp h 99.;
          }
          :: acc)
        registry.histograms []
      |> List.sort (fun a b -> String.compare a.hv_name b.hv_name);
  }

let pp ppf s =
  Fmt.pf ppf "@[<v>counters:";
  List.iter (fun (name, v) -> Fmt.pf ppf "@,  %-36s %12d" name v) s.counters;
  if s.gauges <> [] then begin
    Fmt.pf ppf "@,gauges:";
    List.iter (fun (name, v) -> Fmt.pf ppf "@,  %-36s %12.1f" name v) s.gauges
  end;
  if s.histograms <> [] then begin
    Fmt.pf ppf "@,histograms:%38s%10s%10s%10s%10s%10s" "events" "mean" "p50" "p90" "p99" "max";
    List.iter
      (fun h ->
        Fmt.pf ppf "@,  %-36s %10d %9.0f %9.0f %9.0f %9.0f %9.0f" h.hv_name h.hv_events
          h.hv_mean h.hv_p50 h.hv_p90 h.hv_p99 h.hv_max)
      s.histograms
  end;
  Fmt.pf ppf "@]"

let to_json s =
  let str = Span.json_string and num = Span.json_float in
  let buf = Buffer.create 1024 in
  let fields add l =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        add x)
      l
  in
  Buffer.add_string buf "{\"counters\": {";
  fields
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s: %d" (str name) v))
    s.counters;
  Buffer.add_string buf "}, \"gauges\": {";
  fields
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s" (str name) (num v)))
    s.gauges;
  Buffer.add_string buf "}, \"histograms\": {";
  fields
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s: {\"events\": %d, \"mean\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s, \
            \"max\": %s, \"p50_interp\": %s, \"p90_interp\": %s, \"p99_interp\": %s}"
           (str h.hv_name) h.hv_events (num h.hv_mean) (num h.hv_p50) (num h.hv_p90)
           (num h.hv_p99) (num h.hv_max) (num h.hv_p50i) (num h.hv_p90i) (num h.hv_p99i)))
    s.histograms;
  Buffer.add_string buf "}}";
  Buffer.contents buf
