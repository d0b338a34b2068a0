(* End-to-end operation latency tracing with tail attribution.

   Every layer below this one aggregates: Metrics counts forces and
   times them, Span shows recovery's critical path, Flight survives the
   crash. None of them answers the tuning question the sharded service
   raises — *where does one operation's latency go*: mailbox dwell,
   shard apply, the wait for batch admission, the force itself, or the
   stable ack?

   Oplat answers by sampling. One operation in [sample_every] carries a
   ticket of wall-clock stamps, one per lifecycle edge:

     post -> dequeue -> apply -> stage -> batch -> force -> ack
       (dwell)  (apply)  (stage)  (batch)  (force)  (ack)

   Stage durations telescope: each stage is measured from the latest
   earlier edge that was actually stamped, so the per-ticket stage sums
   equal the end-to-end latency exactly — missing edges (an op whose
   stage the committer coalesced away, a crash-dropped ack) charge
   their interval to the next stage that did happen, never to thin air.

   Concurrency discipline, by ticket phase:
   - client/owner edges (post, dequeue, apply) are plain stores into a
     ticket only one domain holds at a time (the mailbox handoff is the
     happens-before edge, exactly as for the task closure itself);
   - committer edges (stage, batch, force, ack) arrive keyed by LSN:
     [register] publishes the ticket into a global in-flight table
     under a leaf mutex, and the group-commit hooks stamp every
     in-flight ticket their horizon covers. The table only ever holds
     the sampled fraction of one batch's worth of operations, so the
     per-force sweep is short;
   - a completed ticket folds, under that same mutex, into one copy of
     the statistics: Metrics histograms in a registry of Oplat's own,
     one reservoir and one time-series table. Histograms are
     single-writer; the mutex makes every finalizing domain that one
     writer.

   The disabled cost at every hook is one Atomic load and branch. *)

type ticket = {
  mutable t_post : float;
  mutable t_dequeue : float;
  mutable t_apply : float;
  mutable t_stage : float;
  mutable t_batch : float;
  mutable t_force : float;
  mutable t_ack : float;
  mutable t_lsn : int;
  mutable t_shard : int;
  mutable t_durable : bool;
}

let new_ticket post =
  {
    t_post = post;
    t_dequeue = 0.;
    t_apply = 0.;
    t_stage = 0.;
    t_batch = 0.;
    t_force = 0.;
    t_ack = 0.;
    t_lsn = 0;
    t_shard = -1;
    t_durable = false;
  }

let n_stages = 6
let stage_names = [| "dwell"; "apply"; "stage"; "batch"; "force"; "ack" |]

let edges tk =
  [| tk.t_post; tk.t_dequeue; tk.t_apply; tk.t_stage; tk.t_batch; tk.t_force; tk.t_ack |]

(* Stage durations against the latest earlier present edge; [-1.] marks
   a stage whose closing edge was never stamped. *)
let durations tk =
  let e = edges tk in
  let d = Array.make n_stages (-1.) in
  let last = ref e.(0) in
  for i = 1 to n_stages do
    if e.(i) > 0. then begin
      d.(i - 1) <- Float.max 0. (e.(i) -. !last);
      last := e.(i)
    end
  done;
  d

let end_ns tk =
  let e = edges tk in
  let last = ref e.(0) in
  for i = 1 to n_stages do
    if e.(i) > 0. then last := e.(i)
  done;
  !last

let e2e_ns tk = Float.max 0. (end_ns tk -. tk.t_post)

(* ---- statistics: one copy, under [mutex] ----------------------------- *)

(* 6 buckets per decade, 100 ns .. 10 s: fine enough that an
   interpolated p999 is meaningful. *)
let registry = Metrics.create ()
let bounds = Metrics.log_scale ~per_decade:6 ~lo:100. ~hi:1e10 ()
let histogram name = Metrics.histogram ~registry ~bounds name
let h_stage = Array.map histogram stage_names
let h_e2e = histogram "end-to-end"
let h_dwell = histogram "mailbox.dwell"

(* End-to-end latency once more, split by each ticket's dominant stage:
   the tail tally is bucket arithmetic over these. *)
let h_dominant = Array.map (fun name -> histogram ("dominant." ^ name)) stage_names
let c_sampled = Metrics.counter ~registry "sampled"
let c_completed = Metrics.counter ~registry "completed"
let c_dropped = Metrics.counter ~registry "dropped"

(* One wall-clock time-series cell: operations whose completion fell in
   the same bucket of [ts_bucket_ns]. *)
type tsb = {
  mutable b_ops : int;
  mutable b_sum : float;
  mutable b_max : float;
  b_stage : float array;
}

let reservoir_cap = 128
let ts_bucket_ns = 1e8 (* 100 ms *)

(* Leaf mutex: taken inside the group-commit mutex by the committer
   hooks, never the other way around. *)
let mutex = Mutex.create ()
let inflight : (int, ticket) Hashtbl.t = Hashtbl.create 64
let reservoir = Array.make reservoir_cap (new_ticket 0.)
let res_seen = ref 0 (* tickets offered; the first [min res_seen reservoir_cap] are live *)
let rng = Random.State.make [| 0x09a7 |]
let timeseries : (int, tsb) Hashtbl.t = Hashtbl.create 16

let on = Atomic.make false
let sample_every = Atomic.make 32
let ts_origin = Atomic.make 0.

(* One 1-in-N counter per probe, shared by every calling domain. *)
let op_calls = Atomic.make 0
let mailbox_calls = Atomic.make 0

let enabled () = Atomic.get on

let set_enabled v =
  if v && not (Atomic.get on) then Atomic.set ts_origin (Span.now_ns ());
  Atomic.set on v

let set_sample_every n =
  if n < 1 then invalid_arg "Oplat.set_sample_every: need n >= 1";
  Atomic.set sample_every n

(* ---- recording: client/owner edges ---------------------------------- *)

let sample () =
  if Atomic.get on && Atomic.fetch_and_add op_calls 1 mod Atomic.get sample_every = 0 then begin
    Metrics.incr c_sampled;
    Some (new_ticket (Span.now_ns ()))
  end
  else None

let stamp_dequeue tk ~shard =
  tk.t_dequeue <- Span.now_ns ();
  tk.t_shard <- shard

let stamp_apply tk = tk.t_apply <- Span.now_ns ()

(* ---- finalization (caller holds [mutex]) ----------------------------- *)

let fold tk =
  let d = durations tk in
  let e = e2e_ns tk in
  let dom = ref 0 and dmax = ref neg_infinity in
  Array.iteri
    (fun i v ->
      if v >= 0. then begin
        Metrics.observe h_stage.(i) v;
        if v > !dmax then begin
          dmax := v;
          dom := i
        end
      end)
    d;
  Metrics.observe h_e2e e;
  Metrics.observe h_dominant.(!dom) e;
  Metrics.incr c_completed;
  (* Algorithm R: every completed ticket has probability cap/seen of
     being in the reservoir, so exported full traces are an unbiased
     sample of the run, stalls included. *)
  incr res_seen;
  let j = if !res_seen <= reservoir_cap then !res_seen - 1 else Random.State.int rng !res_seen in
  if j < reservoir_cap then reservoir.(j) <- tk;
  let b = int_of_float ((end_ns tk -. Atomic.get ts_origin) /. ts_bucket_ns) in
  let cell =
    match Hashtbl.find_opt timeseries b with
    | Some c -> c
    | None ->
      let c = { b_ops = 0; b_sum = 0.; b_max = 0.; b_stage = Array.make n_stages 0. } in
      Hashtbl.add timeseries b c;
      c
  in
  cell.b_ops <- cell.b_ops + 1;
  cell.b_sum <- cell.b_sum +. e;
  if e > cell.b_max then cell.b_max <- e;
  Array.iteri (fun i v -> if v > 0. then cell.b_stage.(i) <- cell.b_stage.(i) +. v) d

(* ---- recording: committer edges (LSN-keyed) ------------------------- *)

let register tk ~lsn ~durable =
  tk.t_lsn <- lsn;
  tk.t_durable <- durable;
  Mutex.lock mutex;
  Hashtbl.replace inflight lsn tk;
  Mutex.unlock mutex

let wal_staged ~lsn =
  if Atomic.get on then begin
    Mutex.lock mutex;
    (match Hashtbl.find_opt inflight lsn with
    | Some tk when tk.t_stage = 0. -> tk.t_stage <- Span.now_ns ()
    | _ -> ());
    Mutex.unlock mutex
  end

let batch_admitted ~upto =
  if Atomic.get on then begin
    Mutex.lock mutex;
    let t = Span.now_ns () in
    Hashtbl.iter
      (fun lsn tk -> if lsn <= upto && tk.t_batch = 0. then tk.t_batch <- t)
      inflight;
    Mutex.unlock mutex
  end

(* Stamp the tickets covered by [upto] and fold the finished ones out of
   the table; eventually-durable tickets complete at the force, durable
   ones wait for their ack. *)
let complete ~upto ~ack =
  Mutex.lock mutex;
  let t = Span.now_ns () in
  Hashtbl.filter_map_inplace
    (fun lsn tk ->
      if lsn > upto then Some tk
      else begin
        if ack && tk.t_ack = 0. then tk.t_ack <- t;
        if (not ack) && tk.t_force = 0. then tk.t_force <- t;
        if tk.t_durable = ack then begin
          fold tk;
          None
        end
        else Some tk
      end)
    inflight;
  Mutex.unlock mutex

let force_completed ~upto = if Atomic.get on then complete ~upto ~ack:false
let acked ~upto = if Atomic.get on then complete ~upto ~ack:true

(* Stragglers at a sync/close (e.g. durable tickets whose barrier
   horizon exceeded their own LSN): account them with the edges they
   have rather than leak them. *)
let drain () =
  if Hashtbl.length inflight > 0 then begin
    Mutex.lock mutex;
    Hashtbl.iter (fun _ tk -> fold tk) inflight;
    Hashtbl.reset inflight;
    Mutex.unlock mutex
  end

(* A crash loses staged-but-unforced operations; their tickets are
   dropped, counted, and never folded into the latency statistics. *)
let drop_inflight () =
  Mutex.lock mutex;
  Metrics.add c_dropped (Hashtbl.length inflight);
  Hashtbl.reset inflight;
  Mutex.unlock mutex

(* ---- recording: mailbox dwell --------------------------------------- *)

let mailbox_sample () =
  Atomic.get on && Atomic.fetch_and_add mailbox_calls 1 mod Atomic.get sample_every = 0

let mailbox_dwell ns =
  if Atomic.get on then begin
    Mutex.lock mutex;
    Metrics.observe h_dwell ns;
    Mutex.unlock mutex
  end

(* ---- recovery window ------------------------------------------------- *)

(* Registered in the default registry, so every `redo stats` dump
   carries it: the CAS-armed first-op stamp doubles as the
   time-to-first-op gauge. *)
let g_ttfo = Metrics.gauge "restart.time_to_first_op_ns"

(* Under [mutex]; [0.] = not stamped. *)
let rv_start = ref 0.
let rv_finish = ref 0.
let first_op_at = ref 0.
let first_op_armed = Atomic.make false

let recovery_start () =
  Mutex.lock mutex;
  rv_start := Span.now_ns ();
  rv_finish := 0.;
  first_op_at := 0.;
  Mutex.unlock mutex;
  Metrics.set g_ttfo 0.;
  Atomic.set first_op_armed true

(* Idempotent: the last lazy drains of an instant restart can race to
   report the recovered set total, and the first report closes the
   window. *)
let recovery_finished () =
  Mutex.lock mutex;
  if !rv_start > 0. && !rv_finish = 0. then rv_finish := Span.now_ns ();
  Mutex.unlock mutex

let first_op () =
  if Atomic.get first_op_armed && Atomic.compare_and_set first_op_armed true false then begin
    let now = Span.now_ns () in
    Mutex.lock mutex;
    first_op_at := now;
    Metrics.set g_ttfo (now -. !rv_start);
    Mutex.unlock mutex
  end

(* ---- reset ----------------------------------------------------------- *)

let reset () =
  Mutex.lock mutex;
  Metrics.reset ~registry ();
  Hashtbl.reset inflight;
  res_seen := 0;
  Hashtbl.reset timeseries;
  rv_start := 0.;
  rv_finish := 0.;
  first_op_at := 0.;
  Mutex.unlock mutex;
  Atomic.set op_calls 0;
  Atomic.set mailbox_calls 0;
  Atomic.set first_op_armed false;
  Atomic.set ts_origin (Span.now_ns ())

(* ---- reporting ------------------------------------------------------- *)

type stage_view = {
  sv_name : string;
  sv_events : int;
  sv_mean_ns : float;
  sv_p50_ns : float;
  sv_p99_ns : float;
  sv_p999_ns : float;
  sv_max_ns : float;
  sv_sum_ns : float;
}

type recovery_view = {
  rv_elapsed_ns : float;
  rv_finished : bool;
  rv_first_op_ns : float option;  (* first post-recovery op, from recovery start *)
}

type report = {
  r_sampled : int;
  r_completed : int;
  r_dropped : int;
  r_stages : stage_view list;
  r_e2e : stage_view;
  r_dwell : stage_view;
  r_coverage : float;  (* sum of stage sums / end-to-end sum *)
  r_tail_pct : float;
  r_tail_threshold_ns : float;
  r_tail_total : int;
  r_tail : (string * int) list;  (* dominant stage -> ops beyond the percentile *)
  r_recovery : recovery_view option;
}

let view_of name h =
  let pct = Metrics.percentile_interp h in
  {
    sv_name = name;
    sv_events = Metrics.events h;
    sv_mean_ns = Metrics.mean h;
    sv_p50_ns = pct 50.;
    sv_p99_ns = pct 99.;
    sv_p999_ns = pct 99.9;
    sv_max_ns = Metrics.max h;
    sv_sum_ns = Metrics.mean h *. float (Metrics.events h);
  }

let recovery_view () =
  if !rv_start = 0. then None
  else begin
    let finished = !rv_finish > 0. in
    Some
      {
        rv_elapsed_ns = (if finished then !rv_finish else Span.now_ns ()) -. !rv_start;
        rv_finished = finished;
        rv_first_op_ns = (if !first_op_at > 0. then Some (!first_op_at -. !rv_start) else None);
      }
  end

(* Tail attribution covers the ops beyond the end-to-end p99. *)
let tail_pct = 99.

(* Tail attribution at bucket resolution: ops whose end-to-end bucket
   lies strictly beyond the bucket holding the [tail_pct] rank, split
   by their dominant stage. [Metrics.percentile] is that bucket's upper
   bound (the maximum when it is the overflow bucket), so the tail is
   every bucket whose lower bound reaches it. *)
let tail () =
  let edge = Metrics.percentile h_e2e tail_pct in
  let beyond h =
    let c = ref 0 in
    Array.iteri
      (fun j n -> if j > 0 && bounds.(j - 1) >= edge then c := !c + n)
      (Metrics.bucket_counts h);
    !c
  in
  List.init n_stages (fun i -> stage_names.(i), beyond h_dominant.(i))
  |> List.filter (fun (_, c) -> c > 0)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let report () =
  Mutex.lock mutex;
  let stages = Array.to_list (Array.mapi (fun i h -> view_of stage_names.(i) h) h_stage) in
  let e2e = view_of "end-to-end" h_e2e in
  let coverage =
    if e2e.sv_sum_ns > 0. then
      List.fold_left (fun acc sv -> acc +. sv.sv_sum_ns) 0. stages /. e2e.sv_sum_ns
    else 1.
  in
  let tail = tail () in
  let r =
    {
      r_sampled = Metrics.count c_sampled;
      r_completed = Metrics.count c_completed;
      r_dropped = Metrics.count c_dropped;
      r_stages = stages;
      r_e2e = e2e;
      r_dwell = view_of "mailbox.dwell" h_dwell;
      r_coverage = coverage;
      r_tail_pct = tail_pct;
      r_tail_threshold_ns = Metrics.percentile_interp h_e2e tail_pct;
      r_tail_total = List.fold_left (fun acc (_, c) -> acc + c) 0 tail;
      r_tail = tail;
      r_recovery = recovery_view ();
    }
  in
  Mutex.unlock mutex;
  r

(* ---- rendering ------------------------------------------------------- *)

let pp_stage ppf sv =
  Fmt.pf ppf "%-12s %8d %11.0f %11.0f %11.0f %11.0f %11.0f" sv.sv_name sv.sv_events
    sv.sv_mean_ns sv.sv_p50_ns sv.sv_p99_ns sv.sv_p999_ns sv.sv_max_ns

let pp ppf r =
  Fmt.pf ppf "@[<v>oplat: %d sampled, %d completed, %d dropped with a crash" r.r_sampled
    r.r_completed r.r_dropped;
  Fmt.pf ppf "@,%-12s %8s %11s %11s %11s %11s %11s" "stage" "events" "mean" "p50" "p99"
    "p999" "max";
  List.iter (fun sv -> Fmt.pf ppf "@,%a" pp_stage sv) r.r_stages;
  Fmt.pf ppf "@,%a" pp_stage r.r_e2e;
  Fmt.pf ppf "@,coverage: stage sums account for %.1f%% of end-to-end latency"
    (100. *. r.r_coverage);
  if r.r_tail = [] then Fmt.pf ppf "@,tail: no ops beyond p%g" r.r_tail_pct
  else begin
    Fmt.pf ppf "@,tail (beyond p%g = %.0f ns): %d op%s, dominant stage:" r.r_tail_pct
      r.r_tail_threshold_ns r.r_tail_total
      (if r.r_tail_total = 1 then "" else "s");
    List.iter
      (fun (name, c) ->
        Fmt.pf ppf "@,  %-8s %6d (%.0f%%)" name c
          (100. *. float c /. float (max 1 r.r_tail_total)))
      r.r_tail
  end;
  if r.r_dwell.sv_events > 0 then Fmt.pf ppf "@,%a" pp_stage r.r_dwell;
  (match r.r_recovery with
  | None -> ()
  | Some rv ->
    Fmt.pf ppf "@,recovery: %s in %.2f ms%a"
      (if rv.rv_finished then "replayed" else "replaying")
      (rv.rv_elapsed_ns /. 1e6)
      (fun ppf -> function
        | Some fo -> Fmt.pf ppf "; first op %.2f ms after recovery start" (fo /. 1e6)
        | None -> ())
      rv.rv_first_op_ns);
  Fmt.pf ppf "@]"

let stage_json sv =
  let num = Span.json_float in
  Printf.sprintf
    "{\"events\": %d, \"mean_ns\": %s, \"p50_ns\": %s, \"p99_ns\": %s, \"p999_ns\": %s, \
     \"max_ns\": %s, \"sum_ns\": %s}"
    sv.sv_events (num sv.sv_mean_ns) (num sv.sv_p50_ns) (num sv.sv_p99_ns)
    (num sv.sv_p999_ns) (num sv.sv_max_ns) (num sv.sv_sum_ns)

let to_json r =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf "{\"sampled\": %d, \"completed\": %d, \"dropped\": %d" r.r_sampled
       r.r_completed r.r_dropped);
  add (Printf.sprintf ", \"coverage\": %s" (Span.json_float r.r_coverage));
  add (Printf.sprintf ", \"e2e\": %s" (stage_json r.r_e2e));
  add ", \"stages\": {";
  List.iteri
    (fun i sv ->
      if i > 0 then add ", ";
      add (Printf.sprintf "%s: %s" (Span.json_string sv.sv_name) (stage_json sv)))
    r.r_stages;
  add "}";
  add (Printf.sprintf ", \"mailbox_dwell\": %s" (stage_json r.r_dwell));
  add
    (Printf.sprintf ", \"tail\": {\"pct\": %s, \"threshold_ns\": %s, \"total\": %d, \"by_stage\": {"
       (Span.json_float r.r_tail_pct)
       (Span.json_float r.r_tail_threshold_ns)
       r.r_tail_total);
  List.iteri
    (fun i (name, c) ->
      if i > 0 then add ", ";
      add (Printf.sprintf "%s: %d" (Span.json_string name) c))
    r.r_tail;
  add "}}";
  (match r.r_recovery with
  | None -> add ", \"recovery\": null"
  | Some rv ->
    add
      (Printf.sprintf ", \"recovery\": {\"elapsed_ns\": %s, \"finished\": %b, \"first_op_ns\": %s}"
         (Span.json_float rv.rv_elapsed_ns) rv.rv_finished
         (match rv.rv_first_op_ns with Some v -> Span.json_float v | None -> "null")));
  add "}";
  Buffer.contents buf

(* ---- wall-clock time series ------------------------------------------ *)

let timeseries_jsonl () =
  let bucket_ms = ts_bucket_ns /. 1e6 in
  let buf = Buffer.create 1024 in
  Mutex.lock mutex;
  let keys = Hashtbl.fold (fun k _ l -> k :: l) timeseries [] |> List.sort compare in
  List.iter
    (fun b ->
      let cell = Hashtbl.find timeseries b in
      Buffer.add_string buf
        (Printf.sprintf "{\"t_ms\": %s, \"ops\": %d, \"mean_ns\": %s, \"max_ns\": %s"
           (Span.json_float (float b *. bucket_ms))
           cell.b_ops
           (Span.json_float (if cell.b_ops = 0 then 0. else cell.b_sum /. float cell.b_ops))
           (Span.json_float cell.b_max));
      Buffer.add_string buf ", \"stages_ns\": {";
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "%s: %s" (Span.json_string stage_names.(i)) (Span.json_float v)))
        cell.b_stage;
      Buffer.add_string buf "}}\n")
    keys;
  Mutex.unlock mutex;
  Buffer.contents buf

(* ---- Chrome-trace export --------------------------------------------- *)

let traces () =
  Mutex.lock mutex;
  let tks = Array.to_list (Array.sub reservoir 0 (min !res_seen reservoir_cap)) in
  Mutex.unlock mutex;
  List.sort (fun x y -> Float.compare x.t_post y.t_post) tks

let trace_count () = List.length (traces ())

(* One parent "op" span per reservoir ticket, with one child span per
   present stage — the same trace_event shape the Span profiler
   exports, so both open in the same Perfetto view. Each ticket gets
   its own track: concurrent ops overlap in time, and Chrome renders
   one nesting stack per track, so sharing a track by shard would
   interleave unrelated ops. The owning shard rides in the attrs. *)
let chrome_json () =
  let tks = traces () in
  let spans =
    List.concat
      (List.mapi
         (fun i tk ->
           let base = (i * (n_stages + 1)) + 1 in
           let dom = i in
           let parent =
             Span.of_parts ~id:base ~parent:0 ~domain:dom ~name:"op" ~start_ns:tk.t_post
               ~end_ns:(end_ns tk)
               ~attrs:
                 [
                   ("lsn", Span.Int tk.t_lsn);
                   ("shard", Span.Int tk.t_shard);
                   ("durable", Span.Bool tk.t_durable);
                 ]
           in
           let e = edges tk in
           let children = ref [] and last = ref e.(0) and k = ref 0 in
           for j = 1 to n_stages do
             if e.(j) > 0. then begin
               incr k;
               children :=
                 Span.of_parts ~id:(base + !k) ~parent:base ~domain:dom
                   ~name:("op." ^ stage_names.(j - 1))
                   ~start_ns:!last ~end_ns:e.(j) ~attrs:[]
                 :: !children;
               last := e.(j)
             end
           done;
           parent :: List.rev !children)
         tks)
  in
  Span.chrome_json spans
