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
   - completed tickets are folded into the *finalizing* domain's
     Domain.DLS accumulator (the Span buffer discipline: plain
     mutations, no synchronisation, buffers register themselves once so
     collection can find them later). Each accumulator is written only
     by its own domain.

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

(* ---- per-domain accumulators ---------------------------------------- *)

(* One shared bound array (6 buckets per decade, 100 ns .. 10 s — fine
   enough that an interpolated p999 is meaningful), per-domain bucket
   tallies. These are local accumulators, not registry histograms: a
   registry lookup by name returns one shared single-writer instance,
   which is exactly what concurrent recording domains must not share. *)
let bounds = Metrics.log_scale ~per_decade:6 ~lo:100. ~hi:1e10 ()
let nbuckets = Array.length bounds + 1

type hist = {
  mutable hn : int;
  mutable hsum : float;
  mutable hmax : float;
  hb : int array;
}

let new_hist () = { hn = 0; hsum = 0.; hmax = 0.; hb = Array.make nbuckets 0 }

let bucket_of v =
  let lo = ref 0 and hi = ref (Array.length bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let h_observe h v =
  let i = bucket_of v in
  h.hb.(i) <- h.hb.(i) + 1;
  h.hn <- h.hn + 1;
  h.hsum <- h.hsum +. v;
  if v > h.hmax then h.hmax <- v

let h_clear h =
  h.hn <- 0;
  h.hsum <- 0.;
  h.hmax <- 0.;
  Array.fill h.hb 0 nbuckets 0

(* One wall-clock time-series cell: operations whose completion fell in
   the same bucket of [ts_bucket_ns]. *)
type tsb = {
  mutable b_ops : int;
  mutable b_sum : float;
  mutable b_max : float;
  b_stage : float array;
}

type acc = {
  a_domain : int;
  a_stage : hist array;  (* one per stage *)
  a_e2e : hist;
  a_dwell : hist;  (* generic mailbox dwell (Mailbox.post wrap) *)
  a_attr : int array array;  (* dominant stage x e2e bucket *)
  mutable a_res : ticket array;  (* reservoir of completed tickets *)
  mutable a_res_len : int;
  mutable a_res_seen : int;
  a_rng : Random.State.t;
  a_ts : (int, tsb) Hashtbl.t;
  mutable a_sampled : int;
  mutable a_completed : int;
  mutable a_skip : int;  (* 1-in-N countdown for operation tickets *)
  mutable a_mb_skip : int;  (* 1-in-N countdown for mailbox dwell *)
}

let on = Atomic.make false
let sample_every = Atomic.make 32
let reservoir_cap = Atomic.make 128
let ts_bucket_ns = 1e8 (* 100 ms *)
let ts_origin = Atomic.make 0.
let dropped = Atomic.make 0

let accs_mutex = Mutex.create ()
let accs : acc list ref = ref []

let acc_key =
  Domain.DLS.new_key (fun () ->
      let id = (Domain.self () :> int) in
      let a =
        {
          a_domain = id;
          a_stage = Array.init n_stages (fun _ -> new_hist ());
          a_e2e = new_hist ();
          a_dwell = new_hist ();
          a_attr = Array.make_matrix n_stages nbuckets 0;
          a_res = [||];
          a_res_len = 0;
          a_res_seen = 0;
          a_rng = Random.State.make [| 0x09a7; id |];
          a_ts = Hashtbl.create 16;
          a_sampled = 0;
          a_completed = 0;
          a_skip = 1;
          a_mb_skip = 1;
        }
      in
      Mutex.lock accs_mutex;
      accs := a :: !accs;
      Mutex.unlock accs_mutex;
      a)

let enabled () = Atomic.get on

let set_enabled v =
  if v && not (Atomic.get on) then Atomic.set ts_origin (Span.now_ns ());
  Atomic.set on v

let set_sample_every n =
  if n < 1 then invalid_arg "Oplat.set_sample_every: need n >= 1";
  Atomic.set sample_every n

let set_reservoir n =
  if n < 1 then invalid_arg "Oplat.set_reservoir: need n >= 1";
  Atomic.set reservoir_cap n

(* ---- recording: client/owner edges ---------------------------------- *)

let sample () =
  if not (Atomic.get on) then None
  else begin
    let a = Domain.DLS.get acc_key in
    a.a_skip <- a.a_skip - 1;
    if a.a_skip > 0 then None
    else begin
      a.a_skip <- Atomic.get sample_every;
      a.a_sampled <- a.a_sampled + 1;
      Some
        {
          t_post = Span.now_ns ();
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
    end
  end

let stamp_dequeue tk ~shard =
  tk.t_dequeue <- Span.now_ns ();
  tk.t_shard <- shard

let stamp_apply tk = tk.t_apply <- Span.now_ns ()

(* ---- finalization into the current domain's accumulator ------------- *)

let finalize a tk =
  let d = durations tk in
  let e = e2e_ns tk in
  let dom = ref 0 and dmax = ref neg_infinity in
  Array.iteri
    (fun i v ->
      if v >= 0. then begin
        h_observe a.a_stage.(i) v;
        if v > !dmax then begin
          dmax := v;
          dom := i
        end
      end)
    d;
  h_observe a.a_e2e e;
  let eb = bucket_of e in
  a.a_attr.(!dom).(eb) <- a.a_attr.(!dom).(eb) + 1;
  (* Algorithm R: every completed ticket has probability cap/seen of
     being in the reservoir, so exported full traces are an unbiased
     sample of the run, stalls included. *)
  a.a_res_seen <- a.a_res_seen + 1;
  let cap = Atomic.get reservoir_cap in
  if a.a_res_len < cap then begin
    if Array.length a.a_res <= a.a_res_len then begin
      let grown = Array.make (max 16 (2 * (a.a_res_len + 1))) tk in
      Array.blit a.a_res 0 grown 0 a.a_res_len;
      a.a_res <- grown
    end;
    a.a_res.(a.a_res_len) <- tk;
    a.a_res_len <- a.a_res_len + 1
  end
  else begin
    let j = Random.State.int a.a_rng a.a_res_seen in
    if j < cap then a.a_res.(j) <- tk
  end;
  let b = int_of_float ((end_ns tk -. Atomic.get ts_origin) /. ts_bucket_ns) in
  let cell =
    match Hashtbl.find_opt a.a_ts b with
    | Some c -> c
    | None ->
      let c = { b_ops = 0; b_sum = 0.; b_max = 0.; b_stage = Array.make n_stages 0. } in
      Hashtbl.add a.a_ts b c;
      c
  in
  cell.b_ops <- cell.b_ops + 1;
  cell.b_sum <- cell.b_sum +. e;
  if e > cell.b_max then cell.b_max <- e;
  Array.iteri (fun i v -> if v > 0. then cell.b_stage.(i) <- cell.b_stage.(i) +. v) d;
  a.a_completed <- a.a_completed + 1

(* ---- recording: committer edges (LSN-keyed) ------------------------- *)

(* Leaf mutex: taken inside the group-commit mutex by the hooks below,
   never the other way around. *)
let infl_mutex = Mutex.create ()
let inflight : (int, ticket) Hashtbl.t = Hashtbl.create 64

let register tk ~lsn ~durable =
  tk.t_lsn <- lsn;
  tk.t_durable <- durable;
  Mutex.lock infl_mutex;
  Hashtbl.replace inflight lsn tk;
  Mutex.unlock infl_mutex

let wal_staged ~lsn =
  if Atomic.get on then begin
    Mutex.lock infl_mutex;
    (match Hashtbl.find_opt inflight lsn with
    | Some tk when tk.t_stage = 0. -> tk.t_stage <- Span.now_ns ()
    | _ -> ());
    Mutex.unlock infl_mutex
  end

let batch_admitted ~upto =
  if Atomic.get on then begin
    Mutex.lock infl_mutex;
    let t = Span.now_ns () in
    Hashtbl.iter
      (fun lsn tk -> if lsn <= upto && tk.t_batch = 0. then tk.t_batch <- t)
      inflight;
    Mutex.unlock infl_mutex
  end

(* Stamp + collect tickets covered by [upto]; eventually-durable
   tickets complete at the force, durable ones wait for their ack. *)
let complete ~upto ~ack =
  Mutex.lock infl_mutex;
  let t = Span.now_ns () in
  let finished = ref [] in
  Hashtbl.iter
    (fun lsn tk ->
      if lsn <= upto then
        if ack then begin
          if tk.t_ack = 0. then tk.t_ack <- t;
          if tk.t_durable then finished := tk :: !finished
        end
        else begin
          if tk.t_force = 0. then tk.t_force <- t;
          if not tk.t_durable then finished := tk :: !finished
        end)
    inflight;
  List.iter (fun tk -> Hashtbl.remove inflight tk.t_lsn) !finished;
  Mutex.unlock infl_mutex;
  match !finished with
  | [] -> ()
  | tks ->
    let a = Domain.DLS.get acc_key in
    List.iter (finalize a) tks

let force_completed ~upto = if Atomic.get on then complete ~upto ~ack:false
let acked ~upto = if Atomic.get on then complete ~upto ~ack:true

(* Stragglers at a sync/close (e.g. durable tickets whose barrier
   horizon exceeded their own LSN): account them with the edges they
   have rather than leak them. *)
let drain () =
  let rest =
    if Hashtbl.length inflight = 0 then []
    else begin
      Mutex.lock infl_mutex;
      let tks = Hashtbl.fold (fun _ tk l -> tk :: l) inflight [] in
      Hashtbl.reset inflight;
      Mutex.unlock infl_mutex;
      tks
    end
  in
  match rest with
  | [] -> ()
  | tks ->
    let a = Domain.DLS.get acc_key in
    List.iter (finalize a) tks

(* A crash loses staged-but-unforced operations; their tickets are
   dropped, counted, and never folded into the latency statistics. *)
let drop_inflight () =
  Mutex.lock infl_mutex;
  let n = Hashtbl.length inflight in
  Hashtbl.reset inflight;
  Mutex.unlock infl_mutex;
  ignore (Atomic.fetch_and_add dropped n)

(* ---- recording: mailbox dwell --------------------------------------- *)

let mailbox_sample () =
  Atomic.get on
  && begin
       let a = Domain.DLS.get acc_key in
       a.a_mb_skip <- a.a_mb_skip - 1;
       if a.a_mb_skip > 0 then false
       else begin
         a.a_mb_skip <- Atomic.get sample_every;
         true
       end
     end

let mailbox_dwell ns = if Atomic.get on then h_observe (Domain.DLS.get acc_key).a_dwell ns

(* ---- recovery progress ---------------------------------------------- *)

(* Per-shard replay cursors, readable mid-recovery from any domain: the
   substrate the "instant restart" open item needs — time-to-first-op
   (the service answering again) vs time-to-full-recovery (the tail
   fully replayed). *)
type recovery_state = {
  mutable rv_start : float;
  mutable rv_done : float;  (* 0. until finished *)
  rv_replayed : int Atomic.t array;
  rv_remaining : int Atomic.t array;
  rv_pending : int Atomic.t array;  (* instant restart: pages not yet drained *)
}

(* Instant-restart metrics, registered here so every `redo stats` dump
   carries them: the pending-page gauge tracks the lazy frontier, and
   the CAS-armed first-op stamp doubles as the time-to-first-op gauge. *)
let g_pending_pages = Metrics.gauge "restart.pending_pages"
let g_ttfo = Metrics.gauge "restart.time_to_first_op_ns"

let rec_mutex = Mutex.create ()
let recovery_st : recovery_state option ref = ref None
let first_op_armed = Atomic.make false
let first_op_at = Atomic.make 0.

let recovery_start ~shards =
  Mutex.lock rec_mutex;
  recovery_st :=
    Some
      {
        rv_start = Span.now_ns ();
        rv_done = 0.;
        rv_replayed = Array.init shards (fun _ -> Atomic.make 0);
        rv_remaining = Array.init shards (fun _ -> Atomic.make 0);
        rv_pending = Array.init shards (fun _ -> Atomic.make 0);
      };
  Mutex.unlock rec_mutex;
  Metrics.set g_pending_pages 0.;
  Metrics.set g_ttfo 0.;
  Atomic.set first_op_at 0.;
  Atomic.set first_op_armed true

let recovery_progress ~shard ~replayed ~remaining =
  Mutex.lock rec_mutex;
  (match !recovery_st with
  | Some rv when shard >= 0 && shard < Array.length rv.rv_replayed ->
    Atomic.set rv.rv_replayed.(shard) replayed;
    Atomic.set rv.rv_remaining.(shard) remaining
  | _ -> ());
  Mutex.unlock rec_mutex

let recovery_pending ~shard ~pages =
  Mutex.lock rec_mutex;
  (match !recovery_st with
  | Some rv when shard >= 0 && shard < Array.length rv.rv_pending ->
    Atomic.set rv.rv_pending.(shard) pages;
    Metrics.set g_pending_pages
      (float (Array.fold_left (fun acc a -> acc + Atomic.get a) 0 rv.rv_pending))
  | _ -> ());
  Mutex.unlock rec_mutex

let recovery_finished () =
  Mutex.lock rec_mutex;
  (match !recovery_st with Some rv -> rv.rv_done <- Span.now_ns () | None -> ());
  Mutex.unlock rec_mutex

let first_op () =
  if Atomic.get first_op_armed && Atomic.compare_and_set first_op_armed true false then begin
    let now = Span.now_ns () in
    Atomic.set first_op_at now;
    Mutex.lock rec_mutex;
    (match !recovery_st with
    | Some rv -> Metrics.set g_ttfo (now -. rv.rv_start)
    | None -> ());
    Mutex.unlock rec_mutex
  end

(* ---- reset ----------------------------------------------------------- *)

let reset () =
  Mutex.lock accs_mutex;
  List.iter
    (fun a ->
      Array.iter h_clear a.a_stage;
      h_clear a.a_e2e;
      h_clear a.a_dwell;
      Array.iter (fun row -> Array.fill row 0 nbuckets 0) a.a_attr;
      a.a_res_len <- 0;
      a.a_res_seen <- 0;
      Hashtbl.reset a.a_ts;
      a.a_sampled <- 0;
      a.a_completed <- 0;
      a.a_skip <- 1;
      a.a_mb_skip <- 1)
    !accs;
  Mutex.unlock accs_mutex;
  Mutex.lock infl_mutex;
  Hashtbl.reset inflight;
  Mutex.unlock infl_mutex;
  Atomic.set dropped 0;
  Mutex.lock rec_mutex;
  recovery_st := None;
  Mutex.unlock rec_mutex;
  Atomic.set first_op_armed false;
  Atomic.set first_op_at 0.;
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

type shard_progress = {
  rp_shard : int;
  rp_replayed : int;
  rp_remaining : int;
  rp_pending_pages : int;
}

type recovery_view = {
  rv_elapsed_ns : float;
  rv_finished : bool;
  rv_first_op_ns : float option;  (* first post-recovery op, from recovery start *)
  rv_shards : shard_progress list;
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

let merge_into dst src =
  dst.hn <- dst.hn + src.hn;
  dst.hsum <- dst.hsum +. src.hsum;
  if src.hmax > dst.hmax then dst.hmax <- src.hmax;
  Array.iteri (fun i c -> dst.hb.(i) <- dst.hb.(i) + c) src.hb

let view_of name h =
  let pct p =
    Metrics.percentile_of_buckets ~bounds ~buckets:h.hb ~events:h.hn ~max:h.hmax p
  in
  {
    sv_name = name;
    sv_events = h.hn;
    sv_mean_ns = (if h.hn = 0 then 0. else h.hsum /. float h.hn);
    sv_p50_ns = pct 50.;
    sv_p99_ns = pct 99.;
    sv_p999_ns = pct 99.9;
    sv_max_ns = h.hmax;
    sv_sum_ns = h.hsum;
  }

let snapshot_accs () =
  Mutex.lock accs_mutex;
  let l = !accs in
  Mutex.unlock accs_mutex;
  l

let recovery_report () =
  Mutex.lock rec_mutex;
  let v =
    match !recovery_st with
    | None -> None
    | Some rv ->
      let finished = rv.rv_done > 0. in
      let fo = Atomic.get first_op_at in
      Some
        {
          rv_elapsed_ns = (if finished then rv.rv_done else Span.now_ns ()) -. rv.rv_start;
          rv_finished = finished;
          rv_first_op_ns = (if fo > 0. then Some (fo -. rv.rv_start) else None);
          rv_shards =
            Array.to_list
              (Array.mapi
                 (fun i r ->
                   {
                     rp_shard = i;
                     rp_replayed = Atomic.get r;
                     rp_remaining = Atomic.get rv.rv_remaining.(i);
                     rp_pending_pages = Atomic.get rv.rv_pending.(i);
                   })
                 rv.rv_replayed);
        }
  in
  Mutex.unlock rec_mutex;
  v

(* Tail attribution covers the ops beyond the end-to-end p99. *)
let tail_pct = 99.

let report () =
  let accs_l = snapshot_accs () in
  let stage_h = Array.init n_stages (fun _ -> new_hist ()) in
  let e2e_h = new_hist () and dwell_h = new_hist () in
  let attr = Array.make_matrix n_stages nbuckets 0 in
  let sampled = ref 0 and completed = ref 0 in
  List.iter
    (fun a ->
      sampled := !sampled + a.a_sampled;
      completed := !completed + a.a_completed;
      for i = 0 to n_stages - 1 do
        merge_into stage_h.(i) a.a_stage.(i)
      done;
      merge_into e2e_h a.a_e2e;
      merge_into dwell_h a.a_dwell;
      for i = 0 to n_stages - 1 do
        for j = 0 to nbuckets - 1 do
          attr.(i).(j) <- attr.(i).(j) + a.a_attr.(i).(j)
        done
      done)
    accs_l;
  let stages = Array.to_list (Array.mapi (fun i h -> view_of stage_names.(i) h) stage_h) in
  let e2e = view_of "end-to-end" e2e_h in
  let coverage =
    if e2e.sv_sum_ns > 0. then
      List.fold_left (fun acc sv -> acc +. sv.sv_sum_ns) 0. stages /. e2e.sv_sum_ns
    else 1.
  in
  (* Tail attribution at bucket resolution: ops whose end-to-end bucket
     lies strictly beyond the bucket holding the [tail_pct] rank, split
     by their dominant stage. *)
  let tail_bucket =
    if e2e_h.hn = 0 then nbuckets
    else begin
      let rank = max 1 (int_of_float (ceil (tail_pct /. 100. *. float e2e_h.hn))) in
      let b = ref (nbuckets - 1) and cum = ref 0 and i = ref 0 in
      while !i < nbuckets do
        cum := !cum + e2e_h.hb.(!i);
        if !cum >= rank then begin
          b := !i;
          i := nbuckets
        end
        else incr i
      done;
      !b
    end
  in
  let tail =
    List.init n_stages (fun i ->
        let c = ref 0 in
        for j = tail_bucket + 1 to nbuckets - 1 do
          c := !c + attr.(i).(j)
        done;
        (stage_names.(i), !c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let threshold =
    Metrics.percentile_of_buckets ~bounds ~buckets:e2e_h.hb ~events:e2e_h.hn
      ~max:e2e_h.hmax tail_pct
  in
  {
    r_sampled = !sampled;
    r_completed = !completed;
    r_dropped = Atomic.get dropped;
    r_stages = stages;
    r_e2e = e2e;
    r_dwell = view_of "mailbox.dwell" dwell_h;
    r_coverage = coverage;
    r_tail_pct = tail_pct;
    r_tail_threshold_ns = threshold;
    r_tail_total = List.fold_left (fun acc (_, c) -> acc + c) 0 tail;
    r_tail = tail;
    r_recovery = recovery_report ();
  }

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
      rv.rv_first_op_ns;
    let pending = List.fold_left (fun acc sp -> acc + sp.rp_pending_pages) 0 rv.rv_shards in
    if pending > 0 || not rv.rv_finished then
      Fmt.pf ppf "; %d page%s pending lazy redo" pending (if pending = 1 then "" else "s");
    List.iter
      (fun sp ->
        Fmt.pf ppf "@,  shard %d: %d replayed, %d remaining, %d pages pending" sp.rp_shard
          sp.rp_replayed sp.rp_remaining sp.rp_pending_pages)
      rv.rv_shards);
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
      (Printf.sprintf
         ", \"recovery\": {\"elapsed_ns\": %s, \"finished\": %b, \"first_op_ns\": %s, \
          \"shards\": ["
         (Span.json_float rv.rv_elapsed_ns) rv.rv_finished
         (match rv.rv_first_op_ns with Some v -> Span.json_float v | None -> "null"));
    List.iteri
      (fun i sp ->
        if i > 0 then add ", ";
        add
          (Printf.sprintf
             "{\"shard\": %d, \"replayed\": %d, \"remaining\": %d, \"pending_pages\": %d}"
             sp.rp_shard sp.rp_replayed sp.rp_remaining sp.rp_pending_pages))
      rv.rv_shards;
    add "]}");
  add "}";
  Buffer.contents buf

(* ---- wall-clock time series ------------------------------------------ *)

let timeseries_jsonl () =
  let accs_l = snapshot_accs () in
  let tbl : (int, tsb) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      Hashtbl.iter
        (fun b cell ->
          let dst =
            match Hashtbl.find_opt tbl b with
            | Some d -> d
            | None ->
              let d =
                { b_ops = 0; b_sum = 0.; b_max = 0.; b_stage = Array.make n_stages 0. }
              in
              Hashtbl.add tbl b d;
              d
          in
          dst.b_ops <- dst.b_ops + cell.b_ops;
          dst.b_sum <- dst.b_sum +. cell.b_sum;
          if cell.b_max > dst.b_max then dst.b_max <- cell.b_max;
          Array.iteri (fun i v -> dst.b_stage.(i) <- dst.b_stage.(i) +. v) cell.b_stage)
        a.a_ts)
    accs_l;
  let keys = Hashtbl.fold (fun k _ l -> k :: l) tbl [] |> List.sort compare in
  let bucket_ms = ts_bucket_ns /. 1e6 in
  let buf = Buffer.create 1024 in
  List.iter
    (fun b ->
      let cell = Hashtbl.find tbl b in
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
  Buffer.contents buf

(* ---- Chrome-trace export --------------------------------------------- *)

let traces () =
  snapshot_accs ()
  |> List.concat_map (fun a -> Array.to_list (Array.sub a.a_res 0 a.a_res_len))
  |> List.sort (fun x y -> Float.compare x.t_post y.t_post)

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
