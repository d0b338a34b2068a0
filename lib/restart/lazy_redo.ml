(* Instant restart: per-page redo queues drained on demand.

   The theory's licence for this module is Theorem 3 via the lazy leg
   of Theory_check: any conflict-respecting redo order reaches the
   sequential pass's state. In the sharded KV system every logged
   operation touches exactly one page and pages never change owner, so
   the conflict graph's components are single pages — a page's
   careful-order predecessor closure is the page's own record queue in
   LSN order, and draining whole queues independently, in any order
   across pages, is conflict-respecting. (The general DAG case, where a
   drain must pull cross-page predecessors first, is the [Touch_order]
   schedule of [Redo_core.Recovery.recover]; the equivalence of both
   shapes with eager replay is re-checked on every
   [Theory_check.check].)

   The controller owns no domains of its own for demand traffic: each
   queue lives with its page's shard, and [ensure] must be called on
   the shard's owner domain (the same single-writer discipline as the
   shard cache). Cross-domain visibility is limited to the Atomic
   pending counters, the stop flag and the recorded failure. The
   background sweeper is one long-lived task on a private single-domain
   pool; it never touches a queue itself — it posts every page through
   the same owner-domain [touch] path a client fault takes, so there is
   exactly one code path that drains a queue. *)

module Metrics = Redo_obs.Metrics
module Flight = Redo_obs.Flight
module Domain_pool = Redo_par.Domain_pool
open Redo_storage
open Redo_wal

let c_plans = Metrics.counter "restart.plans"
let c_demand = Metrics.counter "restart.demand_drains"
let c_sweeper = Metrics.counter "restart.sweeper_drains"
let c_preskipped = Metrics.counter "restart.preskipped_records"

(* Observed by every shard owner's drains at once, hence under
   [Metrics.observe_locked]. *)
let h_queue_depth =
  Metrics.histogram ~bounds:Metrics.count_bounds "restart.lazy_queue_depth"

type trigger = Demand | Sweeper

(* ---- plan ----------------------------------------------------------- *)

type plan = {
  p_shards : int;
  p_queues : Lsn.t array array;
      (* pid-indexed, exact-sized, LSN order; [||] = nothing pending.
         Pages are dense small ints and the open time is the whole
         point of this mode, so the representation is chosen for the
         plan walk: a hash table costs ~20x per record, and cons-cell
         queues double the allocation (and the minor-GC bill) that the
         two-pass count-then-fill build avoids. The queues hold LSNs,
         not records: a drain decodes its page's records itself. *)
  p_pages : int;  (* pages with a non-empty queue *)
  p_records : int;  (* pending records across all queues *)
  p_preskipped : int;  (* records the horizon/DPT test excluded up front *)
  p_order : (int * int) list;
      (* sweep order: (pid, queue length), longest queue first — under a
         skewed workload the longest tails belong to the hottest pages,
         so the sweeper meets demand traffic instead of trailing it *)
}

(* The one builder: [pages.(i)] is the page the record with LSN
   [first + i] is queued on, or -1 for one the plan leaves out. *)
let build ~shards ~first ~pages ~preskipped =
  if shards <= 0 then invalid_arg "Lazy_redo.plan: need a positive shard count";
  Metrics.incr c_plans;
  let first = Lsn.to_int first in
  (* Pass 1: queue sizes per page. *)
  let counts = ref (Array.make 64 0) in
  let ensure_room pid =
    let len = Array.length !counts in
    if pid >= len then begin
      let c = Array.make (Int.max (pid + 1) (2 * len)) 0 in
      Array.blit !counts 0 c 0 len;
      counts := c
    end
  in
  let pending = ref 0 in
  for i = 0 to Array.length pages - 1 do
    let pid = pages.(i) in
    if pid >= 0 then begin
      ensure_room pid;
      !counts.(pid) <- !counts.(pid) + 1;
      incr pending
    end
  done;
  let counts = !counts in
  (* Pass 2: fill exact-sized queues in LSN order (the first LSN lazily
     allocates its page's array). *)
  let queues = Array.make (Array.length counts) [||] in
  let fill = Array.make (Array.length counts) 0 in
  for i = 0 to Array.length pages - 1 do
    let pid = pages.(i) in
    if pid >= 0 then begin
      let lsn = Lsn.of_int (first + i) in
      if Array.length queues.(pid) = 0 then queues.(pid) <- Array.make counts.(pid) lsn;
      queues.(pid).(fill.(pid)) <- lsn;
      fill.(pid) <- fill.(pid) + 1
    end
  done;
  let order = ref [] in
  Array.iteri (fun pid c -> if c > 0 then order := (pid, c) :: !order) counts;
  let order = List.sort (fun (_, a) (_, b) -> compare b a) !order in
  Metrics.add c_preskipped preskipped;
  {
    p_shards = shards;
    p_queues = queues;
    p_pages = List.length order;
    p_records = !pending;
    p_preskipped = preskipped;
    p_order = order;
  }

let plan_slice ~shards a =
  let pages, preskipped = Page_redo.redo_pages a in
  build ~shards ~first:(fst (Page_redo.slice a)) ~pages ~preskipped

(* The list form: classify the records by LSN as [Page_redo.redo_pages]
   classifies a slice, then the builder. *)
let plan ~shards ~surely_on_disk records =
  let lsn r = Lsn.to_int (Record.lsn r) in
  let first = List.fold_left (fun acc r -> Int.min acc (lsn r)) max_int records in
  let last = List.fold_left (fun acc r -> Int.max acc (lsn r)) 0 records in
  let first = Int.min first (last + 1) in
  let pages = Array.make (last - first + 1) (-1) in
  let preskipped = ref 0 in
  List.iter
    (fun r ->
      match Record.payload r with
      | Record.Physiological { pid; _ } ->
        if surely_on_disk ~pid ~lsn:(Record.lsn r) then incr preskipped
        else pages.(lsn r - first) <- pid
      | Record.Checkpoint _ | Record.Shard_checkpoint _ -> ()
      | payload ->
        invalid_arg (Fmt.str "Lazy_redo.plan: unexpected record %a" Record.pp_payload payload))
    records;
  build ~shards ~first:(Lsn.of_int first) ~pages ~preskipped:!preskipped

let plan_pages p = p.p_pages
let plan_records p = p.p_records
let plan_preskipped p = p.p_preskipped

let plan_queue p pid =
  if pid < Array.length p.p_queues then Array.to_list p.p_queues.(pid) else []

let plan_queued_pids p = List.map fst p.p_order

(* ---- controller ----------------------------------------------------- *)

type t = {
  nshards : int;
  queues : Lsn.t array array;
      (* pid-indexed; slot [pid] is written only by shard
         [pid mod nshards]'s owner domain (disjoint slots, so sharing
         the array is race-free) *)
  order : (int * int) list;
  apply : shard:int -> pid:int -> Lsn.t array -> int * int;
  pending_total : int Atomic.t;
  redone : int Atomic.t;
  skipped : int Atomic.t;
  demand_drains : int Atomic.t;
  sweeper_drains : int Atomic.t;
  stop : bool Atomic.t;
  failure : exn option Atomic.t;  (* the first exception a drain raised *)
  mutable sweeper : Domain_pool.t option;
  fin_mutex : Mutex.t;
  fin_cond : Condition.t;
}

let create ~plan:p ~apply =
  {
    nshards = p.p_shards;
    queues = p.p_queues;
    order = p.p_order;
    apply;
    pending_total = Atomic.make p.p_pages;
    redone = Atomic.make 0;
    skipped = Atomic.make 0;
    demand_drains = Atomic.make 0;
    sweeper_drains = Atomic.make 0;
    stop = Atomic.make false;
    failure = Atomic.make None;
    sweeper = None;
    fin_mutex = Mutex.create ();
    fin_cond = Condition.create ();
  }

let pending_total t = Atomic.get t.pending_total
let finished t = pending_total t = 0
let drained t = Atomic.get t.redone, Atomic.get t.skipped
let demand_drains t = Atomic.get t.demand_drains
let sweeper_drains t = Atomic.get t.sweeper_drains

let signal_finished t =
  Mutex.lock t.fin_mutex;
  Condition.broadcast t.fin_cond;
  Mutex.unlock t.fin_mutex

(* A failed drain can never finish the restart: record it, stop the
   sweep and wake [await], which reports it. *)
let fail t exn =
  ignore (Atomic.compare_and_set t.failure None (Some exn));
  Atomic.set t.stop true;
  signal_finished t

let ensure t ~pid ~trigger =
  if pid >= Array.length t.queues then false
  else begin
    let q = t.queues.(pid) in
    if Array.length q = 0 then false
    else begin
      (* Clear before applying: [apply] goes through the logged-update
         path on this same domain, and must not re-enter the drain. *)
      t.queues.(pid) <- [||];
      match t.apply ~shard:(pid mod t.nshards) ~pid q with
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        (* The page stays pending, its queue back in place: every later
           touch retries the drain (what it did apply is skipped by the
           page-LSN test) and meets the same fault. *)
        t.queues.(pid) <- q;
        fail t exn;
        Printexc.raise_with_backtrace exn bt
      | redone, skipped ->
        let n = Array.length q in
        ignore (Atomic.fetch_and_add t.redone redone);
        ignore (Atomic.fetch_and_add t.skipped skipped);
        (match trigger with
        | Demand ->
          Metrics.incr c_demand;
          Atomic.incr t.demand_drains
        | Sweeper ->
          Metrics.incr c_sweeper;
          Atomic.incr t.sweeper_drains);
        Metrics.observe_locked h_queue_depth (float n);
        if Flight.enabled () then
          Flight.emit (Flight.Lazy_drain { page = pid; queue = n; demand = trigger = Demand });
        let left = Atomic.fetch_and_add t.pending_total (-1) - 1 in
        if left = 0 then signal_finished t;
        true
    end
  end

let await t =
  Mutex.lock t.fin_mutex;
  while not (finished t || Atomic.get t.stop) do
    Condition.wait t.fin_cond t.fin_mutex
  done;
  Mutex.unlock t.fin_mutex;
  (match Atomic.get t.failure with Some exn -> raise exn | None -> ());
  finished t

let start_sweeper t ~touch =
  if t.sweeper <> None then invalid_arg "Lazy_redo.start_sweeper: already running";
  let pool = Domain_pool.create ~domains:1 in
  t.sweeper <- Some pool;
  Domain_pool.submit pool (fun () ->
      (* One pass over the static hottest-first order suffices: [touch]
         routes to the owner domain, where [ensure] is an idempotent
         no-op for pages demand traffic already drained. After the last
         touch the pending set is total, whatever the interleaving. The
         pool drops a task's exception, so a touch that raises is
         recorded here (a failed drain already recorded itself). *)
      try
        List.iter
          (fun (pid, _) -> if not (Atomic.get t.stop) then touch ~pid ~trigger:Sweeper)
          t.order
      with exn -> fail t exn)

let stop t =
  Atomic.set t.stop true;
  (match t.sweeper with
  | Some pool ->
    t.sweeper <- None;
    Domain_pool.shutdown pool
  | None -> ());
  signal_finished t
