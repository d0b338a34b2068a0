exception Flush_cycle of int list

module Int_set = Set.Make (Int)
module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span
module Flight = Redo_obs.Flight

let c_hits = Metrics.counter "cache.hits"
let c_misses = Metrics.counter "cache.misses"
let c_updates = Metrics.counter "cache.updates"
let c_flushes = Metrics.counter "cache.flushes"
let c_forced_order_flushes = Metrics.counter "cache.forced_order_flushes"
let c_evictions_clean = Metrics.counter "cache.evictions_clean"
let c_evictions_dirty = Metrics.counter "cache.evictions_dirty"
let c_edges_added = Metrics.counter "cache.order_edges_added"
let c_edges_discharged = Metrics.counter "cache.order_edges_discharged"

type entry = {
  pid : int;
  mutable page : Page.t;
  mutable dirty : bool;
  mutable rec_lsn : Lsn.t;  (* LSN of the first update since last flush *)
  mutable last_use : int;
  (* Intrusive links for the LRU queue the entry currently lives on
     (the clean queue when clean, the dirty queue when dirty). *)
  mutable prev : entry option;  (* toward MRU *)
  mutable next : entry option;  (* toward LRU *)
}

(* One recency queue: head = most recently used, tail = eviction end. *)
type queue = {
  mutable head : entry option;
  mutable tail : entry option;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable forced_order_flushes : int;
  mutable evictions : int;
  mutable updates : int;
}

(* Careful-write-order constraints touching one page, both directions
   in one record so a flush resolves them with a single table probe:
   [pre] is the pages that must reach disk before this one, [dep] the
   reverse (the constraints this page's flush satisfies). Fields mutate
   in place — discharging an edge is a field store, never a
   [Hashtbl.replace]. *)
type links = {
  mutable pre : Int_set.t;
  mutable dep : Int_set.t;
}

type t = {
  disk : Disk.t;
  capacity : int;
  before_flush : Page.t -> unit;
  entries : (int, entry) Hashtbl.t;
  orders : (int, links) Hashtbl.t;  (* pages some write-order constraint mentions *)
  clean : queue;
  dirty_q : queue;
  mutable clock : int;
  stats : stats;
}

let create ?(capacity = 64) ?(before_flush = fun _ -> ()) disk =
  {
    disk;
    capacity;
    before_flush;
    entries = Hashtbl.create (max 64 capacity);
    orders = Hashtbl.create (max 16 (capacity / 4));
    clean = { head = None; tail = None };
    dirty_q = { head = None; tail = None };
    clock = 0;
    stats =
      { hits = 0; misses = 0; flushes = 0; forced_order_flushes = 0; evictions = 0; updates = 0 };
  }

let stats t = t.stats
let disk t = t.disk

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* ---- intrusive queue plumbing ------------------------------------- *)

let q_unlink q e =
  (match e.prev with Some p -> p.next <- e.next | None -> q.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> q.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let q_push_front q e =
  e.prev <- None;
  e.next <- q.head;
  (match q.head with Some h -> h.prev <- Some e | None -> q.tail <- Some e);
  q.head <- Some e

let queue_of t e = if e.dirty then t.dirty_q else t.clean

(* Move to the MRU end of the entry's current queue. *)
let q_touch t e =
  let q = queue_of t e in
  q_unlink q e;
  q_push_front q e

let q_fold q f acc =
  let rec go acc = function
    | None -> acc
    | Some e -> go (f acc e) e.next
  in
  go acc q.head

(* ---- read-side accessors ------------------------------------------ *)

let is_dirty t pid =
  match Hashtbl.find_opt t.entries pid with Some e -> e.dirty | None -> false

(* Sorted pids of the dirty queue. Collect-into-array plus a
   monomorphic int sort: [List.sort compare] here cost O(n log n) boxed
   cons cells and a polymorphic-compare call per comparison — the bulk
   of what made [flush_all] superlinear at 100k pages. *)
let dirty_pages t =
  let arr = Array.make (q_fold t.dirty_q (fun acc _ -> acc + 1) 0) 0 in
  let i = ref 0 in
  ignore
    (q_fold t.dirty_q
       (fun () e ->
         arr.(!i) <- e.pid;
         incr i)
       ());
  Array.sort Int.compare arr;
  Array.to_list arr

let cached_pages t =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) t.entries [] |> List.sort compare

let rec_lsn t pid =
  match Hashtbl.find_opt t.entries pid with
  | Some e when e.dirty -> Some e.rec_lsn
  | _ -> None

let min_rec_lsn t =
  q_fold t.dirty_q
    (fun acc e ->
      match acc with
      | None -> Some e.rec_lsn
      | Some l -> Some (if Lsn.(e.rec_lsn < l) then e.rec_lsn else l))
    None

(* ---- careful write order ------------------------------------------ *)

let dirty_prereqs t pid =
  match Hashtbl.find_opt t.orders pid with
  | None -> []
  | Some l -> Int_set.elements (Int_set.filter (is_dirty t) l.pre)

(* Constraints naming [pid] as the prerequisite are satisfied by its
   flush and die with this version. *)
let retire_constraints t pid l =
  Int_set.iter
    (fun nxt ->
      match Hashtbl.find_opt t.orders nxt with
      | None -> ()
      | Some ln ->
        if Int_set.mem pid ln.pre then begin
          Metrics.incr c_edges_discharged;
          ln.pre <- Int_set.remove pid ln.pre
        end)
    l.dep;
  l.dep <- Int_set.empty

(* Flush [pid], first flushing any dirty page that a registered write
   order requires to hit the disk earlier (Figure 8's careful write
   order). [forced] distinguishes flushes the order deps caused.

   One [orders] probe covers both directions, and none happens at all
   while no constraint is registered — the constraint-free fast path
   (logical and physical workloads) touches only the entry, the queues
   and the disk. The captured [l.pre] set is immutable, so recursive
   flushes (which retire edges by mutating [pre] fields) cannot
   invalidate the iteration; the per-element dirty re-check skips a
   prerequisite some earlier recursion already flushed. *)
let rec flush_with t ~forced ~visiting pid =
  if List.mem pid visiting then raise (Flush_cycle (pid :: visiting));
  match Hashtbl.find_opt t.entries pid with
  | None -> ()
  | Some e when not e.dirty -> ()
  | Some e ->
    (* Order-forced recursive flushes nest their spans under the flush
       that demanded them, so a careful-write-order cascade is visible
       as a tree in the trace. Disabled: one branch. *)
    if Span.enabled () then
      Span.span "cache.flush"
        ~attrs:[ "page", Span.Int pid; "forced", Span.Bool forced ]
        (fun () -> flush_entry t ~forced ~visiting pid e)
    else flush_entry t ~forced ~visiting pid e

and flush_entry t ~forced ~visiting pid e =
    let links =
      if Hashtbl.length t.orders = 0 then None else Hashtbl.find_opt t.orders pid
    in
    (match links with
    | None -> ()
    | Some l ->
      Int_set.iter
        (fun first ->
          if is_dirty t first then begin
            t.stats.forced_order_flushes <- t.stats.forced_order_flushes + 1;
            Metrics.incr c_forced_order_flushes;
            flush_with t ~forced:true ~visiting:(pid :: visiting) first
          end)
        l.pre);
    t.before_flush e.page;
    Disk.write t.disk pid e.page;
    q_unlink t.dirty_q e;
    e.dirty <- false;
    q_push_front t.clean e;
    t.stats.flushes <- t.stats.flushes + 1;
    Metrics.incr c_flushes;
    (* Recorded after the disk write: the flight recorder's account of
       which pages reached disk survives the crash with the segments. *)
    if Flight.enabled () then Flight.emit (Flight.Flush { page = pid; forced });
    match links with None -> () | Some l -> retire_constraints t pid l

let flush_page t pid = flush_with t ~forced:false ~visiting:[] pid

let flush_all t =
  if Span.enabled () then
    Span.span "cache.flush_all" (fun () ->
        let pages = dirty_pages t in
        Span.note [ "pages", Span.Int (List.length pages) ];
        List.iter (flush_page t) pages)
  else List.iter (flush_page t) (dirty_pages t)

let would_force t pid = dirty_prereqs t pid

let add_flush_order t ~first ~next =
  if first <> next then begin
    let links pid =
      match Hashtbl.find_opt t.orders pid with
      | Some l -> l
      | None ->
        let l = { pre = Int_set.empty; dep = Int_set.empty } in
        Hashtbl.add t.orders pid l;
        l
    in
    let ln = links next in
    if not (Int_set.mem first ln.pre) then begin
      ln.pre <- Int_set.add first ln.pre;
      Metrics.incr c_edges_added
    end;
    let lf = links first in
    lf.dep <- Int_set.add next lf.dep
  end

let flush_orders t =
  Hashtbl.fold
    (fun next l acc -> Int_set.fold (fun first acc -> (first, next) :: acc) l.pre acc)
    t.orders []
  |> List.sort compare

let dep_count t = Hashtbl.fold (fun _ l acc -> acc + Int_set.cardinal l.pre) t.orders 0

(* ---- eviction ------------------------------------------------------ *)

(* Least recently used, preferring clean pages over dirty ones and never
   touching the page the caller is in the middle of using: take the tail
   of the clean queue, else the tail of the dirty queue — O(1) modulo
   stepping over the (single) protected page. *)
let victim_of_queue q ~protect =
  match q.tail with
  | None -> None
  | Some e when e.pid <> protect -> Some e
  | Some e -> e.prev

let evict_victim t ~protect =
  let victim =
    match victim_of_queue t.clean ~protect with
    | Some e -> Some e
    | None -> victim_of_queue t.dirty_q ~protect
  in
  match victim with
  | None -> false
  | Some e ->
    let was_dirty = e.dirty in
    if e.dirty then flush_page t e.pid;
    (* The flush moved the entry to the clean queue if it was dirty. *)
    q_unlink t.clean e;
    Hashtbl.remove t.entries e.pid;
    t.stats.evictions <- t.stats.evictions + 1;
    Metrics.incr (if was_dirty then c_evictions_dirty else c_evictions_clean);
    if Flight.enabled () then Flight.emit (Flight.Evict { page = e.pid; dirty = was_dirty });
    true

let ensure_capacity t ~protect =
  let progressing = ref true in
  while !progressing && Hashtbl.length t.entries > t.capacity do
    progressing := evict_victim t ~protect
  done

(* ---- the cache proper ---------------------------------------------- *)

let entry t pid =
  match Hashtbl.find_opt t.entries pid with
  | Some e ->
    t.stats.hits <- t.stats.hits + 1;
    Metrics.incr c_hits;
    e.last_use <- tick t;
    q_touch t e;
    e
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    Metrics.incr c_misses;
    let e =
      {
        pid;
        page = Disk.read t.disk pid;
        dirty = false;
        rec_lsn = Lsn.zero;
        last_use = tick t;
        prev = None;
        next = None;
      }
    in
    Hashtbl.replace t.entries pid e;
    q_push_front t.clean e;
    ensure_capacity t ~protect:pid;
    e

let read t pid = (entry t pid).page

(* Observation only: no stats, no LRU movement, no disk fault-in. The
   checkpoint planner uses this to capture dirty page images without
   disturbing recency or hit rates. *)
let peek t pid =
  match Hashtbl.find_opt t.entries pid with Some e -> Some e.page | None -> None

(* The page's current image reached the disk by other means (the
   shard-parallel installer writes it directly): account the flush and
   discharge write-order constraints exactly as [flush_entry] would,
   without re-writing the page. *)
let note_installed t pid =
  match Hashtbl.find_opt t.entries pid with
  | Some e when e.dirty ->
    q_unlink t.dirty_q e;
    e.dirty <- false;
    q_push_front t.clean e;
    t.stats.flushes <- t.stats.flushes + 1;
    Metrics.incr c_flushes;
    (match Hashtbl.find_opt t.orders pid with
    | Some l -> retire_constraints t pid l
    | None -> ())
  | _ -> ()

let mark_dirty t e =
  if not e.dirty then begin
    q_unlink t.clean e;
    e.dirty <- true;
    q_push_front t.dirty_q e
  end

let update ?rec_lsn t pid ~lsn f =
  let e = entry t pid in
  let data = f (Page.data e.page) in
  if not e.dirty then e.rec_lsn <- Option.value rec_lsn ~default:lsn;
  e.page <- Page.make ~lsn data;
  mark_dirty t e;
  t.stats.updates <- t.stats.updates + 1;
  Metrics.incr c_updates

let set_page t pid page =
  let e = entry t pid in
  if not e.dirty then e.rec_lsn <- Page.lsn page;
  e.page <- page;
  mark_dirty t e

let drop_volatile t =
  Hashtbl.reset t.entries;
  Hashtbl.reset t.orders;
  t.clean.head <- None;
  t.clean.tail <- None;
  t.dirty_q.head <- None;
  t.dirty_q.tail <- None

let pp ppf t =
  Fmt.pf ppf "cache: %d pages, %d dirty, deps=%d" (Hashtbl.length t.entries)
    (List.length (dirty_pages t))
    (dep_count t)
