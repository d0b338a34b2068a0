open Redo_storage
open Redo_wal

type strategy =
  | Physiological_split
  | Generalized_split

let strategy_name = function
  | Physiological_split -> "physiological-split"
  | Generalized_split -> "generalized-split"

type t = {
  disk : Disk.t;
  cache : Cache.t;
  log : Log_manager.t;
  strategy : strategy;
  max_keys : int;
  careful_order : bool;
  mutable next_page : int;
  mutable op_first_lsns : Lsn.t list;
  mutable splits : int;
}

let root_pid = 0

let create ?(cache_capacity = 64) ?(max_keys = 8) ?(careful_order = true) ~strategy () =
  if max_keys < 2 then invalid_arg "Btree.create: max_keys must be at least 2";
  let disk = Disk.create () in
  let log = Log_manager.create () in
  let cache =
    Cache.create ~capacity:cache_capacity
      ~before_flush:(fun page -> Log_manager.force log ~upto:(Page.lsn page))
      disk
  in
  {
    disk;
    cache;
    log;
    strategy;
    max_keys;
    careful_order;
    next_page = 1;
    op_first_lsns = [];
    splits = 0;
  }

(* Fault-injection hook: with [careful_order:false] the write-order
   edges of Figure 8 are silently dropped — the bug the theory checker
   exists to catch. *)
let add_order t ~first ~next =
  if t.careful_order then Cache.add_flush_order t.cache ~first ~next

let strategy t = t.strategy
let log t = t.log
let cache t = t.cache
let disk t = t.disk
let splits t = t.splits

let alloc t =
  let pid = t.next_page in
  t.next_page <- pid + 1;
  pid

let read_data t pid = Page.data (Cache.read t.cache pid)

let log_page_op t pid op =
  let lsn = Log_manager.append t.log (Record.Physiological { pid; op }) in
  Cache.update t.cache pid ~lsn (Page_op.apply op);
  lsn

let log_multi t mop =
  let lsn = Log_manager.append t.log (Record.Multi mop) in
  let data = Multi_op.apply mop ~read:(read_data t) in
  (match Multi_op.writes mop with
  | [ dst ] -> Cache.update t.cache dst ~lsn (fun _ -> data)
  | _ -> invalid_arg "Btree.log_multi: expected a single written page");
  lsn

(* --- Descent --- *)

let child_for ~key ~hi seps children =
  (* First separator strictly greater than the key selects its left
     child (with that separator as the child's upper bound); keys equal
     to a separator live in the right subtree (a split at [at] sends
     keys >= at right). *)
  let rec go seps children =
    match seps, children with
    | [], [ c ] -> c, hi
    | s :: srest, c :: crest ->
      if String.compare key s < 0 then c, Some s else go srest crest
    | _ -> invalid_arg "Btree.child_for: malformed internal node"
  in
  go seps children

exception Corrupt of string

(* Any well-formed tree here is far shallower than this; exceeding it
   means a page cycle (e.g. stable state written outside the cache's
   write-order discipline), and raising beats looping forever. *)
let max_depth = 64

(* The path records each ancestor with its upper bound; every node's
   keys/separators are supposed to live below that bound, except for the
   surplus a crash-interrupted split leaves behind (see [trim]). *)
let rec descend t ~key pid ~hi path =
  if List.length path > max_depth then
    raise (Corrupt (Printf.sprintf "descent deeper than %d: page cycle" max_depth));
  match read_data t pid with
  | Page.Node (Page.Internal { seps; children }) ->
    let child, child_hi = child_for ~key ~hi seps children in
    descend t ~key child ~hi:child_hi ((pid, hi) :: path)
  | Page.Node (Page.Leaf _) | Page.Empty -> (pid, hi), path
  | data -> invalid_arg (Fmt.str "Btree.descend: unexpected payload %a" Page.pp_data data)

(* --- Splits --- *)

let node_split_key = function
  | Page.Node (Page.Leaf entries) -> Multi_op.split_point entries
  | Page.Node (Page.Internal { seps; _ }) ->
    if List.length seps < 2 then raise (Multi_op.Malformed "internal split needs 2 separators");
    List.nth seps (List.length seps / 2)
  | data -> invalid_arg (Fmt.str "Btree.node_split_key: %a" Page.pp_data data)

(* Split contents computed in memory, for the physiological strategy
   that must put them into the log. For internal nodes the median
   separator moves up (it lands in neither half). *)
let node_halves ~at = function
  | Page.Node (Page.Leaf entries) ->
    let lower, upper = Page.Entries.split at entries in
    ( Page_op.Init_leaf (Page.Entries.bindings lower),
      Page_op.Init_leaf (Page.Entries.bindings upper) )
  | Page.Node (Page.Internal { seps; children }) ->
    let rec go seps children lower_seps lower_children =
      match seps, children with
      | s :: srest, c :: crest when String.compare s at < 0 ->
        go srest crest (s :: lower_seps) (c :: lower_children)
      | s :: srest, c :: crest when String.equal s at ->
        ( Page_op.Init_internal
            { seps = List.rev lower_seps; children = List.rev (c :: lower_children) },
          Page_op.Init_internal { seps = srest; children = crest } )
      | _ -> invalid_arg "Btree.node_halves: split key not found"
    in
    go seps children [] []
  | data -> invalid_arg (Fmt.str "Btree.node_halves: %a" Page.pp_data data)

let is_overfull t = function
  | Page.Node (Page.Leaf entries) -> Page.Entries.cardinal entries > t.max_keys
  | Page.Node (Page.Internal { seps; _ }) -> List.length seps > t.max_keys
  | _ -> false

(* Split the (non-root) node [pid] whose parent is [parent]. Record
   order matters for crash prefixes: the new right node first, then the
   parent's pointer, then the truncation — at every prefix the reachable
   key set is intact (the old node's surplus keys are masked by the
   parent's separator ranges). *)
let split_nonroot t pid ~parent =
  let data = read_data t pid in
  let at = node_split_key data in
  let right = alloc t in
  (match t.strategy with
  | Generalized_split ->
    (* Figure 8: log the split as a read-src/write-dst operation — the
       moved contents stay out of the log — and register the careful
       write order: the new node must hit the disk before the truncated
       old node does. *)
    ignore (log_multi t (Multi_op.Split_to { src = pid; dst = right; at }));
    add_order t ~first:right ~next:pid;
    ignore (log_page_op t parent (Page_op.Internal_add { sep = at; right }));
    ignore (log_page_op t pid (Page_op.Drop_from { key = at }))
  | Physiological_split ->
    (* Conventional: the new node's full contents are logged physically
       inside a blind Init op; no write-order constraint is needed. *)
    let _, upper = node_halves ~at data in
    ignore (log_page_op t right upper);
    ignore (log_page_op t parent (Page_op.Internal_add { sep = at; right }));
    ignore (log_page_op t pid (Page_op.Drop_from { key = at })));
  t.splits <- t.splits + 1

(* Split the root in place: the root page id is pinned, so both halves
   move to fresh pages and the root becomes a two-child internal node. *)
let split_root t =
  let data = read_data t root_pid in
  let at = node_split_key data in
  let left = alloc t in
  let right = alloc t in
  (match t.strategy with
  | Generalized_split ->
    ignore (log_multi t (Multi_op.Copy { src = root_pid; dst = left }));
    ignore (log_multi t (Multi_op.Split_to { src = root_pid; dst = right; at }));
    (* Both copies must reach the disk before the overwritten root:
       replaying either one reads the root's pre-split contents. *)
    add_order t ~first:left ~next:root_pid;
    add_order t ~first:right ~next:root_pid;
    ignore
      (log_page_op t root_pid (Page_op.Init_internal { seps = [ at ]; children = [ left; right ] }));
    ignore (log_page_op t left (Page_op.Drop_from { key = at }))
  | Physiological_split ->
    let lower, upper = node_halves ~at data in
    ignore (log_page_op t left lower);
    ignore (log_page_op t right upper);
    ignore
      (log_page_op t root_pid (Page_op.Init_internal { seps = [ at ]; children = [ left; right ] })));
  t.splits <- t.splits + 1

let has_surplus ~hi data =
  match hi, data with
  | None, _ -> false
  | Some h, Page.Node (Page.Leaf entries) ->
    not (Page.Entries.is_empty (snd (Page.Entries.split h entries)))
  | Some h, Page.Node (Page.Internal { seps; _ }) ->
    List.exists (fun s -> String.compare s h >= 0) seps
  | Some _, _ -> false

(* Complete a crash-interrupted split lazily: if the node still holds
   keys at or above its upper bound (the split's truncation record was
   lost), redo the truncation before anything else. Without this, a
   re-split would compute its median over the masked surplus and could
   duplicate a parent separator, hiding live keys. *)
let trim t pid ~hi =
  if has_surplus ~hi (read_data t pid) then
    match hi with
    | Some h -> ignore (log_page_op t pid (Page_op.Drop_from { key = h }))
    | None -> ()

let rec split_up t pid ~hi path =
  trim t pid ~hi;
  if is_overfull t (read_data t pid) then
    match path with
    | [] ->
      assert (pid = root_pid);
      split_root t
    | (parent, parent_hi) :: rest ->
      split_nonroot t pid ~parent;
      split_up t parent ~hi:parent_hi rest

(* --- Public operations --- *)

let insert t key value =
  let (leaf, hi), path = descend t ~key root_pid ~hi:None [] in
  let lsn = log_page_op t leaf (Page_op.Leaf_put (key, value)) in
  t.op_first_lsns <- lsn :: t.op_first_lsns;
  split_up t leaf ~hi path

let delete t key =
  let (leaf, _), _ = descend t ~key root_pid ~hi:None [] in
  let lsn = log_page_op t leaf (Page_op.Leaf_del key) in
  t.op_first_lsns <- lsn :: t.op_first_lsns

let lookup t key =
  let (leaf, _), _ = descend t ~key root_pid ~hi:None [] in
  match read_data t leaf with
  | Page.Node (Page.Leaf entries) -> Page.Entries.find key entries
  | Page.Empty -> None
  | data -> invalid_arg (Fmt.str "Btree.lookup: unexpected payload %a" Page.pp_data data)

let within lo hi k =
  (match lo with None -> true | Some l -> String.compare l k <= 0)
  && match hi with None -> true | Some h -> String.compare k h < 0

(* In-order traversal, restricting each subtree to its separator range:
   masks surplus keys an interrupted split may have left in an old node. *)
let dump t =
  let rec walk ~depth pid lo hi =
    if depth > max_depth then
      raise (Corrupt (Printf.sprintf "traversal deeper than %d: page cycle" max_depth));
    let walk = walk ~depth:(depth + 1) in
    match read_data t pid with
    | Page.Empty -> []
    | Page.Node (Page.Leaf entries) ->
      List.filter (fun (k, _) -> within lo hi k) (Page.Entries.bindings entries)
    | Page.Node (Page.Internal { seps; children }) ->
      let rec go lo seps children =
        match seps, children with
        | [], [ c ] -> walk c lo hi
        | s :: srest, c :: crest ->
          let bounded_hi = match hi with Some h when String.compare h s < 0 -> hi | _ -> Some s in
          walk c lo bounded_hi @ go (Some s) srest crest
        | _ -> invalid_arg "Btree.dump: malformed internal node"
      in
      go lo seps children
    | data -> invalid_arg (Fmt.str "Btree.dump: unexpected payload %a" Page.pp_data data)
  in
  walk ~depth:0 root_pid None None

(* --- Checkpoint, crash, recovery --- *)

let checkpoint t =
  let dirty_pages =
    List.filter_map
      (fun pid -> Option.map (fun l -> pid, l) (Cache.rec_lsn t.cache pid))
      (Cache.dirty_pages t.cache)
  in
  let lsn =
    Log_manager.append t.log (Record.Checkpoint { dirty_pages; note = strategy_name t.strategy })
  in
  Log_manager.force t.log ~upto:lsn

(* Sharded install: the careful-order edges the splits registered ARE
   the write graph, so the planner reconstructs exactly the components
   split logging created (with [careful_order:false] every page is its
   own singleton — the injected fault changes the plan, not the
   installer). The fuzzy record that follows sees an all-clean cache. *)
let checkpoint_sharded ?pool ~domains t =
  let report =
    Redo_ckpt.Installer.install ?pool ~domains
      ~before_install:(fun upto -> Log_manager.force t.log ~upto)
      ~note:(strategy_name t.strategy) t.cache t.log
  in
  checkpoint t;
  report.Redo_ckpt.Installer.components, report.Redo_ckpt.Installer.pages_installed

let flush_some t rng =
  match Cache.dirty_pages t.cache with
  | [] -> ()
  | dirty -> Cache.flush_page t.cache (List.nth dirty (Random.State.int rng (List.length dirty)))

let sync t = Log_manager.force_all t.log

let after_crash t =
  Cache.drop_volatile t.cache;
  let flushed = Log_manager.flushed_lsn t.log in
  t.op_first_lsns <- List.filter (fun l -> Lsn.(l <= flushed)) t.op_first_lsns

let crash t =
  Log_manager.crash t.log;
  after_crash t

let crash_torn t ~drop =
  Log_manager.crash_torn t.log ~drop;
  after_crash t

(* The highest page id on the disk or named by [records]. *)
let high_water t records =
  let pages r =
    match Record.payload r with
    | Record.Physiological { pid; _ } -> [ pid ]
    | Record.Multi mop -> Multi_op.reads mop @ Multi_op.writes mop
    | _ -> []
  in
  List.fold_left max root_pid (Disk.page_ids t.disk @ List.concat_map pages records)

let stable_universe t = List.init (high_water t (Log_manager.stable_records t.log) + 1) Fun.id

let recover t =
  (* Every record below the redo start is installed, so its pages are on
     disk (Corollary 4): the disk and the redo slice name every page the
     stable log does, without decoding the log below the slice. *)
  let start = Redo_restart.Page_redo.scan_start t.log in
  let slice = Log_manager.records_from t.log ~from:start in
  t.next_page <- high_water t slice + 1;
  let scanned = ref 0 and redone = ref 0 and skipped = ref 0 in
  (* A stable per-shard horizon proves the record installed without
     fetching the page. Perf-only for an LSN-tested method — the page's
     LSN is at least the covered record's, so the test below would skip
     it anyway. A shard record at or before the slice's start covers
     none of it, so only those after it are read. *)
  let horizons = Log_manager.stable_shard_horizons ~after:start t.log in
  let covered pid lsn =
    match List.assoc_opt pid horizons with Some h -> Lsn.(lsn <= h) | None -> false
  in
  let redo_page pid lsn update arg =
    let redo =
      (not (covered pid lsn)) && Redo_restart.Page_redo.redo_one t.cache ~pid ~lsn update arg
    in
    if redo then incr redone else incr skipped;
    redo
  in
  let apply_multi mop _ = Multi_op.apply mop ~read:(read_data t) in
  List.iter
    (fun r ->
      incr scanned;
      match Record.payload r with
      | Record.Physiological { pid; op } ->
        ignore (redo_page pid (Record.lsn r) Page_op.apply op)
      | Record.Multi mop ->
        let dst = match Multi_op.writes mop with [ d ] -> d | _ -> assert false in
        let redone_now = redo_page dst (Record.lsn r) apply_multi mop in
        (* The redone copy is dirty again: re-register the careful write
           order so a crash during/after recovery stays safe. *)
        if redone_now then
          List.iter (fun src -> add_order t ~first:dst ~next:src) (Multi_op.reads mop)
      | Record.Checkpoint _ | Record.Shard_checkpoint _ -> ()
      | Record.Physical _ | Record.Logical _ | Record.App_op _ ->
        invalid_arg "Btree recovery: unexpected record kind")
    slice;
  !scanned, !redone, !skipped

let durable_ops t =
  let flushed = Log_manager.flushed_lsn t.log in
  List.length (List.filter (fun l -> Lsn.(l <= flushed)) t.op_first_lsns)

let log_stats t = Log_manager.stats t.log
let cache_stats t = Cache.stats t.cache
