open Redo_storage
open Redo_wal
module Mailbox = Redo_par.Mailbox
module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span
module Flight = Redo_obs.Flight
module Oplat = Redo_obs.Oplat
module Installer = Redo_ckpt.Installer
module Lazy_redo = Redo_restart.Lazy_redo
module Page_redo = Redo_restart.Page_redo
module Kv_layout = Redo_methods.Kv_layout
module Theory_check = Redo_methods.Theory_check

let name = "sharded"

(* Process-wide telemetry, resolved once. Counters are Atomics, so the
   shard owners increment them concurrently without ceremony; the queue
   histogram is observed from the client domain only (single-writer). *)
let c_ops = Metrics.counter "kv.shard.ops"
let c_reads = Metrics.counter "kv.shard.reads"
let c_commits = Metrics.counter "kv.shard.commits"
let c_installs = Metrics.counter "kv.shard.installs"
let c_replayed = Metrics.counter "kv.shard.replayed"

let h_queue_depth =
  Metrics.histogram ~bounds:Metrics.count_bounds "kv.shard.queue_depth"

type recovery_stats = Redo_methods.Method_intf.recovery_stats = {
  scanned : int;
  redone : int;
  skipped : int;
  analysis_scanned : int;
}

type stats = {
  puts : int;
  deletes : int;
  gets : int;
  checkpoints : int;
  crashes : int;
  recoveries : int;
  records_scanned : int;
  records_redone : int;
  records_skipped : int;
}

(* One shard: a static slice of the page universe (pid mod shards),
   a private cache over the shared disk, and the mailbox whose consumer
   domain is the only code that ever touches that cache. *)
type shard = {
  index : int;
  pages : int list;
  cache : Cache.t;
  mailbox : Mailbox.t;
}

type t = {
  nshards : int;
  n_partitions : int;
  disk : Disk.t;
  log : Log_manager.t;
  committer : Group_commit.t;
  shard_arr : shard array;
  puts : int Atomic.t;
  deletes : int Atomic.t;
  gets : int Atomic.t;
  checkpoints : int Atomic.t;
  crashes : int Atomic.t;
  recoveries : int Atomic.t;
  scanned : int Atomic.t;
  redone : int Atomic.t;
  skipped : int Atomic.t;
  restart : Lazy_redo.t option Atomic.t;
      (* The live instant restart. Cleared only by the client-side
         cleanup points ([await_recovery], crash, close), never by the
         owner domains, so the sweeper pool's join always has a
         handle. *)
  mutable closed : bool;
}

let create ?(shards = 4) ?partitions ?(cache_capacity = 64)
    ?(commit_mode = Group_commit.Background) () =
  if shards <= 0 then invalid_arg "Sharded_store.create: need a positive shard count";
  let n_partitions = Option.value partitions ~default:(8 * shards) in
  if n_partitions < shards then
    invalid_arg "Sharded_store.create: fewer partitions than shards";
  let disk = Disk.create () in
  let log = Log_manager.create ~capacity:1024 () in
  (* The committer is not optional: it is what makes concurrent appends
     from the shard owners well-defined (they serialize under its
     mutex) and what coalesces their per-op durability requests into
     batched forces. *)
  let committer = Group_commit.create ~mode:commit_mode log in
  let universe = Kv_layout.universe ~partitions:n_partitions in
  let shard_arr =
    Array.init shards (fun i ->
        (* The write-ahead rule, per shard: this cache only ever holds
           pages this shard's owner logged for, so forcing up to the
           page LSN covers every record the flush could expose. *)
        let before_flush page = Log_manager.force log ~upto:(Page.lsn page) in
        let cache = Cache.create ~capacity:cache_capacity ~before_flush disk in
        {
          index = i;
          pages = List.filter (fun pid -> pid mod shards = i) universe;
          cache;
          mailbox = Mailbox.create ~name:(Printf.sprintf "kv.shard%d" i) ();
        })
  in
  {
    nshards = shards;
    n_partitions;
    disk;
    log;
    committer;
    shard_arr;
    puts = Atomic.make 0;
    deletes = Atomic.make 0;
    gets = Atomic.make 0;
    checkpoints = Atomic.make 0;
    crashes = Atomic.make 0;
    recoveries = Atomic.make 0;
    scanned = Atomic.make 0;
    redone = Atomic.make 0;
    skipped = Atomic.make 0;
    restart = Atomic.make None;
    closed = false;
  }

let shards t = t.nshards
let partitions t = t.n_partitions
let log t = t.log

let ensure_open t = if t.closed then invalid_arg "Sharded_store: store is closed"
let locate t key = Kv_layout.locate ~partitions:t.n_partitions key
let owner t pid = t.shard_arr.(pid mod t.nshards)

(* ---- instant restart ------------------------------------------------- *)

(* After a drain, close the Oplat recovery window if the recovered set
   is total. The last drains on two owner domains can both see that;
   the window's finish is idempotent. *)
let after_drain lr = if Lazy_redo.finished lr && Oplat.enabled () then Oplat.recovery_finished ()

(* The demand fault: called on the page's owner domain before any read
   of or logged update to the page, so an operation can never observe —
   or stamp an LSN above — a page whose redo tail is still queued. *)
let ensure_recovered t pid =
  match Atomic.get t.restart with
  | None -> ()
  | Some lr -> if Lazy_redo.ensure lr ~pid ~trigger:Lazy_redo.Demand then after_drain lr

(* Client-domain only: joining the sweeper from an owner domain could
   deadlock (the sweeper may be blocked on a ticket that owner must
   run). Crash abandons undrained queues on purpose — the next recovery
   replays the same stable slice, idempotent under the page-LSN test. *)
let stop_restart t =
  match Atomic.exchange t.restart None with
  | None -> ()
  | Some lr -> Lazy_redo.stop lr

let recovery_pending t =
  match Atomic.get t.restart with
  | None -> 0
  | Some lr -> Lazy_redo.pending_total lr

let await_recovery t =
  match Atomic.get t.restart with
  | None -> 0, 0
  | Some lr ->
    (* A failed drain re-raises here and leaves the restart in place, so
       its page keeps raising at every touch until a crash or close
       stops it. *)
    ignore (Lazy_redo.await lr);
    let demand = Lazy_redo.demand_drains lr in
    let swept = Lazy_redo.sweeper_drains lr in
    stop_restart t;
    demand, swept

(* ---- normal operation (worker side) -------------------------------- *)

(* The physiological discipline on the owner domain: log first (the
   append assigns the LSN, serialized under the committer's mutex),
   then apply to the shard's private page and stamp it. *)
let apply_logged t shard pid op =
  ensure_recovered t pid;
  let lsn = Log_manager.append t.log (Record.Physiological { pid; op }) in
  Cache.update shard.cache pid ~lsn (Page_op.apply op);
  Metrics.incr c_ops;
  lsn

let page_entries t shard pid =
  ensure_recovered t pid;
  match Page.data (Cache.read shard.cache pid) with
  | Page.Kv entries -> entries
  | Page.Empty -> []
  | data ->
    invalid_arg (Fmt.str "sharded store: unexpected page payload %a" Page.pp_data data)

(* ---- normal operation (client side) -------------------------------- *)

let route t key op =
  ensure_open t;
  Oplat.first_op ();
  let pid = locate t key in
  let shard = owner t pid in
  (* Every acknowledged operation is a commit request: the owner stages
     it for the next group force, so durability is eventual and the
     forces coalesce across all shards (the sublinear-force story). *)
  match Oplat.sample () with
  | None ->
    Mailbox.post shard.mailbox (fun () ->
        let lsn = apply_logged t shard pid op in
        ignore (Log_manager.force_async t.log ~upto:lsn))
  | Some tk ->
    (* The sampled sibling of the closure above, stamping the owner's
       edges and publishing the ticket before the commit request so the
       committer hooks can stamp the rest. *)
    Mailbox.post shard.mailbox (fun () ->
        Oplat.stamp_dequeue tk ~shard:shard.index;
        let lsn = apply_logged t shard pid op in
        Oplat.stamp_apply tk;
        Oplat.register tk ~lsn:(Lsn.to_int lsn) ~durable:false;
        ignore (Log_manager.force_async t.log ~upto:lsn))

let put t key value =
  if String.length key = 0 then invalid_arg "Sharded_store.put: empty key";
  Atomic.incr t.puts;
  route t key (Page_op.Put (key, value))

let delete t key =
  Atomic.incr t.deletes;
  route t key (Page_op.Del key)

let put_durable t key value =
  ensure_open t;
  if String.length key = 0 then invalid_arg "Sharded_store.put_durable: empty key";
  Oplat.first_op ();
  Atomic.incr t.puts;
  Metrics.incr c_commits;
  let pid = locate t key in
  let shard = owner t pid in
  Metrics.observe h_queue_depth (float (Mailbox.depth shard.mailbox));
  let sampled = Oplat.sample () in
  Mailbox.Ticket.await
    (Mailbox.call shard.mailbox (fun () ->
         (match sampled with
         | Some tk -> Oplat.stamp_dequeue tk ~shard:shard.index
         | None -> ());
         let lsn = apply_logged t shard pid (Page_op.Put (key, value)) in
         (match sampled with
         | Some tk ->
           Oplat.stamp_apply tk;
           (* Durable: the ticket completes at the barrier's stable
              ack, not at the force. *)
           Oplat.register tk ~lsn:(Lsn.to_int lsn) ~durable:true
         | None -> ());
         Log_manager.force_async t.log ~upto:lsn))

let get_async t key =
  ensure_open t;
  Oplat.first_op ();
  Atomic.incr t.gets;
  Metrics.incr c_reads;
  let pid = locate t key in
  let shard = owner t pid in
  Mailbox.call shard.mailbox (fun () -> Page.kv_get (page_entries t shard pid) key)

let get t key = Mailbox.Ticket.await (get_async t key)

let drain t = Array.iter (fun s -> Mailbox.drain s.mailbox) t.shard_arr

let sync t =
  ensure_open t;
  drain t;
  Log_manager.force_all t.log;
  (* Quiescent: whatever tickets the ack horizon did not finalize
     (durable barriers past their own LSN) are accounted now. *)
  if Oplat.enabled () then Oplat.drain ()

(* Run one closure per shard on its owner domain, concurrently, and
   wait for all of them. The mailbox handoff gives happens-before in
   both directions, so the coordinator may read the results (and the
   workers the captured state) without extra synchronisation. *)
let on_shards t f =
  let tickets = Array.map (fun s -> Mailbox.call s.mailbox (fun () -> f s)) t.shard_arr in
  Array.map Mailbox.Ticket.await tickets

let dump t =
  ensure_open t;
  drain t;
  on_shards t (fun s -> List.concat_map (fun pid -> page_entries t s pid) s.pages)
  |> Array.to_list
  |> Kv_layout.merge_dumps

let durable_ops t = Log_manager.stable_op_records t.log

(* ---- checkpoints ---------------------------------------------------- *)

(* Both checkpoint flavours finish any in-flight instant restart first:
   pages whose redo tails are still queued are not dirty in any cache,
   so a checkpoint taken mid-restart would record a dirty-page table
   that silently forgets them — and a later crash would never replay
   their tail. Finishing recovery restores the invariant the DPT
   derivation relies on. *)
let checkpoint t =
  ensure_open t;
  ignore (await_recovery t);
  drain t;
  Atomic.incr t.checkpoints;
  let tables =
    on_shards t (fun s ->
        List.filter_map
          (fun pid -> Option.map (fun l -> pid, l) (Cache.rec_lsn s.cache pid))
          (Cache.dirty_pages s.cache))
  in
  let dirty_pages = List.concat (Array.to_list tables) in
  let lsn = Log_manager.append t.log (Record.Checkpoint { dirty_pages; note = name }) in
  Log_manager.force t.log ~upto:lsn

let checkpoint_sharded t =
  ensure_open t;
  ignore (await_recovery t);
  drain t;
  Atomic.incr t.checkpoints;
  Span.span "kv.checkpoint" ~attrs:[ "shards", Span.Int t.nshards ] @@ fun () ->
  let parent = Span.current () in
  (* One write-graph install per shard, each on its owner domain. The
     drain above quiesced normal traffic, so the only concurrent
     appends are the installs' own shard records — the horizon
     argument in [Installer] covers exactly this interleaving. *)
  let reports =
    on_shards t (fun s ->
        Metrics.incr c_installs;
        let run () =
          Installer.install ~domains:1
            ~before_install:(fun upto -> Log_manager.force t.log ~upto)
            ~note:(Printf.sprintf "%s.%d" name s.index)
            s.cache t.log
        in
        if Span.enabled () then
          Span.span ~parent "kv.shard.install" ~attrs:[ "shard", Span.Int s.index ] run
        else run ())
  in
  let components = Array.fold_left (fun acc r -> acc + r.Installer.components) 0 reports in
  let pages = Array.fold_left (fun acc r -> acc + r.Installer.pages_installed) 0 reports in
  (* Summary record: every dirty page was just installed and no worker
     has run since the drain, so the dirty-page table is empty — the
     scan start jumps to this record. Forcing it also flushes every
     piggybacked shard record in one batch. *)
  let lsn = Log_manager.append t.log (Record.Checkpoint { dirty_pages = []; note = name }) in
  Log_manager.force t.log ~upto:lsn;
  components, pages

(* ---- crash ---------------------------------------------------------- *)

let crash_with t ~torn ~drop =
  ensure_open t;
  (* A crash during instant restart abandons the undrained queues: the
     join happens before the drain so the sweeper stops feeding the
     mailboxes, and the pages it never reached simply stay stale — the
     next recovery's scan covers the same stable records again. *)
  stop_restart t;
  (* Quiesce first: every accepted operation is at least in the
     volatile log, and the crash then loses precisely the unforced
     tail — the same loss model as the single-domain facades. *)
  drain t;
  (* The crash gate tears the recorder's medium in step with the WAL's
     before volatile state is discarded. *)
  Flight.crash ~drop (Atomic.get t.crashes + 1);
  if torn then Log_manager.crash_torn t.log ~drop else Log_manager.crash t.log;
  (* Staged-but-unforced operations are gone; so are their tickets. *)
  if Oplat.enabled () then Oplat.drop_inflight ();
  ignore (on_shards t (fun s -> Cache.drop_volatile s.cache));
  Atomic.incr t.crashes

let crash t = crash_with t ~torn:false ~drop:0
let crash_torn t ~drop = crash_with t ~torn:true ~drop

(* ---- recovery ------------------------------------------------------- *)

(* Replay one page's or one shard's LSNs under the page-LSN redo test,
   on the owner domain, without re-logging (these records are already
   stable). The LSNs left are those [Page_redo.redo_pages] did not clear
   as surely on disk: only they are decoded, each once, here. *)
let replay_lsns (s : shard) a lsns =
  let redone = ref 0 and skipped = ref 0 in
  Array.iter
    (fun lsn ->
      match Record.payload (Page_redo.record a lsn) with
      | Record.Physiological { pid; op } ->
        if Page_redo.redo_one s.cache ~pid ~lsn Page_op.apply op then incr redone
        else incr skipped
      | _ -> assert false)
    lsns;
  !redone, !skipped

(* The lazy drain of one page's queue. The plan excluded everything
   surely on disk, so the only skips here are records a previous partial
   restart already applied. *)
let lazy_apply t a ~shard ~pid:_ lsns =
  let redone, skipped = replay_lsns t.shard_arr.(shard) a lsns in
  Metrics.add c_replayed redone;
  ignore (Atomic.fetch_and_add t.redone redone);
  ignore (Atomic.fetch_and_add t.skipped skipped);
  redone, skipped

(* The LSNs to redo, bucketed by owning shard in LSN order: count, then
   fill exact-sized arrays. *)
let shard_buckets t ~first pages =
  let first = Lsn.to_int first in
  let counts = Array.make t.nshards 0 in
  Array.iter
    (fun pid ->
      if pid >= 0 then begin
        let b = pid mod t.nshards in
        counts.(b) <- counts.(b) + 1
      end)
    pages;
  let buckets = Array.map (fun n -> Array.make n Lsn.zero) counts in
  let fill = Array.make t.nshards 0 in
  Array.iteri
    (fun i pid ->
      if pid >= 0 then begin
        let b = pid mod t.nshards in
        buckets.(b).(fill.(b)) <- Lsn.of_int (first + i);
        fill.(b) <- fill.(b) + 1
      end)
    pages;
  buckets

let recover ?(mode = `Eager) t =
  ensure_open t;
  (* Defensive: a recover issued while a previous instant restart is
     still draining supersedes it (the rescan covers the same records). *)
  stop_restart t;
  drain t;
  if Flight.enabled () then
    Flight.emit (Flight.Phase { name = "kv.recover"; crash = Atomic.get t.crashes });
  (* Open the recovery window before any scan work: time-to-first-op is
     measured from here. *)
  if Oplat.enabled () then Oplat.recovery_start ();
  let mode_name = match mode with `Eager -> "eager" | `Instant -> "instant" in
  Span.span "kv.recover"
    ~attrs:[ "shards", Span.Int t.nshards; "mode", Span.String mode_name ]
  @@ fun () ->
  (* The analysis is read-only once built, and reads the log through a
     view that is safe on any domain: sharing it with the owner domains
     is safe. It decodes only the checkpoint and the shard records it
     needs; the replays below decode the records they redo. *)
  let a = Page_redo.analyze t.log ~pages:t.n_partitions in
  let first, last = Page_redo.slice a in
  let scanned = Int.max 0 (Lsn.to_int last - Lsn.to_int first + 1) in
  let analysis_scanned = Page_redo.analysis_scanned a in
  match mode with
  | `Instant ->
    (* Instant restart: partition the redo slice into per-page queues
       of LSNs and return before replaying anything. Service resumes
       now; each touched page drains on demand on its owner domain, and
       the sweeper walks the cold tail hottest-first until the
       recovered set is total. *)
    let plan = Lazy_redo.plan_slice ~shards:t.nshards a in
    let preskipped = Lazy_redo.plan_preskipped plan in
    Atomic.incr t.recoveries;
    ignore (Atomic.fetch_and_add t.scanned scanned);
    ignore (Atomic.fetch_and_add t.skipped preskipped);
    if Lazy_redo.plan_pages plan = 0 then begin
      if Oplat.enabled () then Oplat.recovery_finished ()
    end
    else begin
      let lr = Lazy_redo.create ~plan ~apply:(lazy_apply t a) in
      Atomic.set t.restart (Some lr);
      (* The sweeper's touch is the same owner-domain fault a client
         takes, and it blocks per page, so a demand operation queued
         behind it waits for at most one page's drain. *)
      Lazy_redo.start_sweeper lr ~touch:(fun ~pid ~trigger ->
          let s = owner t pid in
          Mailbox.Ticket.await
            (Mailbox.call s.mailbox (fun () ->
                 if Lazy_redo.ensure lr ~pid ~trigger then after_drain lr)))
    end;
    { scanned; redone = 0; skipped = preskipped; analysis_scanned }
  | `Eager ->
    (* Bucket the redo slice's LSNs by owning shard — the plan
       [Core.Partition] would compute, coarsened to the static shard
       boundaries (each record touches one page; pages never change
       owner; so the buckets are conflict-closed and replay in parallel
       by Theorem 3). *)
    let pages, preskipped = Page_redo.redo_pages a in
    let buckets = shard_buckets t ~first pages in
    let parent = Span.current () in
    let results =
      let tickets =
        Array.mapi
          (fun i s ->
            let lsns = buckets.(i) in
            Mailbox.call s.mailbox (fun () ->
                if Span.enabled () then
                  Span.span ~parent "kv.shard.recover"
                    ~attrs:[ "shard", Span.Int s.index; "records", Span.Int (Array.length lsns) ]
                    (fun () -> replay_lsns s a lsns)
                else replay_lsns s a lsns))
          t.shard_arr
      in
      Array.map Mailbox.Ticket.await tickets
    in
    let redone = Array.fold_left (fun acc (r, _) -> acc + r) 0 results in
    let skipped = Array.fold_left (fun acc (_, s) -> acc + s) preskipped results in
    Metrics.add c_replayed redone;
    Atomic.incr t.recoveries;
    ignore (Atomic.fetch_and_add t.scanned scanned);
    ignore (Atomic.fetch_and_add t.redone redone);
    ignore (Atomic.fetch_and_add t.skipped skipped);
    if Oplat.enabled () then Oplat.recovery_finished ();
    { scanned; redone; skipped; analysis_scanned }

(* ---- certification -------------------------------------------------- *)

let projection t =
  Redo_methods.Projection.page_lsn ~method_name:name
    ~universe:(Kv_layout.universe ~partitions:t.n_partitions)
    ~disk:t.disk t.log

let verify_recovery_invariant t =
  let report =
    Theory_check.check ~domains:2 ~pool:(Redo_par.Domain_pool.shared ~domains:2) (projection t)
  in
  match report.Theory_check.failure with
  | None -> Ok report
  | Some msg -> Error msg

(* The single-threaded LSN-order replay of [records] from empty pages,
   and the number of operations it applied. *)
let serial_replay t records =
  let tbl = Hashtbl.create (max 16 t.n_partitions) in
  let ops =
    List.fold_left
      (fun ops r ->
        match Record.payload r with
        | Record.Physiological { pid; op } ->
          let data = Option.value (Hashtbl.find_opt tbl pid) ~default:Page.Empty in
          Hashtbl.replace tbl pid (Page_op.apply op data);
          ops + 1
        | _ -> ops)
      0 records
  in
  let contents =
    Hashtbl.fold
      (fun _ data acc ->
        (match data with
        | Page.Kv entries -> entries
        | Page.Empty -> []
        | d -> invalid_arg (Fmt.str "sharded serial replay: unexpected payload %a" Page.pp_data d))
        :: acc)
      tbl []
    |> Kv_layout.merge_dumps
  in
  ops, contents

let log_records t ~stable =
  if stable then Log_manager.stable_records t.log else Log_manager.all_records t.log

let serial_contents ?(stable = true) t = snd (serial_replay t (log_records t ~stable))

let certify t ~phase =
  ensure_open t;
  drain t;
  let stable, phase_name =
    match phase with `Live -> false, "live" | `Recovered -> true, "recovered"
  in
  let ops, serial = serial_replay t (log_records t ~stable) in
  Theory_check.certify_serial ~method_name:name ~phase:phase_name ~ops ~serial
    ~observed:(dump t)

(* ---- bookkeeping ---------------------------------------------------- *)

let stats t : stats =
  {
    puts = Atomic.get t.puts;
    deletes = Atomic.get t.deletes;
    gets = Atomic.get t.gets;
    checkpoints = Atomic.get t.checkpoints;
    crashes = Atomic.get t.crashes;
    recoveries = Atomic.get t.recoveries;
    records_scanned = Atomic.get t.scanned;
    records_redone = Atomic.get t.redone;
    records_skipped = Atomic.get t.skipped;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Sweeper first — it posts through the mailboxes about to close —
       then workers (their queued tasks may still barrier on the
       committer), then the committer's flusher. *)
    stop_restart t;
    Array.iter (fun s -> Mailbox.close s.mailbox) t.shard_arr;
    Group_commit.detach t.committer;
    (* The final flush ran under detach; account any stragglers. *)
    if Oplat.enabled () then Oplat.drain ()
  end

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "puts=%d deletes=%d gets=%d checkpoints=%d crashes=%d recoveries=%d scanned=%d redone=%d skipped=%d"
    s.puts s.deletes s.gets s.checkpoints s.crashes s.recoveries s.records_scanned
    s.records_redone s.records_skipped
