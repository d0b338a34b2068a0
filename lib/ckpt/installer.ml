open Redo_storage
open Redo_wal
module Domain_pool = Redo_par.Domain_pool
module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span
module Flight = Redo_obs.Flight
module Int_set = Set.Make (Int)

let c_installs = Metrics.counter "ckpt.installs"
let c_components = Metrics.counter "ckpt.components"
let c_pages_installed = Metrics.counter "ckpt.pages_installed"
let c_shard_records = Metrics.counter "ckpt.shard_records"

(* The sharded KV service runs one [install] per shard-owner domain
   concurrently, so both histograms are observed under
   [Metrics.observe_locked]; counters are Atomics and need nothing. *)
let h_install_ns = Metrics.histogram "ckpt.install_ns"
let h_component_pages = Metrics.histogram ~bounds:Metrics.count_bounds "ckpt.component_pages"

type component = {
  pages : int list;
  batch : (int * Page.t) list;
  max_page_lsn : Lsn.t;
  min_rec_lsn : Lsn.t;
}

type report = {
  components : int;
  pages_installed : int;
  records : Lsn.t list;
}

(* ---- write-graph assembly ------------------------------------------ *)

(* Union-find over the dirty pages, the same component argument
   [Core.Partition] applies to the recovery log: a careful-write-order
   edge between two dirty pages conflicts them into one atomic install
   unit; everything else commutes (Theorem 3 applied to the write
   graph). Edges with a clean endpoint are already collapsed — the
   clean page's version is on the disk. *)
let plan cache =
  let dirty = Cache.dirty_pages cache in
  match dirty with
  | [] -> []
  | _ ->
    let parent = Hashtbl.create 64 in
    List.iter (fun pid -> Hashtbl.replace parent pid pid) dirty;
    let rec find pid =
      let p = Hashtbl.find parent pid in
      if p = pid then pid
      else begin
        let root = find p in
        Hashtbl.replace parent pid root;  (* path compression *)
        root
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    (* Only both-dirty edges survive into the live write graph. *)
    let edges =
      List.filter
        (fun (first, next) -> Cache.is_dirty cache first && Cache.is_dirty cache next)
        (Cache.flush_orders cache)
    in
    List.iter (fun (first, next) -> union first next) edges;
    (* Bucket pages and edges by component root. *)
    let comp_pages = Hashtbl.create 16 in
    List.iter
      (fun pid ->
        let root = find pid in
        let prev = Option.value ~default:[] (Hashtbl.find_opt comp_pages root) in
        Hashtbl.replace comp_pages root (pid :: prev))
      dirty;
    let comp_edges = Hashtbl.create 16 in
    List.iter
      (fun ((first, _) as e) ->
        let root = find first in
        let prev = Option.value ~default:[] (Hashtbl.find_opt comp_edges root) in
        Hashtbl.replace comp_edges root (e :: prev))
      edges;
    (* Kahn's algorithm per component, always taking the smallest ready
       page, so the careful order within a batch is deterministic. *)
    let topo_batch pages edges =
      let succs = Hashtbl.create 8 in
      let indeg = Hashtbl.create 8 in
      List.iter (fun pid -> Hashtbl.replace indeg pid 0) pages;
      List.iter
        (fun (first, next) ->
          let prev = Option.value ~default:Int_set.empty (Hashtbl.find_opt succs first) in
          if not (Int_set.mem next prev) then begin
            Hashtbl.replace succs first (Int_set.add next prev);
            Hashtbl.replace indeg next (Hashtbl.find indeg next + 1)
          end)
        edges;
      let ready =
        ref
          (List.fold_left
             (fun acc pid -> if Hashtbl.find indeg pid = 0 then Int_set.add pid acc else acc)
             Int_set.empty pages)
      in
      let order = ref [] in
      let count = ref 0 in
      while not (Int_set.is_empty !ready) do
        let pid = Int_set.min_elt !ready in
        ready := Int_set.remove pid !ready;
        order := pid :: !order;
        incr count;
        Int_set.iter
          (fun next ->
            let d = Hashtbl.find indeg next - 1 in
            Hashtbl.replace indeg next d;
            if d = 0 then ready := Int_set.add next !ready)
          (Option.value ~default:Int_set.empty (Hashtbl.find_opt succs pid))
      done;
      if !count <> List.length pages then
        raise (Cache.Flush_cycle (List.filter (fun p -> Hashtbl.find indeg p > 0) pages));
      List.rev !order
    in
    let components =
      Hashtbl.fold
        (fun root pages acc ->
          let pages = List.sort Int.compare pages in
          let edges = Option.value ~default:[] (Hashtbl.find_opt comp_edges root) in
          let ordered = topo_batch pages edges in
          let batch =
            List.map
              (fun pid ->
                match Cache.peek cache pid with
                | Some page -> pid, page
                | None -> assert false (* dirty pages are cached *))
              ordered
          in
          let max_page_lsn =
            List.fold_left
              (fun acc (_, page) -> if Lsn.(acc < Page.lsn page) then Page.lsn page else acc)
              Lsn.zero batch
          in
          let min_rec_lsn =
            List.fold_left
              (fun acc pid ->
                match Cache.rec_lsn cache pid with
                | Some l when Lsn.(l < acc) -> l
                | _ -> acc)
              max_page_lsn pages
          in
          { pages; batch; max_page_lsn; min_rec_lsn } :: acc)
        comp_pages []
    in
    (* Hottest component first: most pages, oldest first-dirty LSN as
       the tiebreak (the longest replay tail), then first page for
       determinism. *)
    List.sort
      (fun a b ->
        match compare (List.length b.pages) (List.length a.pages) with
        | 0 ->
          (match Lsn.compare a.min_rec_lsn b.min_rec_lsn with
          | 0 -> compare a.pages b.pages
          | c -> c)
        | c -> c)
      components

(* ---- installation -------------------------------------------------- *)

(* Install one component's batch: plain mutex-guarded page writes, safe
   from any domain. All cache and log bookkeeping stays on the
   coordinator. *)
let write_batch disk comp = List.iter (fun (pid, page) -> Disk.write disk pid page) comp.batch

let install_run ?pool ~domains ?before_install ~note cache log =
  let t0 = Span.now_ns () in
  let comps =
    if Span.enabled () then Span.span "ckpt.assemble" (fun () -> plan cache) else plan cache
  in
  let total = List.length comps in
  let pages_installed = List.fold_left (fun acc c -> acc + List.length c.pages) 0 comps in
  Metrics.incr c_installs;
  Metrics.add c_components total;
  Metrics.add c_pages_installed pages_installed;
  List.iter
    (fun c -> Metrics.observe_locked h_component_pages (float (List.length c.pages)))
    comps;
  if Span.enabled () then
    Span.note [ "components", Span.Int total; "pages", Span.Int pages_installed ];
  (* The write-ahead half of the protocol, once for the whole install:
     every page image about to be written must have its records stable
     first. Methods that log pass [Log_manager.force log ~upto] here. *)
  (match before_install, comps with
  | Some f, _ :: _ ->
    let upto =
      List.fold_left
        (fun acc c -> if Lsn.(acc < c.max_page_lsn) then c.max_page_lsn else acc)
        Lsn.zero comps
    in
    f upto
  | _ -> ());
  let records = ref [] in
  (* Collapse the component into installed nodes and publish its
     horizon. Runs on the calling domain only — [Cache] is not
     domain-safe, and [Log_manager] appends are only serialized while a
     group committer is attached. Captured just before its own append,
     the horizon covers every record that can touch the shard's pages:
     within one install the only appends are shard records, and when
     several installs run concurrently (one per shard-owner domain,
     group committer attached) the interleaved appends are other
     shards' records — none touch this component's pages, and this
     caller's own earlier appends are below the captured horizon by
     program order. A concurrently-read [last_lsn] may lag the true
     tail; a smaller horizon only claims less, never too much. *)
  let complete idx comp =
    List.iter (Cache.note_installed cache) comp.pages;
    let horizon = Log_manager.last_lsn log in
    let lsn =
      Log_manager.append log
        (Record.Shard_checkpoint
           {
             shard_pages = comp.pages;
             horizon;
             shard_index = idx;
             shard_total = total;
             shard_note = note;
           })
    in
    (* Eventual durability is enough here: graded durability means an
       unforced shard record is simply invisible to
       [stable_shard_checkpoints], never claimed. With a group committer
       attached the record piggybacks on the next batch (one force for
       the whole install instead of one per shard); without one this is
       the old synchronous force. *)
    ignore (Log_manager.force_async log ~upto:lsn);
    records := lsn :: !records;
    Metrics.incr c_shard_records;
    (* The pages list rides along so post-crash triage can check the
       surviving record set against the per-page horizons recovery
       reads. *)
    if Flight.enabled () then
      Flight.emit
        (Flight.Shard_ckpt
           {
             lsn = Lsn.to_int lsn;
             shard = idx;
             total;
             horizon = Lsn.to_int horizon;
             pages = comp.pages;
           })
  in
  let disk = Cache.disk cache in
  let parallel = (domains > 1 || pool <> None) && total > 1 in
  if not parallel then List.iteri (fun idx comp -> write_batch disk comp; complete idx comp) comps
  else begin
    let owned = match pool with Some _ -> None | None -> Some (Domain_pool.create ~domains) in
    let p = match pool with Some p -> p | None -> Option.get owned in
    Fun.protect
      ~finally:(fun () -> Option.iter Domain_pool.shutdown owned)
      (fun () ->
        (* A private completion channel: workers only write pages and
           push; the coordinator does the bookkeeping in completion
           order, so the hottest (first-submitted) component's horizon
           is published as early as possible. *)
        let m = Mutex.create () in
        let ready = Condition.create () in
        let q = Queue.create () in
        let profiled = Span.enabled () in
        let parent = if profiled then Span.current () else 0 in
        List.iteri
          (fun idx comp ->
            Domain_pool.submit p (fun () ->
                let run () =
                  match write_batch disk comp with
                  | () -> None
                  | exception e -> Some e
                in
                let err =
                  if profiled then
                    Span.span ~parent "ckpt.component"
                      ~attrs:
                        [ "shard", Span.Int idx; "pages", Span.Int (List.length comp.pages) ]
                      run
                  else run ()
                in
                Mutex.lock m;
                Queue.add (idx, comp, err) q;
                Condition.signal ready;
                Mutex.unlock m))
          comps;
        let first_error = ref None in
        for _ = 1 to total do
          Mutex.lock m;
          while Queue.is_empty q do
            Condition.wait ready m
          done;
          let idx, comp, err = Queue.take q in
          Mutex.unlock m;
          match err with
          | None -> complete idx comp
          | Some e -> if !first_error = None then first_error := Some e
        done;
        match !first_error with Some e -> raise e | None -> ())
  end;
  Metrics.observe_locked h_install_ns (Span.now_ns () -. t0);
  { components = total; pages_installed; records = List.rev !records }

let install ?pool ?(domains = 1) ?before_install ?(note = "shard-ckpt") cache log =
  if Span.enabled () then
    Span.span "ckpt.install" (fun () -> install_run ?pool ~domains ?before_install ~note cache log)
  else install_run ?pool ~domains ?before_install ~note cache log
