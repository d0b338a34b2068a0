(* Standalone replays of a round's generated inputs through the inner
   modules' public functions, one layer at a time, outside the store.
   Batched costs are means (total / count), so a layer's cost times the
   count a counter reports is directly comparable with end-to-end time. *)

open Redo_storage
open Redo_wal
module Mailbox = Redo_par.Mailbox
module Lazy_redo = Redo_restart.Lazy_redo
module Kv_layout = Redo_methods.Kv_layout

type cost = { mean_ns : float; n : int }

let of_batch ~ns ~n = { mean_ns = float ns /. float (max 1 n); n }
let of_series s = { mean_ns = (if Sample.count s = 0 then 0. else Sample.mean s); n = Sample.count s }

let time f =
  let t0 = Sample.now_ns () in
  let r = f () in
  r, Sample.now_ns () - t0

(* ---- Mailbox: no-op tasks, as many as the round posted and called ---- *)

let mailbox ~posts ~calls =
  let mb = Mailbox.create ~name:"perfbench.mailbox" () in
  let (), post_ns =
    time (fun () ->
        for _ = 1 to posts do
          Mailbox.post mb ignore
        done)
  in
  Mailbox.drain mb;
  let rt = Sample.create ~kind:Per_op "mailbox.call_roundtrip" in
  for _ = 1 to calls do
    let t0 = Sample.now_ns () in
    Mailbox.Ticket.await (Mailbox.call mb ignore);
    Sample.add_op rt (float (Sample.now_ns () - t0))
  done;
  Mailbox.close mb;
  of_batch ~ns:post_ns ~n:posts, rt

(* ---- Log_manager + Group_commit + Codec: the round's records through
   a standalone log with an Inline committer, forced at every durable
   put as the store forces them ---------------------------------------- *)

type log_costs = { append : cost; force : cost; force_per_record : cost; encode : cost }

let payload ~key ~pages (op : Workload.op) =
  let pid r = Kv_layout.locate ~partitions:pages (key r) in
  match op with
  | Put (r, v) | Commit (r, v) ->
    Some (Record.Physiological { pid = pid r; op = Page_op.Put (key r, v) }, op)
  | Del r -> Some (Record.Physiological { pid = pid r; op = Page_op.Del (key r) }, op)
  | Get _ -> None

let log_manager ~key ~pages (inp : Workload.input) =
  let records =
    Array.of_list (List.filter_map (payload ~key ~pages) (Array.to_list (Array.append inp.write inp.serve)))
  in
  let lm = Log_manager.create ~capacity:(Array.length records + 16) () in
  let gc = Group_commit.create ~mode:Inline lm in
  let append_ns = ref 0 and force_ns = ref 0 and forces = ref 0 and forced = ref 0 in
  let batch_start = ref (Sample.now_ns ()) in
  Array.iter
    (fun (p, op) ->
      let lsn = Log_manager.append lm p in
      match op with
      | Workload.Commit _ ->
        let t0 = Sample.now_ns () in
        append_ns := !append_ns + (t0 - !batch_start);
        let before = Log_manager.flushed_lsn lm in
        Log_manager.force lm ~upto:lsn;
        let t1 = Sample.now_ns () in
        force_ns := !force_ns + (t1 - t0);
        incr forces;
        forced := !forced + (Lsn.to_int lsn - Lsn.to_int before);
        batch_start := t1
      | _ -> ())
    records;
  Group_commit.detach gc;
  let all = Log_manager.all_records lm in
  let (), encode_ns = time (fun () -> List.iter (fun r -> ignore (Codec.encode_record r)) all) in
  {
    append = of_batch ~ns:!append_ns ~n:!forced;
    force = of_batch ~ns:!force_ns ~n:!forces;
    force_per_record = of_batch ~ns:!force_ns ~n:!forced;
    encode = of_batch ~ns:encode_ns ~n:(List.length all);
  }

(* ---- Stable_log: scan (frame check + decode) of a store's medium ---- *)

let stable_log_scan medium =
  let s = Sample.create ~kind:Per_cycle "stable_log.scan" in
  let records = ref 0 in
  for _ = 1 to 3 do
    let r, ns = time (fun () -> Stable_log.scan medium) in
    records := List.length r.Stable_log.records;
    Sample.add_cycle s (float ns)
  done;
  { mean_ns = Sample.median s /. float (max 1 !records); n = !records }

(* ---- Cache + Page_op: the round's page accesses at the workload's
   capacity and keys per page. The serve trace runs first, on a cold
   cache over the preloaded disk, so every workload sees misses. ------ *)

type cache_costs = { update : cost; read_hit : cost; read_miss : cost }

let cache ~key (cfg : Workload.config) (inp : Workload.input) =
  let disk = Disk.create ~capacity:cfg.pages () in
  let cache = Cache.create ~capacity:cfg.cache ~before_flush:ignore disk in
  let lsn = ref 0 in
  let pid r = Kv_layout.locate ~partitions:cfg.pages (key r) in
  let update r op =
    incr lsn;
    Cache.update cache (pid r) ~lsn:(Lsn.of_int !lsn) (Page_op.apply op)
  in
  for r = 0 to cfg.keys - 1 do
    update r (Page_op.Put (key r, Workload.preload_value r))
  done;
  Cache.flush_all cache;
  Cache.drop_volatile cache;
  let hit = Sample.create ~kind:Per_op "cache.read_hit" in
  let miss = Sample.create ~kind:Per_op "cache.read_miss" in
  Array.iter
    (function
      | Workload.Get r ->
        let p = pid r in
        let misses = (Cache.stats cache).misses in
        let t0 = Sample.now_ns () in
        ignore (Cache.read cache p);
        let dt = float (Sample.now_ns () - t0) in
        Sample.add_op (if (Cache.stats cache).misses > misses then miss else hit) dt
      | Commit (r, v) -> update r (Page_op.Put (key r, v))
      | Put _ | Del _ -> ())
    inp.serve;
  let writes =
    Array.of_list
      (List.filter_map
         (function
           | Workload.Put (r, v) | Commit (r, v) -> Some (r, Page_op.Put (key r, v))
           | Del r -> Some (r, Page_op.Del (key r))
           | Get _ -> None)
         (Array.to_list inp.write))
  in
  let (), update_ns = time (fun () -> Array.iter (fun (r, op) -> update r op) writes) in
  {
    update = of_batch ~ns:update_ns ~n:(Array.length writes);
    read_hit = of_series hit;
    read_miss = of_series miss;
  }

(* ---- Lazy_redo.plan over a store's redo slice ----------------------- *)

let lazy_plan log =
  let from =
    match Log_manager.last_stable_checkpoint log with
    | None -> Lsn.of_int 1
    | Some (lsn, _) -> Lsn.next lsn
  in
  let slice = Log_manager.records_from log ~from in
  let s = Sample.create ~kind:Per_cycle "lazy_redo.plan" in
  for _ = 1 to 3 do
    let _, ns =
      time (fun () -> Lazy_redo.plan ~shards:1 ~surely_on_disk:(fun ~pid:_ ~lsn:_ -> false) slice)
    in
    Sample.add_cycle s (float ns)
  done;
  let n = List.length slice in
  { mean_ns = Sample.median s /. float (max 1 n); n }
