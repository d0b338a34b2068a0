open Redo_storage
module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span
module Flight = Redo_obs.Flight
module Oplat = Redo_obs.Oplat

(* Process-wide telemetry, resolved once; recording is a field update. *)
let c_appends = Metrics.counter "wal.appends"
let c_bytes_staged = Metrics.counter "wal.bytes_staged"
let c_forces = Metrics.counter "wal.forces"
let c_records_forced = Metrics.counter "wal.records_forced"
let c_bytes_written = Metrics.counter "wal.bytes_written"
let c_restores = Metrics.counter "wal.restores"
let h_records_per_force = Metrics.histogram ~bounds:Metrics.count_bounds "wal.records_per_force"
let h_force_ns = Metrics.histogram "wal.force_ns"

type stats = {
  appended_bytes : int;
  stable_bytes : int;
  forces : int;
  appended_records : int;
}

(* The cells behind [stats]. Writers are serialized (single domain, or
   the group mutex), but readers snapshot from any domain — Atomics make
   that well-defined without widening the lock. *)
type counters = {
  a_appended_bytes : int Atomic.t;
  a_stable_bytes : int Atomic.t;
  a_forces : int Atomic.t;
  a_appended_records : int Atomic.t;
}

(* Hooks installed by [Group_commit]; see the .mli. *)
type group = {
  g_mutex : Mutex.t;
  g_stage : Lsn.t -> unit;
  g_barrier : Lsn.t -> unit;
  g_barrier_all : unit -> unit;
  g_crash : unit -> unit;
  g_detach : unit -> unit;
}

(* LSNs are dense (1, 2, 3, ...) and survivors of a crash are always a
   prefix, so slot [i] holds the record with LSN [i+1]. Slots below
   [base] are the frames a restore walked below the master record: each
   keeps only its frame's offset and is decoded on read. Slots from
   [base] on are decoded records in a growable array. Append pushes,
   force walks only the newly stable slice, and the read paths are
   slices — nothing filters or sorts the whole log. *)
type t = {
  mutable offs : int array;  (* slots 0..base-1: frame offsets in [medium] *)
  mutable base : int;
  mutable arr : Record.t array;  (* slot i >= base is arr.(i - base) *)
  mutable len : int;
  capacity : int;  (* initial array size on first push *)
  mutable flushed : Lsn.t;  (* records with lsn <= flushed are stable *)
  mutable ckpts : int list;  (* slots of global checkpoint records, newest first *)
  mutable shard_ckpts : int list;  (* slots of shard checkpoint records, newest first *)
  medium : Stable_log.t;  (* the crash-surviving frames and master cell *)
  counters : counters;
  mutable group : group option;
}

type ticket = { tk_log : t; tk_upto : Lsn.t }

let create ?(capacity = 16) () =
  {
    offs = [||];
    base = 0;
    arr = [||];
    len = 0;
    capacity = max 16 capacity;
    flushed = Lsn.zero;
    ckpts = [];
    shard_ckpts = [];
    (* ~48 stable bytes per record covers the common logical/
       physiological payloads; oversizing only costs slack. *)
    medium = Stable_log.create ~capacity:(max 1024 (capacity * 48)) ();
    counters =
      {
        a_appended_bytes = Atomic.make 0;
        a_stable_bytes = Atomic.make 0;
        a_forces = Atomic.make 0;
        a_appended_records = Atomic.make 0;
      };
    group = None;
  }

let stats t =
  {
    appended_bytes = Atomic.get t.counters.a_appended_bytes;
    stable_bytes = Atomic.get t.counters.a_stable_bytes;
    forces = Atomic.get t.counters.a_forces;
    appended_records = Atomic.get t.counters.a_appended_records;
  }

let medium t = t.medium

let push t r =
  let i = t.len - t.base in
  if i = Array.length t.arr then begin
    let arr = Array.make (max t.capacity (2 * i)) r in
    Array.blit t.arr 0 arr 0 i;
    t.arr <- arr
  end;
  t.arr.(i) <- r;
  t.len <- t.len + 1

let index_kind t slot : Codec.kind -> unit = function
  | Op -> ()
  | Checkpoint -> t.ckpts <- slot :: t.ckpts
  | Shard_checkpoint -> t.shard_ckpts <- slot :: t.shard_ckpts

(* The record in [slot]: from the array, or decoded from its frame with
   the CRC re-checked. *)
let record t slot =
  if slot >= t.base then t.arr.(slot - t.base)
  else Stable_log.read_record t.medium ~offset:t.offs.(slot) ~lsn:(Lsn.of_int (slot + 1))

let append_unlocked t payload =
  let lsn = Lsn.of_int (t.len + 1) in
  let r = Record.make ~lsn payload in
  (match payload with
  | Record.Checkpoint c ->
    t.ckpts <- t.len :: t.ckpts;
    if Flight.enabled () then
      Flight.emit
        (Flight.Checkpoint { lsn = Lsn.to_int lsn; dirty = List.length c.Record.dirty_pages })
  | Record.Shard_checkpoint _ -> t.shard_ckpts <- t.len :: t.shard_ckpts
  | _ -> ());
  push t r;
  let framed = Codec.encoded_size r + 8 in
  Atomic.fetch_and_add t.counters.a_appended_bytes framed |> ignore;
  Atomic.incr t.counters.a_appended_records;
  Metrics.incr c_appends;
  Metrics.add c_bytes_staged framed;
  lsn

let append t payload =
  match t.group with
  | None -> append_unlocked t payload
  | Some g ->
    (* Concurrent committers share the array; the committer's mutex is
       the serialization point for both appends and its forces. *)
    Mutex.lock g.g_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock g.g_mutex) (fun () ->
        append_unlocked t payload)

let last_lsn t = Lsn.of_int t.len
let flushed_lsn t = t.flushed

(* Number of live slots covered by the stable horizon. *)
let stable_len t = min (Lsn.to_int t.flushed) t.len

(* The newest global checkpoint slot below [last], or -1. *)
let rec newest_below last = function
  | slot :: older -> if slot >= last then newest_below last older else slot
  | [] -> -1

let force_run t ~upto =
  Atomic.incr t.counters.a_forces;
  let t0 = Span.now_ns () in
  let first = Lsn.to_int t.flushed and last = Lsn.to_int upto in
  let bytes_before = Stable_log.byte_size t.medium in
  let ckpt = newest_below last t.ckpts in
  let ckpt_offset = ref (-1) in
  for i = first to last - 1 do
    if i = ckpt then ckpt_offset := Stable_log.byte_size t.medium;
    ignore (Stable_log.append_record t.medium t.arr.(i - t.base))
  done;
  (* The master moves only once the checkpoint's frame is on the medium;
     a crash before this write restarts from the previous master. *)
  if !ckpt_offset >= 0 then
    Stable_log.set_master t.medium
      (Some { Stable_log.ckpt_lsn = Lsn.of_int (ckpt + 1); offset = !ckpt_offset });
  let stable_bytes = Stable_log.byte_size t.medium in
  Atomic.set t.counters.a_stable_bytes stable_bytes;
  t.flushed <- upto;
  Metrics.incr c_forces;
  Metrics.add c_records_forced (last - first);
  Metrics.add c_bytes_written (stable_bytes - bytes_before);
  Metrics.observe h_records_per_force (float (last - first));
  Metrics.observe h_force_ns (Span.now_ns () -. t0);
  (* Recorded after the medium write, so a surviving Force frame is a
     durable claim the triage pass can hold the stable log to. Frames
     are per-force, not per-append: append coverage at batch
     granularity keeps the recorder off the append fast path. *)
  if Flight.enabled () then
    Flight.emit (Flight.Force { upto = last; records = last - first });
  (* The covered tickets' force edge; eventually-durable ones complete
     here (durable ones complete at their barrier's ack). *)
  if Oplat.enabled () then Oplat.force_completed ~upto:last;
  if Span.enabled () then
    Span.note
      [
        "records", Span.Int (last - first);
        "bytes", Span.Int (stable_bytes - bytes_before);
      ]

let force_direct t ~upto =
  let upto = if Lsn.to_int upto > t.len then last_lsn t else upto in
  if Lsn.(t.flushed < upto) then
    (* [force_run] is a named function, not a closure: the disabled
       path adds a single branch, no allocation. *)
    if Span.enabled () then Span.span "wal.force" (fun () -> force_run t ~upto)
    else force_run t ~upto

let force t ~upto =
  match t.group with
  | None -> force_direct t ~upto
  | Some g -> g.g_barrier upto

let force_all t =
  match t.group with
  | None -> force_direct t ~upto:(last_lsn t)
  | Some g ->
    (* The committer captures [last_lsn] under its mutex — the same
       consistency point as the force — so a concurrent append cannot
       widen the promised range mid-call. *)
    g.g_barrier_all ()

let force_async t ~upto =
  (match t.group with
  | None ->
    (* No committer: eventual durability degrades to immediate. *)
    force_direct t ~upto
  | Some g -> g.g_stage upto);
  { tk_log = t; tk_upto = upto }

let await tk =
  if Lsn.(tk.tk_log.flushed < tk.tk_upto) then force tk.tk_log ~upto:tk.tk_upto

let ticket_lsn tk = tk.tk_upto
let ticket_stable tk = Lsn.(tk.tk_upto <= tk.tk_log.flushed)

let set_group t g = t.group <- g
let group_attached t = t.group <> None

let detach_group t =
  match t.group with
  | None -> ()
  | Some g -> g.g_detach ()

(* Fills the array slots past the decoded tail that a restore frees. *)
let vacant = Record.make ~lsn:Lsn.zero (Record.App_op { tag = ""; body = "" })

let restore_from_medium t =
  (* The medium is the source of truth after a crash. Below the master
     record only frame headers are walked: each slot keeps its frame's
     offset. From the master on, the frames that survive (and checksum)
     refill the decoded array in place, in LSN order. *)
  let stale = t.len - t.base in
  t.len <- 0;
  t.base <- 0;
  t.ckpts <- [];
  t.shard_ckpts <- [];
  (match Stable_log.master t.medium with
  | Some { Stable_log.ckpt_lsn; _ } when Array.length t.offs < Lsn.to_int ckpt_lsn ->
    t.offs <- Array.make (Lsn.to_int ckpt_lsn) 0
  | _ -> ());
  Stable_log.restore t.medium
    ~frame:(fun slot offset kind ->
      t.offs.(slot) <- offset;
      index_kind t slot kind;
      t.base <- slot + 1;
      t.len <- slot + 1)
    ~push:(fun r ->
      index_kind t t.len (Codec.payload_kind (Record.payload r));
      push t r);
  (* Drop the lost epoch's decoded records past the new tail, so they
     are garbage at once. *)
  let tail = t.len - t.base in
  if stale > tail then Array.fill t.arr tail (stale - tail) vacant;
  t.flushed <- Lsn.of_int t.len;
  Atomic.set t.counters.a_stable_bytes (Stable_log.byte_size t.medium);
  Metrics.incr c_restores

(* A crash discards group-staged async requests: staged-but-unflushed
   work is lost, never completed. Acquiring the committer's mutex inside
   [g_crash] also guarantees no group force is mid-flight while the
   medium is truncated. *)
let notify_group_crash t =
  match t.group with
  | None -> ()
  | Some g -> g.g_crash ()

let crash t =
  notify_group_crash t;
  restore_from_medium t

let crash_torn t ~drop =
  (* A final force was racing the crash: it managed to write the whole
     unforced tail except the last [drop] bytes, leaving a torn frame.
     Already-forced bytes are never touched — anything WAL-gated (page
     flushes) only ever waited on completed forces. Under group commit
     this models the batch racing the crash: its waiters were never
     completed, so nothing observable claimed the torn frames. *)
  notify_group_crash t;
  let before = Stable_log.byte_size t.medium in
  for i = Lsn.to_int t.flushed to t.len - 1 do
    ignore (Stable_log.append_record t.medium t.arr.(i - t.base))
  done;
  Stable_log.tear t.medium ~drop:(min drop (Stable_log.byte_size t.medium - before));
  restore_from_medium t

let slice t ~lo ~hi =
  (* Records in slots lo..hi-1, in LSN order. *)
  let rec go i acc = if i < lo then acc else go (i - 1) (record t i :: acc) in
  if hi <= lo then [] else go (hi - 1) []

let stable_records t = slice t ~lo:0 ~hi:(stable_len t)

let records_from t ~from =
  slice t ~lo:(max 0 (Lsn.to_int from - 1)) ~hi:(stable_len t)

let all_records t = slice t ~lo:0 ~hi:t.len

let last_stable_checkpoint t =
  let stable = stable_len t in
  match List.find_opt (fun slot -> slot < stable) t.ckpts with
  | None -> None
  | Some slot ->
    (match record t slot with
    | { Record.lsn; payload = Record.Checkpoint c } -> Some (lsn, c)
    | _ -> assert false)

let stable_shard_checkpoints t =
  let stable = stable_len t in
  List.filter_map
    (fun slot ->
      if slot >= stable then None
      else
        match record t slot with
        | { Record.lsn; payload = Record.Shard_checkpoint sc } -> Some (lsn, sc)
        | _ -> assert false)
    t.shard_ckpts

let stable_shard_horizons t =
  (* Newest-first + first-wins: each page's horizon is the newest stable
     shard record that claims it. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, (sc : Record.shard_ckpt)) ->
      List.iter
        (fun pid ->
          if not (Hashtbl.mem tbl pid) then Hashtbl.add tbl pid sc.Record.horizon)
        sc.Record.shard_pages)
    (stable_shard_checkpoints t);
  Hashtbl.fold (fun pid h acc -> (pid, h) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stable_op_records t =
  (* Every stable record is either an operation's record or checkpoint
     metadata, and the checkpoint indexes list the latter, so the
     durable-operation count is a subtraction, not a scan. *)
  let stable = stable_len t in
  let below = List.fold_left (fun n slot -> if slot < stable then n + 1 else n) 0 in
  stable - below t.ckpts - below t.shard_ckpts

let length t = t.len

let pp ppf t =
  Fmt.pf ppf "log: %d records, flushed=%a, %d stable bytes" t.len Lsn.pp t.flushed
    (Stable_log.byte_size t.medium)
