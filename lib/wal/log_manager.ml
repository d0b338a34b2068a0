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
   prefix, so slot [i] holds the record with LSN [i+1]. A slot takes one
   of two forms:
   - a stable slot (below the stable horizon) keeps no record. Int
     arrays hold its frame's offset in [medium] and its page word, both
     peeked from the frame; the record is decoded from the frame on
     read, with its CRC checked again. A restore fills these arrays and
     decodes nothing;
   - an unforced slot keeps its decoded record in [tail] until a force
     writes its frame, moves the slot into the arrays and drops the
     record.
   Append pushes, force walks only the newly stable slice, and the read
   paths are slices: nothing filters or sorts the whole log. *)
type t = {
  mutable offs : int array;  (* stable slot -> its frame's offset in [medium] *)
  mutable pages : int array;  (* stable slot -> its page word, see [page_word] *)
  mutable walked : int;
      (* slots below this were only header-walked by the last restore:
         their frames' CRCs are unchecked *)
  mutable tail : Record.t array;  (* unforced slot i is tail.(i - tail_base) *)
  mutable tail_base : int;  (* <= the stable horizon *)
  mutable len : int;
  capacity : int;  (* initial array sizes *)
  mutable flushed : Lsn.t;  (* records with lsn <= flushed are stable *)
  mutable ckpts : int list;  (* slots of global checkpoint records, newest first *)
  mutable shard_ckpts : int list;  (* slots of shard checkpoint records, newest first *)
  medium : Stable_log.t;  (* the crash-surviving frames and master cell *)
  counters : counters;
  mutable group : group option;
}

type ticket = { tk_log : t; tk_upto : Lsn.t }

(* A stable slot's page word: the page id of a physiological record, or
   one of these codes for the other kinds. *)
let other_op = -1
let global_ckpt = -2
let shard_ckpt = -3

let page_word ~(kind : Codec.kind) ~pid =
  match kind with
  | Op -> pid (* [Codec.peek_pid] is -1 = [other_op] for a non-page record *)
  | Checkpoint -> global_ckpt
  | Shard_checkpoint -> shard_ckpt

let record_page_word r =
  match Record.payload r with
  | Record.Physiological { pid; _ } -> pid
  | Record.Checkpoint _ -> global_ckpt
  | Record.Shard_checkpoint _ -> shard_ckpt
  | _ -> other_op

let create ?(capacity = 16) () =
  {
    offs = [||];
    pages = [||];
    walked = 0;
    tail = [||];
    tail_base = 0;
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

(* Number of live slots covered by the stable horizon. *)
let stable_len t = min (Lsn.to_int t.flushed) t.len

(* Fills the tail slots that hold no unforced record. *)
let vacant = Record.make ~lsn:Lsn.zero (Record.App_op { tag = ""; body = "" })

(* Room for [n] stable slots. The arrays grow by copy, so a view taken
   before keeps the old ones, which still hold every slot it names. *)
let reserve t n =
  let have = Array.length t.offs in
  if n > have then begin
    let cap = max n (max t.capacity (2 * have)) in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 have;
      b
    in
    t.offs <- grow t.offs;
    t.pages <- grow t.pages
  end

let push t r =
  let i = t.len - t.tail_base in
  if i = Array.length t.tail then begin
    (* Full: drop the forced prefix, whose records the forces already
       released, and grow only when the unforced records fill half the
       array. Amortized O(1) per push. *)
    let stable = stable_len t in
    let live = t.len - stable and from = stable - t.tail_base in
    if 2 * live < i then begin
      Array.blit t.tail from t.tail 0 live;
      Array.fill t.tail live (i - live) vacant
    end
    else begin
      (* Filled with the pushed record, not [vacant]: a young fill makes
         [Array.make] run a minor collection first, which the write
         path's set-up time measurably depends on (EXPERIMENTS.md E21). *)
      let tail = Array.make (max t.capacity (2 * i)) r in
      Array.blit t.tail from tail 0 live;
      t.tail <- tail
    end;
    t.tail_base <- stable
  end;
  t.tail.(t.len - t.tail_base) <- r;
  t.len <- t.len + 1

let index_kind t slot : Codec.kind -> unit = function
  | Op -> ()
  | Checkpoint -> t.ckpts <- slot :: t.ckpts
  | Shard_checkpoint -> t.shard_ckpts <- slot :: t.shard_ckpts

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
  reserve t last;
  (* Each record's frame goes to the medium, its slot into the arrays,
     and the record itself is dropped. *)
  for i = first to last - 1 do
    let j = i - t.tail_base in
    let r = t.tail.(j) in
    let offset = Stable_log.byte_size t.medium in
    if i = ckpt then ckpt_offset := offset;
    ignore (Stable_log.append_record t.medium r);
    t.offs.(i) <- offset;
    t.pages.(i) <- record_page_word r;
    t.tail.(j) <- vacant
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

let restore_from_medium t =
  (* The medium is the source of truth after a crash. The restore
     decodes nothing: each surviving frame's offset and page word fill
     the slot arrays in place, in LSN order. The lost epoch's unforced
     records are dropped first, so they are garbage at once. *)
  let stable = stable_len t in
  Array.fill t.tail (stable - t.tail_base) (t.len - stable) vacant;
  t.len <- 0;
  t.ckpts <- [];
  t.shard_ckpts <- [];
  let walked =
    match Stable_log.master t.medium with
    | Some { Stable_log.ckpt_lsn; _ } -> Lsn.to_int ckpt_lsn - 1
    | None -> 0
  in
  reserve t walked;
  Fun.protect
    ~finally:(fun () ->
      (* Also when the restore reports a corrupt frame: the log then
         holds the frames walked before it. *)
      t.tail_base <- t.len;
      t.flushed <- Lsn.of_int t.len;
      t.walked <- min walked t.len)
    (fun () ->
      Stable_log.restore t.medium ~frame:(fun ~slot ~offset ~kind ~pid ->
          if slot >= Array.length t.offs then reserve t (slot + 1);
          t.offs.(slot) <- offset;
          t.pages.(slot) <- page_word ~kind ~pid;
          index_kind t slot kind;
          t.len <- slot + 1));
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
    ignore (Stable_log.append_record t.medium t.tail.(i - t.tail_base))
  done;
  Stable_log.tear t.medium ~drop:(min drop (Stable_log.byte_size t.medium - before));
  restore_from_medium t

(* Readers on other domains than the committer's: a force may move
   slots from the tail into the arrays, or grow them, so a reader holds
   the committer's mutex while it looks at the slot fields. *)
let reading t f =
  match t.group with
  | None -> f ()
  | Some g ->
    Mutex.lock g.g_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock g.g_mutex) f

(* ---- views ---------------------------------------------------------- *)

(* A view holds the slot arrays and a snapshot of the medium as they
   were when it was taken. Every slot below [v_stable] stays as it was
   until the next restore: a force writes only slots at or above the
   horizon (into these arrays, or into copies when they grow), and an
   append writes only bytes past the snapshot's end (into these bytes,
   or into a copy). So a view is read on any domain without a lock, and
   without racing the committer. *)
type view = {
  v_medium : Stable_log.t;
  v_offs : int array;
  v_pages : int array;
  v_stable : int;
  v_walked : int;
  v_ckpts : int list;
  v_shard_ckpts : int list;
}

let capture t =
  {
    v_medium = Stable_log.snapshot t.medium;
    v_offs = t.offs;
    v_pages = t.pages;
    v_stable = stable_len t;
    v_walked = t.walked;
    v_ckpts = t.ckpts;
    v_shard_ckpts = t.shard_ckpts;
  }

let view t = reading t (fun () -> capture t)
let view_last v = Lsn.of_int v.v_stable

let view_slot v lsn =
  let slot = Lsn.to_int lsn - 1 in
  if slot < 0 || slot >= v.v_stable then
    invalid_arg (Printf.sprintf "Log_manager: LSN %d is not a stable record of the view" (slot + 1));
  slot

let view_record_at v slot =
  Stable_log.read_record v.v_medium ~offset:v.v_offs.(slot) ~lsn:(Lsn.of_int (slot + 1))

let view_record v lsn = view_record_at v (view_slot v lsn)

(* The page word, trusted: a frame the restore only header-walked has
   its CRC checked before anything peeked from it is used. *)
let view_word v lsn =
  let slot = view_slot v lsn in
  if slot < v.v_walked then
    Stable_log.check_frame v.v_medium ~offset:v.v_offs.(slot) ~lsn:(Lsn.of_int (slot + 1));
  v.v_pages.(slot)

let view_pid v lsn =
  let w = view_word v lsn in
  if w >= 0 then w else other_op

let view_kind v lsn : Codec.kind =
  let w = view_word v lsn in
  if w = global_ckpt then Checkpoint else if w = shard_ckpt then Shard_checkpoint else Op

(* ---- readers --------------------------------------------------------- *)

(* Stable records in slots lo..v_stable-1, in LSN order, decoded
   through the view. *)
let decode_from v ~lo =
  let rec go i acc = if i < lo then acc else go (i - 1) (view_record_at v i :: acc) in
  go (v.v_stable - 1) []

let stable_records t = decode_from (view t) ~lo:0

let records_from t ~from = decode_from (view t) ~lo:(max 0 (Lsn.to_int from - 1))

let all_records t =
  reading t (fun () ->
      let v = capture t in
      let rec unforced i acc =
        if i < v.v_stable then acc else unforced (i - 1) (t.tail.(i - t.tail_base) :: acc)
      in
      decode_from v ~lo:0 @ unforced (t.len - 1) [])

let last_stable_checkpoint t =
  let v = view t in
  match List.find_opt (fun slot -> slot < v.v_stable) v.v_ckpts with
  | None -> None
  | Some slot ->
    (match view_record_at v slot with
    | { Record.lsn; payload = Record.Checkpoint c } -> Some (lsn, c)
    | _ -> assert false)

(* Stable shard checkpoint records with LSN above [after], newest
   first. *)
let shard_records t ~after =
  let v = view t in
  List.filter_map
    (fun slot ->
      if slot >= v.v_stable || slot < after then None
      else
        match view_record_at v slot with
        | { Record.lsn; payload = Record.Shard_checkpoint sc } -> Some (lsn, sc)
        | _ -> assert false)
    v.v_shard_ckpts

let stable_shard_checkpoints t = shard_records t ~after:0

let stable_shard_horizons ?(after = Lsn.zero) t =
  (* Newest-first + first-wins: each page's horizon is the newest stable
     shard record that claims it. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, (sc : Record.shard_ckpt)) ->
      List.iter
        (fun pid ->
          if not (Hashtbl.mem tbl pid) then Hashtbl.add tbl pid sc.Record.horizon)
        sc.Record.shard_pages)
    (shard_records t ~after:(Lsn.to_int after));
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
