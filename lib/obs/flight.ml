(* Crash-surviving flight recorder.

   Every other observability layer (metrics, the span profiler, the
   latency tracer) lives in process memory, so the one event this whole
   repo is about — the crash — destroys it. The flight recorder is the
   layer that survives: compact, checksummed event frames appended to a
   bounded ring of stable segments, framed with exactly the WAL's
   discipline ([u32 payload-len | u32 crc32(payload) | payload], see
   Stable_log) so a torn recorder tail is detected and truncated during
   the scan just like a torn log tail.

   The model mirrors the simulated WAL medium: segments are "stable
   bytes" — a crash discards the process but keeps them, except for the
   torn suffix of the actively-written segment (the crash gate,
   Flight.crash ~drop, applies the same tear the log medium suffers).
   Post-crash triage (Triage, `redo triage`) then reads the survivors
   with no help from live process state.

   Concurrency: one global recorder behind a mutex. Emission sites guard
   on [enabled ()] (a single Atomic load-and-branch, the Span.enabled
   pattern), so the disabled cost is one branch; when enabled, each
   frame takes the recorder mutex for the encode+append. That is
   deliberate — unlike spans, frames must land in one totally-ordered
   durable sequence, and per-domain monotone sequence numbers are
   assigned under the same lock so "no lost or interleaved frames" is
   checkable after the fact. *)

type event =
  | Commit of { lsn : int }  (* group-commit barrier completed: stability claimed *)
  | Stage of { lsn : int }  (* async force request staged into the next batch *)
  | Batch of { upto : int; requests : int }  (* one batched force served [requests] waiters *)
  | Force of { upto : int; records : int }  (* stable horizon advanced by [records] *)
  | Checkpoint of { lsn : int; dirty : int }  (* global checkpoint record appended *)
  | Shard_ckpt of {
      lsn : int;  (* LSN of the Shard_checkpoint WAL record *)
      shard : int;
      total : int;
      horizon : int;
      pages : int list;  (* pages the shard record covers *)
    }
  | Flush of { page : int; forced : bool }  (* cache wrote a dirty page *)
  | Evict of { page : int; dirty : bool }  (* cache evicted an entry *)
  | Phase of { name : string; crash : int }  (* recovery phase transition *)
  | Crash of { crash : int; torn : bool }  (* emitted just before the medium tears *)
  | Note of string
  | Lazy_drain of { page : int; queue : int; demand : bool }
    (* instant restart drained one page's redo queue ([queue] records);
       [demand] = a client op faulted on it, else the background sweeper *)

type frame = { seq : int; domain : int; ts_ns : int; event : event }

(* ---- event codec --------------------------------------------------- *)

let tag_of_event = function
  | Commit _ -> 1
  | Stage _ -> 2
  | Batch _ -> 3
  | Force _ -> 4
  | Checkpoint _ -> 5
  | Shard_ckpt _ -> 6
  | Flush _ -> 7
  | Evict _ -> 8
  | Phase _ -> 9
  | Crash _ -> 10
  | Note _ -> 11
  | Lazy_drain _ -> 12

let event_name = function
  | Commit _ -> "flight.commit"
  | Stage _ -> "flight.stage"
  | Batch _ -> "flight.batch"
  | Force _ -> "flight.force"
  | Checkpoint _ -> "flight.checkpoint"
  | Shard_ckpt _ -> "flight.shard_ckpt"
  | Flush _ -> "flight.flush"
  | Evict _ -> "flight.evict"
  | Phase _ -> "flight.phase"
  | Crash _ -> "flight.crash"
  | Note _ -> "flight.note"
  | Lazy_drain _ -> "flight.lazy_drain"

let event_attrs : event -> (string * Span.value) list = function
  | Commit { lsn } -> [ ("lsn", Span.Int lsn) ]
  | Stage { lsn } -> [ ("lsn", Span.Int lsn) ]
  | Batch { upto; requests } -> [ ("upto", Span.Int upto); ("requests", Span.Int requests) ]
  | Force { upto; records } -> [ ("upto", Span.Int upto); ("records", Span.Int records) ]
  | Checkpoint { lsn; dirty } -> [ ("lsn", Span.Int lsn); ("dirty", Span.Int dirty) ]
  | Shard_ckpt { lsn; shard; total; horizon; pages } ->
    [
      ("lsn", Span.Int lsn);
      ("shard", Span.Int shard);
      ("total", Span.Int total);
      ("horizon", Span.Int horizon);
      ("pages", Span.Int (List.length pages));
    ]
  | Flush { page; forced } -> [ ("page", Span.Int page); ("forced", Span.Bool forced) ]
  | Evict { page; dirty } -> [ ("page", Span.Int page); ("dirty", Span.Bool dirty) ]
  | Phase { name; crash } -> [ ("phase", Span.String name); ("crash", Span.Int crash) ]
  | Crash { crash; torn } -> [ ("crash", Span.Int crash); ("torn", Span.Bool torn) ]
  | Note s -> [ ("note", Span.String s) ]
  | Lazy_drain { page; queue; demand } ->
    [ ("page", Span.Int page); ("queue", Span.Int queue); ("demand", Span.Bool demand) ]

exception Decode_error of string

let add_varint buf n =
  if n < 0 then invalid_arg "Flight: negative varint";
  let rec go n =
    if n < 0x80 then Buffer.add_uint8 buf n
    else begin
      Buffer.add_uint8 buf (0x80 lor (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

let add_bool buf b = Buffer.add_uint8 buf (if b then 1 else 0)

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let read_varint s pos =
  let n = ref 0 and shift = ref 0 and fin = ref false in
  while not !fin do
    if !pos >= String.length s then raise (Decode_error "truncated varint");
    if !shift > 56 then raise (Decode_error "oversized varint");
    let b = Char.code s.[!pos] in
    incr pos;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then fin := true
  done;
  !n

let read_bool s pos =
  match read_varint s pos with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Decode_error "bad bool")

let read_str s pos =
  let len = read_varint s pos in
  if !pos + len > String.length s then raise (Decode_error "truncated string");
  let r = String.sub s !pos len in
  pos := !pos + len;
  r

let encode_payload buf { seq; domain; ts_ns; event } =
  Buffer.add_uint8 buf (tag_of_event event);
  add_varint buf seq;
  add_varint buf domain;
  add_varint buf (max 0 ts_ns);
  match event with
  | Commit { lsn } | Stage { lsn } -> add_varint buf lsn
  | Batch { upto; requests } ->
    add_varint buf upto;
    add_varint buf requests
  | Force { upto; records } ->
    add_varint buf upto;
    add_varint buf records
  | Checkpoint { lsn; dirty } ->
    add_varint buf lsn;
    add_varint buf dirty
  | Shard_ckpt { lsn; shard; total; horizon; pages } ->
    add_varint buf lsn;
    add_varint buf shard;
    add_varint buf total;
    add_varint buf horizon;
    add_varint buf (List.length pages);
    List.iter (add_varint buf) pages
  | Flush { page; forced } ->
    add_varint buf page;
    add_bool buf forced
  | Evict { page; dirty } ->
    add_varint buf page;
    add_bool buf dirty
  | Phase { name; crash } ->
    add_varint buf crash;
    add_str buf name
  | Crash { crash; torn } ->
    add_varint buf crash;
    add_bool buf torn
  | Note s -> add_str buf s
  | Lazy_drain { page; queue; demand } ->
    add_varint buf page;
    add_varint buf queue;
    add_bool buf demand

let decode_payload s =
  let pos = ref 0 in
  if String.length s = 0 then raise (Decode_error "empty payload");
  let tag = Char.code s.[0] in
  incr pos;
  let seq = read_varint s pos in
  let domain = read_varint s pos in
  let ts_ns = read_varint s pos in
  let event =
    match tag with
    | 1 -> Commit { lsn = read_varint s pos }
    | 2 -> Stage { lsn = read_varint s pos }
    | 3 ->
      let upto = read_varint s pos in
      Batch { upto; requests = read_varint s pos }
    | 4 ->
      let upto = read_varint s pos in
      Force { upto; records = read_varint s pos }
    | 5 ->
      let lsn = read_varint s pos in
      Checkpoint { lsn; dirty = read_varint s pos }
    | 6 ->
      let lsn = read_varint s pos in
      let shard = read_varint s pos in
      let total = read_varint s pos in
      let horizon = read_varint s pos in
      let npages = read_varint s pos in
      let pages = List.init npages (fun _ -> read_varint s pos) in
      Shard_ckpt { lsn; shard; total; horizon; pages }
    | 7 ->
      let page = read_varint s pos in
      Flush { page; forced = read_bool s pos }
    | 8 ->
      let page = read_varint s pos in
      Evict { page; dirty = read_bool s pos }
    | 9 ->
      let crash = read_varint s pos in
      Phase { name = read_str s pos; crash }
    | 10 ->
      let crash = read_varint s pos in
      Crash { crash; torn = read_bool s pos }
    | 11 -> Note (read_str s pos)
    | 12 ->
      let page = read_varint s pos in
      let queue = read_varint s pos in
      Lazy_drain { page; queue; demand = read_bool s pos }
    | t -> raise (Decode_error (Printf.sprintf "unknown tag %d" t))
  in
  if !pos <> String.length s then raise (Decode_error "trailing bytes");
  { seq; domain; ts_ns; event }

(* ---- stable segment ring ------------------------------------------- *)

(* Same frame header as Stable_log: u32 payload length, u32 CRC. *)
let header_size = 8

type segment = {
  mutable s_buf : Bytes.t;
  mutable s_len : int;
  mutable s_gen : int;  (* 0 = never written; generations start at 1 *)
  mutable s_frames : int;
}

type recorder = {
  mutable segs : segment array;
  mutable active : int;
  mutable seg_bytes : int;
  mutable next_gen : int;
  mutable dropped : int;  (* frames overwritten by ring rotation *)
  mutable rotations : int;
  mutable t0_ns : int;
  seqs : (int, int ref) Hashtbl.t;  (* domain id -> last seq *)
  scratch : Buffer.t;
}

let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled v = Atomic.set on v

let mutex = Mutex.create ()

let default_segments = 4
let default_segment_bytes = 64 * 1024

let make_segment bytes = { s_buf = Bytes.create bytes; s_len = 0; s_gen = 0; s_frames = 0 }

let r =
  {
    segs = Array.init default_segments (fun _ -> make_segment default_segment_bytes);
    active = 0;
    seg_bytes = default_segment_bytes;
    next_gen = 2;
    dropped = 0;
    rotations = 0;
    t0_ns = int_of_float (Span.now_ns ());
    seqs = Hashtbl.create 8;
    scratch = Buffer.create 256;
  }

let () = r.segs.(0).s_gen <- 1

let c_frames = Metrics.counter "flight.frames"
let c_bytes = Metrics.counter "flight.bytes"
let c_rotations = Metrics.counter "flight.rotations"
let c_dropped = Metrics.counter "flight.dropped_frames"

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let configure_locked ~segments ~segment_bytes () =
  if segments < 2 then invalid_arg "Flight.configure: need at least 2 segments";
  if segment_bytes < 64 then invalid_arg "Flight.configure: segment_bytes too small";
  r.segs <- Array.init segments (fun _ -> make_segment segment_bytes);
  r.segs.(0).s_gen <- 1;
  r.active <- 0;
  r.seg_bytes <- segment_bytes;
  r.next_gen <- 2;
  r.dropped <- 0;
  r.rotations <- 0;
  r.t0_ns <- int_of_float (Span.now_ns ());
  Hashtbl.reset r.seqs

let configure ?(segments = default_segments) ?(segment_bytes = default_segment_bytes) () =
  locked (configure_locked ~segments ~segment_bytes)

let reset () =
  locked (fun () ->
      configure_locked ~segments:(Array.length r.segs) ~segment_bytes:r.seg_bytes ())

(* Advance the ring: the oldest segment is overwritten, its frames are
   gone for good (that is the bound working as designed — the recorder
   keeps the recent past, not the whole flight). *)
let rotate_locked () =
  r.active <- (r.active + 1) mod Array.length r.segs;
  let s = r.segs.(r.active) in
  if s.s_frames > 0 then begin
    r.dropped <- r.dropped + s.s_frames;
    Metrics.add c_dropped s.s_frames
  end;
  s.s_len <- 0;
  s.s_frames <- 0;
  s.s_gen <- r.next_gen;
  r.next_gen <- r.next_gen + 1;
  r.rotations <- r.rotations + 1;
  Metrics.incr c_rotations

let next_seq_locked domain =
  match Hashtbl.find_opt r.seqs domain with
  | Some cell ->
    incr cell;
    !cell
  | None ->
    Hashtbl.replace r.seqs domain (ref 1);
    1

let append_locked event =
  let domain = (Domain.self () :> int) in
  let seq = next_seq_locked domain in
  let ts_ns = int_of_float (Span.now_ns ()) - r.t0_ns in
  Buffer.clear r.scratch;
  encode_payload r.scratch { seq; domain; ts_ns; event };
  let payload = Buffer.contents r.scratch in
  let plen = String.length payload in
  let frame = header_size + plen in
  if frame > r.seg_bytes then begin
    (* A frame that cannot fit even an empty segment is dropped
       rather than silently corrupting the ring. *)
    r.dropped <- r.dropped + 1;
    Metrics.incr c_dropped
  end
  else begin
    let s = r.segs.(r.active) in
    let s =
      if s.s_len + frame > r.seg_bytes then begin
        rotate_locked ();
        r.segs.(r.active)
      end
      else s
    in
    Bytes.set_int32_be s.s_buf s.s_len (Int32.of_int plen);
    Bytes.set_int32_be s.s_buf (s.s_len + 4) (Int32.of_int (Checksum.string payload));
    Bytes.blit_string payload 0 s.s_buf (s.s_len + header_size) plen;
    s.s_len <- s.s_len + frame;
    s.s_frames <- s.s_frames + 1;
    Metrics.incr c_frames;
    Metrics.add c_bytes frame
  end

let emit event = if Atomic.get on then locked (fun () -> append_locked event)

(* ---- crash --------------------------------------------------------- *)

(* The crash gate. The crash takes the recorder's medium with it: the
   actively-written segment loses its torn suffix (same [drop] the WAL
   medium suffers), then the epoch is sealed, so post-crash recording
   never muddies the pre-crash evidence. Only then is the Crash marker
   stamped, into the fresh segment: nobody records their own crash
   mid-flight, so the marker is the gate's bookkeeping and survives
   every tear, which triage's epoch scoping relies on. *)
let crash ?(drop = 0) crash_no =
  if Atomic.get on then
    locked (fun () ->
        let s = r.segs.(r.active) in
        if drop > 0 then s.s_len <- max 0 (s.s_len - drop);
        if s.s_len > 0 then rotate_locked ();
        append_locked (Crash { crash = crash_no; torn = drop > 0 }))

(* ---- scan ---------------------------------------------------------- *)

type scan = {
  frames : frame list;  (* decode order = emit order, oldest surviving first *)
  segments_used : int;
  torn_segments : int;  (* segments whose tail failed the frame scan *)
  live_bytes : int;
  dropped_frames : int;  (* lost to ring rotation or oversize, not to tears *)
  rotations : int;  (* how often the ring wrapped (each wrap drops a segment) *)
}

(* Walk one segment's frames until the bytes stop making sense —
   short header, short payload, bad CRC, or an undecodable payload.
   Everything after the first bad frame is the torn tail. *)
let decode_segment_bytes data len =
  let frames = ref [] and pos = ref 0 and torn = ref false and stop = ref false in
  while not !stop do
    if !pos + header_size > len then begin
      if !pos < len then torn := true;
      stop := true
    end
    else begin
      let plen = Int32.to_int (Bytes.get_int32_be data !pos) in
      let crc = Int32.to_int (Bytes.get_int32_be data (!pos + 4)) land 0xFFFFFFFF in
      if plen < 0 || !pos + header_size + plen > len then begin
        torn := true;
        stop := true
      end
      else begin
        let payload = Bytes.sub_string data (!pos + header_size) plen in
        if Checksum.string payload <> crc then begin
          torn := true;
          stop := true
        end
        else
          match decode_payload payload with
          | frame ->
            frames := frame :: !frames;
            pos := !pos + header_size + plen
          | exception Decode_error _ ->
            torn := true;
            stop := true
      end
    end
  done;
  (List.rev !frames, !torn)

let scan_segments segs =
  (* Oldest generation first: decode order is emit order. *)
  let segs =
    List.filter (fun (gen, _, len) -> gen > 0 && len >= 0) segs
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let frames, used, torn, bytes =
    List.fold_left
      (fun (frames, used, torn, bytes) (_, data, len) ->
        if len = 0 then (frames, used, torn, bytes)
        else begin
          let fs, is_torn = decode_segment_bytes data len in
          (frames @ fs, used + 1, (torn + if is_torn then 1 else 0), bytes + len)
        end)
      ([], 0, 0, 0) segs
  in
  (frames, used, torn, bytes)

let scan () =
  locked (fun () ->
      let segs =
        Array.to_list r.segs |> List.map (fun s -> (s.s_gen, s.s_buf, s.s_len))
      in
      let frames, segments_used, torn_segments, live_bytes = scan_segments segs in
      {
        frames;
        segments_used;
        torn_segments;
        live_bytes;
        dropped_frames = r.dropped;
        rotations = r.rotations;
      })

(* ---- dump files ---------------------------------------------------- *)

(* A dump is the recorder's stable medium serialised for offline triage:
   magic, segment count, drop/rotation tallies, then each written
   segment (generation order) as [u32 gen | u32 len | bytes]. Torn
   tails are preserved verbatim — the loader re-runs the same
   truncating scan. v1 dumps lack the rotation count; the loader
   accepts both and reads 0 rotations from v1. *)
let magic = "REDOFLT2"
let magic_v1 = "REDOFLT1"

let save file =
  locked (fun () ->
      let segs =
        Array.to_list r.segs
        |> List.filter (fun s -> s.s_gen > 0 && s.s_len > 0)
        |> List.sort (fun a b -> compare a.s_gen b.s_gen)
      in
      let oc = open_out_bin file in
      Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
      output_string oc magic;
      let b4 = Bytes.create 4 in
      let u32 n =
        Bytes.set_int32_be b4 0 (Int32.of_int n);
        output_bytes oc b4
      in
      u32 (List.length segs);
      u32 r.dropped;
      u32 r.rotations;
      List.iter
        (fun s ->
          u32 s.s_gen;
          u32 s.s_len;
          output_bytes oc (Bytes.sub s.s_buf 0 s.s_len))
        segs)

let load file =
  let ic = open_in_bin file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let m = really_input_string ic (String.length magic) in
  if m <> magic && m <> magic_v1 then
    failwith (Printf.sprintf "Flight.load: %s is not a flight dump" file);
  let b4 = Bytes.create 4 in
  let u32 () =
    really_input ic b4 0 4;
    Int32.to_int (Bytes.get_int32_be b4 0)
  in
  let count = u32 () in
  let dropped = u32 () in
  let rotations = if m = magic then u32 () else 0 in
  let segs =
    List.init count (fun _ ->
        let gen = u32 () in
        let len = u32 () in
        let data = Bytes.create len in
        really_input ic data 0 len;
        (gen, data, len))
  in
  let frames, segments_used, torn_segments, live_bytes = scan_segments segs in
  { frames; segments_used; torn_segments; live_bytes; dropped_frames = dropped; rotations }

(* ---- rendering ----------------------------------------------------- *)

let pp_event ppf = function
  | Commit { lsn } -> Fmt.pf ppf "commit      lsn=%d (told stable)" lsn
  | Stage { lsn } -> Fmt.pf ppf "stage       lsn=%d" lsn
  | Batch { upto; requests } -> Fmt.pf ppf "batch       upto=%d requests=%d" upto requests
  | Force { upto; records } -> Fmt.pf ppf "force       upto=%d records=%d" upto records
  | Checkpoint { lsn; dirty } -> Fmt.pf ppf "checkpoint  lsn=%d dirty=%d" lsn dirty
  | Shard_ckpt { lsn; shard; total; horizon; pages } ->
    Fmt.pf ppf "shard_ckpt  lsn=%d shard=%d/%d horizon=%d pages=%d" lsn shard total horizon
      (List.length pages)
  | Flush { page; forced } -> Fmt.pf ppf "flush       page=%d forced=%b" page forced
  | Evict { page; dirty } -> Fmt.pf ppf "evict       page=%d dirty=%b" page dirty
  | Phase { name; crash } -> Fmt.pf ppf "phase       %s (crash %d)" name crash
  | Crash { crash; torn } -> Fmt.pf ppf "CRASH       #%d torn=%b" crash torn
  | Note s -> Fmt.pf ppf "note        %s" s
  | Lazy_drain { page; queue; demand } ->
    Fmt.pf ppf "lazy_drain  page=%d queue=%d trigger=%s" page queue
      (if demand then "demand" else "sweeper")

let pp_frame ppf f =
  Fmt.pf ppf "+%-12d d%d #%-5d %a" f.ts_ns f.domain f.seq pp_event f.event

let frame_to_json f =
  let attrs =
    event_attrs f.event
    |> List.map (fun (k, v) -> Span.json_string k ^ ": " ^ Span.json_value v)
    |> String.concat ", "
  in
  Printf.sprintf "{\"event\": %s, \"seq\": %d, \"domain\": %d, \"ts_ns\": %d, %s}"
    (Span.json_string (event_name f.event)) f.seq f.domain f.ts_ns attrs
