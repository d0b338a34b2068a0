(* The stable log medium: an append-only byte sequence of frames

     [ u32 payload-length | u32 crc32(payload) | payload bytes ]

   A crash can leave a torn final frame (a partial append); the
   pre-recovery scan reads frames until the bytes run out or a checksum
   fails, and everything from the first bad frame on is discarded —
   exactly the "log scan prior to recovery" the paper's abstract model
   glosses over.

   The medium is a growable byte array with an explicit length, so an
   append is one blit of the payload into the medium with its header
   written in place, and tearing/truncation just move the length — no
   wholesale copies of the log on the hot path. The scan checksums and
   decodes every frame in place, in the medium's own bytes. *)

module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span

let c_frames = Metrics.counter "stable_log.frames_encoded"
let c_scans = Metrics.counter "stable_log.scans"
let c_scan_records = Metrics.counter "stable_log.scan_records"
let c_torn_scans = Metrics.counter "stable_log.torn_scans"
let c_truncated_bytes = Metrics.counter "stable_log.truncated_bytes"
let h_scan_ns = Metrics.histogram "stable_log.scan_ns"

type t = {
  mutable data : Bytes.t;
  mutable len : int;  (* bytes 0..len-1 are the log; the rest is slack *)
}

let header_size = 8

let create ?(capacity = 1024) () =
  { data = Bytes.create (max 64 capacity); len = 0 }

let byte_size t = t.len
let contents t = Bytes.sub_string t.data 0 t.len

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.data then begin
    let cap = ref (max 1024 (Bytes.length t.data)) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let data = Bytes.create !cap in
    Bytes.blit t.data 0 data 0 t.len;
    t.data <- data
  end

(* The payload goes straight to its place in the medium; the header
   follows, its CRC taken over the medium's own bytes. *)
let append t payload =
  let n = String.length payload in
  ensure t (header_size + n);
  let pos = t.len in
  Bytes.blit_string payload 0 t.data (pos + header_size) n;
  Bytes.set_int32_be t.data pos (Int32.of_int n);
  let crc = Checksum.update 0 t.data ~pos:(pos + header_size) ~len:n in
  Bytes.set_int32_be t.data (pos + 4) (Int32.of_int crc);
  t.len <- pos + header_size + n;
  Metrics.incr c_frames;
  header_size + n

let append_record t record = append t (Codec.encode_record record)

(* Simulate a torn write: chop the final [drop] bytes (at most one
   frame's worth matters; chopping into a frame makes it unreadable). *)
let tear t ~drop = if drop > 0 then t.len <- max 0 (t.len - drop)

type scan_result = {
  records : Record.t list;
  valid_bytes : int;
  torn : bool;  (* the tail was cut short or corrupt *)
}

(* The scan proper: each frame's header bounds, CRC and decode are
   checked in the medium's bytes — no payload is copied out — and the
   surviving records go to [push] in order. Returns where the
   trustworthy prefix ends and whether a torn tail follows it. *)
let scan_frames t ~push =
  let t0 = Span.now_ns () in
  let data = t.data and len = t.len in
  let count = ref 0 in
  let rec go pos =
    if pos = len then pos, false
    else if pos + header_size > len then pos, true
    else
      let payload_len = Int32.to_int (Bytes.get_int32_be data pos) in
      let crc = Int32.to_int (Bytes.get_int32_be data (pos + 4)) land 0xFFFFFFFF in
      let payload_pos = pos + header_size in
      if payload_len < 0 || payload_len > len - payload_pos then pos, true
      else if Checksum.update 0 data ~pos:payload_pos ~len:payload_len <> crc then pos, true
      else
        match Codec.decode_window data ~pos:payload_pos ~len:payload_len with
        | record ->
          push record;
          incr count;
          go (payload_pos + payload_len)
        | exception Codec.Decode_error _ -> pos, true
  in
  let end_pos, cut = go 0 in
  Metrics.incr c_scans;
  Metrics.add c_scan_records !count;
  if cut then Metrics.incr c_torn_scans;
  Metrics.observe h_scan_ns (Span.now_ns () -. t0);
  end_pos, cut

let scan t =
  let acc = ref [] in
  let valid_bytes, torn = scan_frames t ~push:(fun r -> acc := r :: !acc) in
  { records = List.rev !acc; valid_bytes; torn }

let truncate_torn t ~push =
  let end_pos, cut = scan_frames t ~push in
  if cut then begin
    Metrics.add c_truncated_bytes (t.len - end_pos);
    t.len <- end_pos
  end

let corrupt_byte t ~pos =
  if pos < 0 || pos >= t.len then invalid_arg "Stable_log.corrupt_byte";
  Bytes.set t.data pos (Char.chr (Char.code (Bytes.get t.data pos) lxor 0xff))
