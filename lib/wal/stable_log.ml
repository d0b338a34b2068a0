(* The stable log medium: an append-only byte sequence of frames

     [ u32 payload-length | u32 crc32(payload) | payload bytes ]

   A crash can leave a torn final frame (a partial append); the
   pre-recovery scan reads frames until the bytes run out or a checksum
   fails, and everything from the first bad frame on is discarded —
   exactly the "log scan prior to recovery" the paper's abstract model
   glosses over.

   Beside the bytes sits the master cell: the LSN and frame offset of the
   newest forced global checkpoint. It is not part of the log, so it
   costs no log bytes. A restart walks only the frame headers below it
   and checks frames from it on, peeking at each frame's LSN, kind and
   page id; it decodes nothing. A frame is decoded when a reader asks
   for it, with its CRC checked again.

   The medium is a growable byte array with an explicit length, so an
   append is one blit of the payload into the medium with its header
   written in place, and tearing/truncation just move the length — no
   wholesale copies of the log on the hot path. Scans and reads checksum
   and decode every frame in place, in the medium's own bytes. *)

open Redo_storage
module Metrics = Redo_obs.Metrics
module Span = Redo_obs.Span

let c_frames = Metrics.counter "stable_log.frames_encoded"
let c_checked = Metrics.counter "stable_log.frames_checked"
let c_decoded = Metrics.counter "stable_log.frames_decoded"
let c_scans = Metrics.counter "stable_log.scans"
let c_torn_scans = Metrics.counter "stable_log.torn_scans"
let c_truncated_bytes = Metrics.counter "stable_log.truncated_bytes"
let h_scan_ns = Metrics.histogram "stable_log.scan_ns"

exception Corrupt_frame of { lsn : int; offset : int; reason : string }

let () =
  Printexc.register_printer (function
    | Corrupt_frame { lsn; offset; reason } ->
      Some (Printf.sprintf "Stable_log.Corrupt_frame: LSN %d, frame at byte %d: %s" lsn offset reason)
    | _ -> None)

let corrupt lsn offset reason = raise (Corrupt_frame { lsn; offset; reason })

type master = { ckpt_lsn : Lsn.t; offset : int }

type t = {
  mutable data : Bytes.t;
  mutable len : int;  (* bytes 0..len-1 are the log; the rest is slack *)
  mutable master : master option;
}

let header_size = 8

let create ?(capacity = 1024) () =
  { data = Bytes.create (max 64 capacity); len = 0; master = None }

let byte_size t = t.len
let contents t = Bytes.sub_string t.data 0 t.len
let master t = t.master
let set_master t m = t.master <- m

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

let payload_length data pos = Int32.to_int (Bytes.get_int32_be data pos)
let frame_crc data pos = Int32.to_int (Bytes.get_int32_be data (pos + 4)) land 0xFFFFFFFF

(* The checked walk, from byte [from]: each frame's header bounds and
   CRC are checked in the medium's bytes, and [frame pos payload_pos
   payload_len] sees each frame that passes; it returns [false] to end
   the walk at that frame. Returns where the trustworthy prefix ends and
   whether a torn tail follows it. No payload is copied out, and nothing
   is decoded here: {!scan} decodes in its callback, {!restore} peeks. *)
let walk_checked t ~from ~frame =
  let t0 = Span.now_ns () in
  let data = t.data and len = t.len in
  let count = ref 0 in
  let rec go pos =
    if pos = len then pos, false
    else if pos + header_size > len then pos, true
    else
      let payload_len = payload_length data pos in
      let payload_pos = pos + header_size in
      if payload_len < 0 || payload_len > len - payload_pos then pos, true
      else if Checksum.update 0 data ~pos:payload_pos ~len:payload_len <> frame_crc data pos
      then pos, true
      else if not (frame pos payload_pos payload_len) then pos, true
      else begin
        incr count;
        go (payload_pos + payload_len)
      end
  in
  let end_pos, cut = go from in
  Metrics.incr c_scans;
  Metrics.add c_checked !count;
  if cut then Metrics.incr c_torn_scans;
  Metrics.observe h_scan_ns (Span.now_ns () -. t0);
  end_pos, cut

(* A frame that passes its CRC but does not decode ends the scan as
   torn: the scan is a diagnostic read of the whole medium, and reports
   the prefix it could read. *)
let scan t =
  let acc = ref [] and decoded = ref 0 in
  let valid_bytes, torn =
    walk_checked t ~from:0 ~frame:(fun _ pos len ->
        match Codec.decode_window t.data ~pos ~len with
        | record ->
          acc := record :: !acc;
          incr decoded;
          true
        | exception Codec.Decode_error _ -> false)
  in
  Metrics.add c_decoded !decoded;
  { records = List.rev !acc; valid_bytes; torn }

(* The header-only walk of bytes [0, upto): per frame, the length must
   keep the frame inside [upto] and the payload must start with the
   frame's own LSN, its ordinal from 1. No CRC, no decode. *)
let walk_headers t ~upto ~frames ~frame =
  let data = t.data in
  let rec go pos slot =
    if pos = upto then slot
    else begin
      let lsn = slot + 1 in
      if slot = frames then corrupt lsn pos "more frames lie below the master than it names";
      if upto - pos < header_size then corrupt lsn pos "frame header overruns the master's offset";
      let payload_len = payload_length data pos in
      let payload_pos = pos + header_size in
      if payload_len < 0 || payload_len > upto - payload_pos then
        corrupt lsn pos (Printf.sprintf "frame length %d overruns the master's offset" payload_len);
      let found = Codec.peek_lsn data ~pos:payload_pos ~len:payload_len in
      if found <> lsn then corrupt lsn pos (Printf.sprintf "frame starts with LSN %d" found);
      frame ~slot ~offset:pos ~kind:(Codec.peek_kind data ~pos:payload_pos)
        ~pid:(Codec.peek_pid data ~pos:payload_pos ~len:payload_len);
      go (payload_pos + payload_len) lsn
    end
  in
  go 0 0

let restore t ~frame =
  let upto, frames =
    match t.master with
    | None -> 0, 0
    | Some { ckpt_lsn; offset } ->
      let lsn = Lsn.to_int ckpt_lsn in
      if offset < 0 || offset > t.len then
        corrupt lsn offset "the master's offset lies past the end of the log";
      offset, lsn - 1
  in
  let walked = walk_headers t ~upto ~frames ~frame in
  if walked <> frames then
    corrupt (walked + 1) upto
      (Printf.sprintf "the walk reached the master's offset at LSN %d; the master names LSN %d"
         (walked + 1) (frames + 1));
  (* From the master's frame on, a frame that fails its bounds or CRC is
     a torn tail; one that checks but does not carry its ordinal LSN was
     written wrong, and is corruption. *)
  let slot = ref frames in
  let end_pos, cut =
    walk_checked t ~from:upto ~frame:(fun pos payload_pos payload_len ->
        let lsn = !slot + 1 in
        let found = Codec.peek_lsn t.data ~pos:payload_pos ~len:payload_len in
        if found <> lsn then corrupt lsn pos (Printf.sprintf "frame holds LSN %d" found);
        frame ~slot:!slot ~offset:pos ~kind:(Codec.peek_kind t.data ~pos:payload_pos)
          ~pid:(Codec.peek_pid t.data ~pos:payload_pos ~len:payload_len);
        slot := lsn;
        true)
  in
  (* The master's frame was forced before the cell was written: it can
     be corrupt, never torn, and is never truncated away. *)
  if t.master <> None && end_pos = upto then
    corrupt (frames + 1) upto "the master's checkpoint frame does not check";
  if cut then begin
    Metrics.add c_truncated_bytes (t.len - end_pos);
    t.len <- end_pos
  end

(* The checks a reader makes before it trusts a frame: header bounds,
   CRC, and the LSN the payload starts with. Returns the payload's
   length; the payload starts [header_size] bytes into the frame. *)
let checked_payload t ~offset ~lsn =
  let data = t.data in
  let len = t.len in
  let n = Lsn.to_int lsn in
  if offset < 0 || offset > len - header_size then
    corrupt n offset "frame header lies past the end of the log";
  let payload_len = payload_length data offset in
  let payload_pos = offset + header_size in
  if payload_len < 0 || payload_len > len - payload_pos then
    corrupt n offset (Printf.sprintf "frame length %d runs past the end of the log" payload_len);
  if Checksum.update 0 data ~pos:payload_pos ~len:payload_len <> frame_crc data offset then
    corrupt n offset "CRC mismatch";
  let found = Codec.peek_lsn data ~pos:payload_pos ~len:payload_len in
  if found <> n then corrupt n offset (Printf.sprintf "frame holds LSN %d" found);
  payload_len

let check_frame t ~offset ~lsn =
  ignore (checked_payload t ~offset ~lsn);
  Metrics.incr c_checked

let read_record t ~offset ~lsn =
  let len = checked_payload t ~offset ~lsn in
  match Codec.decode_window t.data ~pos:(offset + header_size) ~len with
  | exception Codec.Decode_error msg -> corrupt (Lsn.to_int lsn) offset ("does not decode: " ^ msg)
  | record ->
    Metrics.incr c_decoded;
    record

let snapshot t = { data = t.data; len = t.len; master = t.master }

let corrupt_byte t ~pos =
  if pos < 0 || pos >= t.len then invalid_arg "Stable_log.corrupt_byte";
  Bytes.set t.data pos (Char.chr (Char.code (Bytes.get t.data pos) lxor 0xff))
