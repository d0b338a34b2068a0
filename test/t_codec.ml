open Redo_storage
open Redo_wal

let test_crc_known_value () =
  Alcotest.(check bool) "CRC32(123456789) = 0xCBF43926" true (Checksum.self_test ());
  Alcotest.(check int) "empty" 0 (Checksum.string "")

let test_crc_incremental () =
  let whole = Checksum.string "hello world" in
  let b = Bytes.of_string "hello world" in
  (* [update] un-finalizes the running CRC it is given, so feeding the
     rest of the bytes continues the one-shot CRC. *)
  let crc = Checksum.update 0 b ~pos:0 ~len:5 in
  let crc = Checksum.update crc b ~pos:5 ~len:6 in
  Alcotest.(check int) "chunked = whole" whole crc;
  Alcotest.(check int) "bytes = string" whole (Checksum.bytes b)

(* The bytewise table-driven CRC-32: the reference the slicing-by-8
   [Checksum.update] is held to. *)
let reference_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let reference_crc crc b ~pos ~len =
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc := reference_table.((!crc lxor Char.code (Bytes.get b i)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF land 0xFFFFFFFF

let rand_bytes rng n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))

let test_crc_matches_reference () =
  let rng = Random.State.make [| 0xc4c |] in
  (* Every length through the 8-byte steps and the bytewise tail, at
     every alignment of [pos] within a step. *)
  for len = 0 to 40 do
    for pos = 0 to 8 do
      let b = rand_bytes rng (pos + len + Random.State.int rng 9) in
      Alcotest.(check int)
        (Printf.sprintf "len %d pos %d" len pos)
        (reference_crc 0 b ~pos ~len) (Checksum.update 0 b ~pos ~len)
    done
  done

let prop_crc_matches_reference seed =
  let rng = Random.State.make [| seed; 0xc4c |] in
  let len = Random.State.int rng 4097 and pos = Random.State.int rng 16 in
  let b = rand_bytes rng (pos + len + Random.State.int rng 16) in
  let init = Random.State.full_int rng 0x1_0000_0000 in
  Checksum.update 0 b ~pos ~len = reference_crc 0 b ~pos ~len
  && Checksum.update init b ~pos ~len = reference_crc init b ~pos ~len

let prop_crc_chunked seed =
  (* Feeding a window in random consecutive chunks equals one update. *)
  let rng = Random.State.make [| seed; 0xc4c2 |] in
  let len = Random.State.int rng 4097 and pos = Random.State.int rng 16 in
  let b = rand_bytes rng (pos + len) in
  let rec feed crc at =
    if at = pos + len then crc
    else
      let n = 1 + Random.State.int rng (min 37 (pos + len - at)) in
      feed (Checksum.update crc b ~pos:at ~len:n) (at + n)
  in
  feed 0 pos = Checksum.update 0 b ~pos ~len

let test_crc_rejects_out_of_range () =
  let b = Bytes.create 16 in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | crc -> Alcotest.failf "%s: returned %x instead of raising" what crc
  in
  rejects "past the end" (fun () -> Checksum.bytes ~pos:8 ~len:64 b);
  rejects "before the start" (fun () -> Checksum.bytes ~pos:(-4) ~len:4 b);
  rejects "negative length" (fun () -> Checksum.update 0 b ~pos:4 ~len:(-1));
  rejects "start past the end" (fun () -> Checksum.bytes ~pos:17 b);
  rejects "one byte over" (fun () -> Checksum.update 0 b ~pos:1 ~len:16);
  Alcotest.(check int) "empty window at the end" 0 (Checksum.bytes ~pos:16 b);
  Alcotest.(check int) "whole window" (Checksum.bytes b) (Checksum.update 0 b ~pos:0 ~len:16)

(* --- random record generation for fuzzing --- *)

let rand_string rng =
  String.init (Random.State.int rng 12) (fun _ ->
      Char.chr (32 + Random.State.int rng 95))

let rand_entries rng =
  List.init (Random.State.int rng 5) (fun i ->
      Printf.sprintf "k%d%s" i (rand_string rng), rand_string rng)

let rand_data rng : Page.data =
  match Random.State.int rng 5 with
  | 0 -> Page.Empty
  | 1 -> Page.Bytes (rand_string rng)
  | 2 -> Page.Kv (rand_entries rng)
  | 3 -> Page.Node (Page.Leaf (rand_entries rng))
  | _ ->
    let n = Random.State.int rng 4 in
    Page.Node
      (Page.Internal
         {
           seps = List.init n (fun i -> Printf.sprintf "s%02d" i);
           children = List.init (n + 1) (fun i -> i + 1);
         })

let rand_page_op rng : Page_op.t =
  match Random.State.int rng 9 with
  | 0 -> Page_op.Put (rand_string rng, rand_string rng)
  | 1 -> Page_op.Del (rand_string rng)
  | 2 -> Page_op.Set_bytes (rand_string rng)
  | 3 -> Page_op.Leaf_put (rand_string rng, rand_string rng)
  | 4 -> Page_op.Leaf_del (rand_string rng)
  | 5 -> Page_op.Init_leaf (rand_entries rng)
  | 6 ->
    let n = Random.State.int rng 3 in
    Page_op.Init_internal
      {
        seps = List.init n (fun i -> Printf.sprintf "s%d" i);
        children = List.init (n + 1) (fun i -> i);
      }
  | 7 -> Page_op.Internal_add { sep = rand_string rng; right = Random.State.int rng 100 }
  | _ -> Page_op.Drop_from { key = rand_string rng }

let rand_payload rng : Record.payload =
  match Random.State.int rng 7 with
  | 0 -> Record.Physical { pid = Random.State.int rng 64; image = rand_data rng }
  | 1 -> Record.Physiological { pid = Random.State.int rng 64; op = rand_page_op rng }
  | 2 ->
    Record.Multi
      (if Random.State.bool rng then
         Multi_op.Split_to
           { src = Random.State.int rng 64; dst = Random.State.int rng 64; at = rand_string rng }
       else Multi_op.Copy { src = Random.State.int rng 64; dst = Random.State.int rng 64 })
  | 3 ->
    Record.Logical
      (if Random.State.bool rng then Record.Db_put (rand_string rng, rand_string rng)
       else Record.Db_del (rand_string rng))
  | 4 -> Record.App_op { tag = rand_string rng; body = rand_string rng }
  | 5 ->
    Record.Checkpoint
      {
        dirty_pages =
          List.init (Random.State.int rng 4) (fun i -> i, Lsn.of_int (1 + Random.State.int rng 50));
        note = rand_string rng;
      }
  | _ ->
    Record.Shard_checkpoint
      {
        shard_pages = List.init (Random.State.int rng 6) (fun _ -> Random.State.int rng 64);
        horizon = Lsn.of_int (Random.State.int rng 10_000);
        shard_index = Random.State.int rng 8;
        shard_total = 1 + Random.State.int rng 8;
        shard_note = rand_string rng;
      }

let rand_record rng = Record.make ~lsn:(Lsn.of_int (1 + Random.State.int rng 10_000)) (rand_payload rng)

let prop_roundtrip seed =
  let rng = Random.State.make [| seed; 0xc0dec |] in
  let r = rand_record rng in
  let r' = Codec.decode_record (Codec.encode_record r) in
  r = r'

(* [encoded_size] mirrors the encoder arithmetically instead of
   encoding; this pins the mirror to the real wire format so a codec
   change that forgets the size side cannot land. *)
let prop_encoded_size seed =
  let rng = Random.State.make [| seed; 0x512e |] in
  let r = rand_record rng in
  Codec.encoded_size r = String.length (Codec.encode_record r)

let test_decode_rejects_garbage () =
  (match Codec.decode_record "" with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "empty should fail");
  (match Codec.decode_record (String.make 9 '\xff') with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "garbage should fail");
  (* Trailing bytes are rejected too. *)
  let r = Record.make ~lsn:(Lsn.of_int 1) (Record.Logical (Record.Db_del "k")) in
  match Codec.decode_record (Codec.encode_record r ^ "x") with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes should fail"

let test_stable_log_roundtrip () =
  let log = Stable_log.create () in
  let rng = Random.State.make [| 5 |] in
  let records = List.init 20 (fun _ -> rand_record rng) in
  List.iter (fun r -> ignore (Stable_log.append_record log r)) records;
  let result = Stable_log.scan log in
  Alcotest.(check bool) "not torn" false result.Stable_log.torn;
  Alcotest.(check int) "all back" 20 (List.length result.Stable_log.records);
  Alcotest.(check bool) "identical" true (result.Stable_log.records = records)

let test_stable_log_torn_tail () =
  let log = Stable_log.create () in
  let rng = Random.State.make [| 6 |] in
  (* The restore checks that each frame carries its ordinal LSN, as a
     log manager writes them. *)
  let records =
    List.init 10 (fun i -> Record.make ~lsn:(Lsn.of_int (i + 1)) (rand_payload rng))
  in
  List.iter (fun r -> ignore (Stable_log.append_record log r)) records;
  Stable_log.tear log ~drop:3;
  let result = Stable_log.scan log in
  Alcotest.(check bool) "torn detected" true result.Stable_log.torn;
  Alcotest.(check int) "one record lost" 9 (List.length result.Stable_log.records);
  let survivors = ref 0 in
  Stable_log.restore log ~frame:(fun ~slot:_ ~offset:_ ~kind:_ ~pid:_ -> incr survivors);
  Alcotest.(check int) "medium truncated" 9 !survivors;
  Alcotest.(check bool) "clean after truncation" false (Stable_log.scan log).Stable_log.torn

let test_stable_log_corruption () =
  let log = Stable_log.create () in
  let rng = Random.State.make [| 7 |] in
  List.iter (fun r -> ignore (Stable_log.append_record log r)) (List.init 5 (fun _ -> rand_record rng));
  (* Flip a byte inside the middle of the log: everything from that
     frame on is discarded. *)
  Stable_log.corrupt_byte log ~pos:(Stable_log.byte_size log / 2);
  let result = Stable_log.scan log in
  Alcotest.(check bool) "corruption detected" true result.Stable_log.torn;
  Alcotest.(check bool) "prefix survives" true (List.length result.Stable_log.records < 5)

let prop_torn_tail_always_clean seed =
  (* Whatever we chop, the scan never returns a record that was not
     appended, and always returns a prefix. *)
  let rng = Random.State.make [| seed; 0x7ea4 |] in
  let log = Stable_log.create () in
  let records = List.init (1 + Random.State.int rng 10) (fun _ -> rand_record rng) in
  List.iter (fun r -> ignore (Stable_log.append_record log r)) records;
  Stable_log.tear log ~drop:(Random.State.int rng (Stable_log.byte_size log + 1));
  let result = Stable_log.scan log in
  let rec is_prefix xs ys =
    match xs, ys with
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && is_prefix xs ys
    | _ :: _, [] -> false
  in
  is_prefix result.Stable_log.records records

(* In-place decoding: a record embedded anywhere in a byte array
   decodes from its window alone, and the window's end is a hard limit
   even when more bytes follow it. *)
let prop_decode_window seed =
  let rng = Random.State.make [| seed; 0x3d0 |] in
  let r = rand_record rng in
  let enc = Codec.encode_record r in
  let len = String.length enc in
  let pos = Random.State.int rng 64 in
  let b = rand_bytes rng (pos + len + Random.State.int rng 64) in
  Bytes.blit_string enc 0 b pos len;
  let short =
    match Codec.decode_window b ~pos ~len:(len - 1) with
    | exception Codec.Decode_error _ -> true
    | _ -> false
  in
  Codec.decode_window b ~pos ~len = r && short

let test_decode_window_rejects_out_of_range () =
  let r = Record.make ~lsn:(Lsn.of_int 1) (Record.Logical (Record.Db_del "k")) in
  let b = Bytes.of_string (Codec.encode_record r) in
  let n = Bytes.length b in
  List.iter
    (fun (pos, len) ->
      match Codec.decode_window b ~pos ~len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "window (%d, %d) of %d bytes accepted" pos len n)
    [ -1, n; 1, n; 0, n + 1; 0, -1 ]

(* A frame whose length field was shortened by [k] bytes, with its CRC
   recomputed over the shortened payload and valid frames after it: the
   CRC passes but the record cannot decode inside its window, so the
   scan must end there as torn rather than decode it with the next
   frame's bytes. *)
let prop_short_frame_ends_scan seed =
  let rng = Random.State.make [| seed; 0x5407 |] in
  let records = List.init (2 + Random.State.int rng 8) (fun _ -> rand_record rng) in
  let bad = Random.State.int rng (List.length records - 1) in
  let log = Stable_log.create () in
  List.iteri
    (fun i r ->
      let payload = Codec.encode_record r in
      let payload =
        if i <> bad then payload
        else
          let k = 1 + Random.State.int rng (String.length payload) in
          String.sub payload 0 (String.length payload - k)
      in
      ignore (Stable_log.append log payload))
    records;
  let bad_offset =
    List.fold_left ( + ) 0
      (List.filteri (fun i _ -> i < bad) (List.map (fun r -> 8 + Codec.encoded_size r) records))
  in
  let result = Stable_log.scan log in
  result.Stable_log.torn
  && result.Stable_log.valid_bytes = bad_offset
  && result.Stable_log.records = List.filteri (fun i _ -> i < bad) records

(* The in-place append writes each record as the frame
   [u32 BE length | u32 BE crc32(payload) | payload], with the payload
   [Codec.encode_record]'s string: the wire format, and so the bytes
   written per record, are unchanged. The expected frames are built
   here, from the reference CRC, and the medium grows past its initial
   capacity on the way. *)
let prop_append_record_bytes seed =
  let rng = Random.State.make [| seed; 0xa99 |] in
  let records = List.init (1 + Random.State.int rng 20) (fun _ -> rand_record rng) in
  let log = Stable_log.create ~capacity:64 () in
  let expected = Buffer.create 256 in
  List.for_all
    (fun r ->
      let payload = Codec.encode_record r in
      let n = String.length payload in
      Buffer.add_int32_be expected (Int32.of_int n);
      Buffer.add_int32_be expected
        (Int32.of_int (reference_crc 0 (Bytes.of_string payload) ~pos:0 ~len:n));
      Buffer.add_string expected payload;
      Stable_log.append_record log r = 8 + n)
    records
  && Stable_log.contents log = Buffer.contents expected

(* After a crash the scan refills the log manager's slot array in
   place: the survivors read back in order and new appends continue
   their LSNs, past the array's growth points. *)
let test_restore_refills_slots () =
  let log = Log_manager.create () in
  let n = 3000 in
  for i = 1 to n do
    ignore (Log_manager.append log (Record.Logical (Record.Db_put (string_of_int i, "v"))))
  done;
  let before = Log_manager.all_records log in
  Log_manager.force_all log;
  Log_manager.crash log;
  Alcotest.(check bool) "survivors read back" true (Log_manager.stable_records log = before);
  for i = 1 to n do
    let lsn = Log_manager.append log (Record.Logical (Record.Db_del (string_of_int i))) in
    if Lsn.to_int lsn <> n + i then Alcotest.failf "append %d got lsn %d" i (Lsn.to_int lsn)
  done;
  Log_manager.force_all log;
  Log_manager.crash log;
  Alcotest.(check int) "both runs survive" (2 * n) (List.length (Log_manager.stable_records log));
  Alcotest.(check bool) "first run intact" true
    (List.filteri (fun i _ -> i < n) (Log_manager.stable_records log) = before)

(* Shard-checkpoint records hit the same wire format as everything else,
   including the empty edge cases the fuzz generator rarely produces. *)
let test_shard_ckpt_roundtrip () =
  let roundtrips sc =
    let r = Record.make ~lsn:(Lsn.of_int 7) (Record.Shard_checkpoint sc) in
    let encoded = Codec.encode_record r in
    Alcotest.(check bool) "roundtrip" true (Codec.decode_record encoded = r);
    Alcotest.(check int) "size mirror" (String.length encoded) (Codec.encoded_size r)
  in
  roundtrips
    {
      Record.shard_pages = [ 3; 1; 4; 1; 5 ];
      horizon = Lsn.of_int 92;
      shard_index = 2;
      shard_total = 5;
      shard_note = "shard-ckpt";
    };
  roundtrips
    {
      Record.shard_pages = [];
      horizon = Lsn.zero;
      shard_index = 0;
      shard_total = 1;
      shard_note = "";
    }

(* Graded durability of staggered shard records: tearing the last frame
   loses only the newest shard's horizon; the earlier ones still scan
   clean and keep their claims. *)
let test_shard_ckpt_torn_tail () =
  let log = Log_manager.create () in
  let shard i pages horizon =
    Log_manager.append log
      (Record.Shard_checkpoint
         {
           Record.shard_pages = pages;
           horizon = Lsn.of_int horizon;
           shard_index = i;
           shard_total = 3;
           shard_note = "t";
         })
  in
  let _ = shard 0 [ 1; 2 ] 10 in
  let l1 = shard 1 [ 3 ] 11 in
  let _ = shard 2 [ 4; 5 ] 12 in
  Log_manager.force log ~upto:l1;
  (* The force of shard 2's frame is interrupted mid-write. *)
  Log_manager.crash_torn log ~drop:2;
  let survivors = Log_manager.stable_shard_checkpoints log in
  Alcotest.(check int) "two shard records survive" 2 (List.length survivors);
  let horizons = Log_manager.stable_shard_horizons log in
  Alcotest.(check (list (pair int int)))
    "per-page horizons from the surviving shards"
    [ 1, 10; 2, 10; 3, 11 ]
    (List.map (fun (p, h) -> p, Lsn.to_int h) horizons)

let test_log_manager_torn_crash () =
  let log = Log_manager.create () in
  let put k = Log_manager.append log (Record.Logical (Record.Db_put (k, "v"))) in
  let l1 = put "a" in
  let _ = put "b" in
  let _ = put "c" in
  Log_manager.force log ~upto:l1;
  (* A force of the remaining tail (records 2 and 3) is interrupted two
     bytes short: record 2's frame survives, record 3's is torn. *)
  Log_manager.crash_torn log ~drop:2;
  Alcotest.(check int) "flushed ends at 2" 2 (Lsn.to_int (Log_manager.flushed_lsn log));
  Alcotest.(check int) "two survivors" 2 (List.length (Log_manager.stable_records log));
  (* Forced bytes are never torn: with an empty tail, nothing changes. *)
  Log_manager.crash_torn log ~drop:50;
  Alcotest.(check int) "still two" 2 (List.length (Log_manager.stable_records log));
  (* New appends resume cleanly after the survivors. *)
  let l3 = put "d" in
  Alcotest.(check int) "lsn reuse" 3 (Lsn.to_int l3)

let suite =
  [
    Alcotest.test_case "crc known value" `Quick test_crc_known_value;
    Alcotest.test_case "crc bytes = string" `Quick test_crc_incremental;
    Alcotest.test_case "crc = bytewise reference, lengths 0-40 at every alignment" `Quick
      test_crc_matches_reference;
    Alcotest.test_case "crc rejects out-of-range windows" `Quick test_crc_rejects_out_of_range;
    Alcotest.test_case "decode_window rejects out-of-range windows" `Quick
      test_decode_window_rejects_out_of_range;
    Alcotest.test_case "crash restore refills the slot array" `Quick test_restore_refills_slots;
    Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
    Alcotest.test_case "stable log roundtrip" `Quick test_stable_log_roundtrip;
    Alcotest.test_case "stable log torn tail" `Quick test_stable_log_torn_tail;
    Alcotest.test_case "stable log corruption" `Quick test_stable_log_corruption;
    Alcotest.test_case "shard checkpoint roundtrip" `Quick test_shard_ckpt_roundtrip;
    Alcotest.test_case "shard checkpoint torn tail" `Quick test_shard_ckpt_torn_tail;
    Alcotest.test_case "log manager torn crash" `Quick test_log_manager_torn_crash;
    Util.qtest ~count:300 "codec roundtrip (fuzz)" prop_roundtrip;
    Util.qtest ~count:300 "encoded_size matches encoder (fuzz)" prop_encoded_size;
    Util.qtest ~count:200 "torn logs always scan to a clean prefix" prop_torn_tail_always_clean;
    Util.qtest ~count:300 "crc = bytewise reference, up to 4 KiB (fuzz)" prop_crc_matches_reference;
    Util.qtest ~count:300 "crc chunked = one-shot (fuzz)" prop_crc_chunked;
    Util.qtest ~count:300 "decode from a window inside random bytes (fuzz)" prop_decode_window;
    Util.qtest ~count:300 "CRC-valid short frame ends the scan as torn (fuzz)"
      prop_short_frame_ends_scan;
    Util.qtest ~count:200 "append_record = reference frames, byte for byte (fuzz)"
      prop_append_record_bytes;
  ]
