(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
   Implemented from scratch: the stable log uses it to detect torn or
   corrupted frames during the pre-recovery scan, which checksums every
   stable byte on every crash.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic bytewise table (the CRC of byte [n]), and table [k] is the CRC
   of byte [n] followed by [k] zero bytes. One step folds eight input
   bytes through all eight tables at once, so the eight lookups are
   independent instead of a chain of eight dependent ones. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Every index is a byte, so the lookup cannot leave the array. *)
let[@inline] table k n = Array.unsafe_get tables ((k lsl 8) lor n)

let update crc bytes ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length bytes - len then invalid_arg "Checksum.update";
  let crc = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let last_step = pos + len - 8 in
  while !i <= last_step do
    (* Two little-endian 32-bit loads: the first carries the running
       CRC, the second is the next four bytes as they are. *)
    let one = Int32.to_int (Bytes.get_int32_le bytes !i) lxor !crc in
    let two = Int32.to_int (Bytes.get_int32_le bytes (!i + 4)) in
    crc :=
      table 7 (one land 0xff)
      lxor table 6 ((one lsr 8) land 0xff)
      lxor table 5 ((one lsr 16) land 0xff)
      lxor table 4 ((one lsr 24) land 0xff)
      lxor table 3 (two land 0xff)
      lxor table 2 ((two lsr 8) land 0xff)
      lxor table 1 ((two lsr 16) land 0xff)
      lxor table 0 ((two lsr 24) land 0xff);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get bytes j) in
    crc := table 0 ((!crc lxor byte) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let bytes ?(pos = 0) ?len b =
  let len = Option.value ~default:(Bytes.length b - pos) len in
  update 0 b ~pos ~len

let string s = bytes (Bytes.unsafe_of_string s)

let self_test () =
  (* The classic check value: CRC32("123456789") = 0xCBF43926. *)
  string "123456789" = 0xCBF43926
