open Redo_storage

exception Decode_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Decode_error s)) fmt

(* --- encoding --- *)

let put_u8 buf n = Buffer.add_uint8 buf (n land 0xff)

let put_u32 buf n =
  if n < 0 then invalid_arg "Codec.put_u32: negative";
  Buffer.add_int32_be buf (Int32.of_int n)

let put_i64 buf n = Buffer.add_int64_be buf (Int64.of_int n)

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_entries buf entries =
  put_u32 buf (List.length entries);
  List.iter
    (fun (k, v) ->
      put_string buf k;
      put_string buf v)
    entries

let put_ints buf ints =
  put_u32 buf (List.length ints);
  List.iter (put_i64 buf) ints

let put_strings buf strings =
  put_u32 buf (List.length strings);
  List.iter (put_string buf) strings

let put_data buf (data : Page.data) =
  match data with
  | Page.Empty -> put_u8 buf 0
  | Page.Bytes s ->
    put_u8 buf 1;
    put_string buf s
  | Page.Kv entries ->
    put_u8 buf 2;
    put_entries buf entries
  | Page.Node (Page.Leaf entries) ->
    put_u8 buf 3;
    put_entries buf entries
  | Page.Node (Page.Internal { seps; children }) ->
    put_u8 buf 4;
    put_strings buf seps;
    put_ints buf children

let put_page_op buf (op : Page_op.t) =
  match op with
  | Page_op.Put (k, v) ->
    put_u8 buf 0;
    put_string buf k;
    put_string buf v
  | Page_op.Del k ->
    put_u8 buf 1;
    put_string buf k
  | Page_op.Set_bytes s ->
    put_u8 buf 2;
    put_string buf s
  | Page_op.Leaf_put (k, v) ->
    put_u8 buf 3;
    put_string buf k;
    put_string buf v
  | Page_op.Leaf_del k ->
    put_u8 buf 4;
    put_string buf k
  | Page_op.Init_leaf entries ->
    put_u8 buf 5;
    put_entries buf entries
  | Page_op.Init_internal { seps; children } ->
    put_u8 buf 6;
    put_strings buf seps;
    put_ints buf children
  | Page_op.Internal_add { sep; right } ->
    put_u8 buf 7;
    put_string buf sep;
    put_i64 buf right
  | Page_op.Drop_from { key } ->
    put_u8 buf 8;
    put_string buf key

let put_multi_op buf (op : Multi_op.t) =
  match op with
  | Multi_op.Split_to { src; dst; at } ->
    put_u8 buf 0;
    put_i64 buf src;
    put_i64 buf dst;
    put_string buf at
  | Multi_op.Copy { src; dst } ->
    put_u8 buf 1;
    put_i64 buf src;
    put_i64 buf dst

let put_db_op buf (op : Record.db_op) =
  match op with
  | Record.Db_put (k, v) ->
    put_u8 buf 0;
    put_string buf k;
    put_string buf v
  | Record.Db_del k ->
    put_u8 buf 1;
    put_string buf k

let put_payload buf (payload : Record.payload) =
  match payload with
  | Record.Physical { pid; image } ->
    put_u8 buf 1;
    put_i64 buf pid;
    put_data buf image
  | Record.Physiological { pid; op } ->
    put_u8 buf 2;
    put_i64 buf pid;
    put_page_op buf op
  | Record.Multi op ->
    put_u8 buf 3;
    put_multi_op buf op
  | Record.Logical op ->
    put_u8 buf 4;
    put_db_op buf op
  | Record.App_op { tag; body } ->
    put_u8 buf 6;
    put_string buf tag;
    put_string buf body
  | Record.Checkpoint { dirty_pages; note } ->
    put_u8 buf 5;
    put_u32 buf (List.length dirty_pages);
    List.iter
      (fun (pid, lsn) ->
        put_i64 buf pid;
        put_i64 buf (Lsn.to_int lsn))
      dirty_pages;
    put_string buf note
  | Record.Shard_checkpoint { shard_pages; horizon; shard_index; shard_total; shard_note } ->
    put_u8 buf 7;
    put_ints buf shard_pages;
    put_i64 buf (Lsn.to_int horizon);
    put_u32 buf shard_index;
    put_u32 buf shard_total;
    put_string buf shard_note

let encode_record (r : Record.t) =
  let buf = Buffer.create 64 in
  put_i64 buf (Lsn.to_int (Record.lsn r));
  put_payload buf (Record.payload r);
  Buffer.contents buf

(* --- sizing ---

   [encoded_size] runs on every append (the log manager's byte
   accounting), so it must not actually encode: these mirror the put_
   functions above byte-for-byte, allocation-free. [t_codec] pins the
   mirror to the encoder over every payload shape. *)

let size_u8 = 1
let size_u32 = 4
let size_i64 = 8
let size_string s = size_u32 + String.length s

let size_entries entries =
  List.fold_left (fun acc (k, v) -> acc + size_string k + size_string v) size_u32 entries

let size_ints ints = size_u32 + (size_i64 * List.length ints)
let size_strings strings = List.fold_left (fun acc s -> acc + size_string s) size_u32 strings

let size_data (data : Page.data) =
  match data with
  | Page.Empty -> size_u8
  | Page.Bytes s -> size_u8 + size_string s
  | Page.Kv entries -> size_u8 + size_entries entries
  | Page.Node (Page.Leaf entries) -> size_u8 + size_entries entries
  | Page.Node (Page.Internal { seps; children }) ->
    size_u8 + size_strings seps + size_ints children

let size_page_op (op : Page_op.t) =
  match op with
  | Page_op.Put (k, v) -> size_u8 + size_string k + size_string v
  | Page_op.Del k -> size_u8 + size_string k
  | Page_op.Set_bytes s -> size_u8 + size_string s
  | Page_op.Leaf_put (k, v) -> size_u8 + size_string k + size_string v
  | Page_op.Leaf_del k -> size_u8 + size_string k
  | Page_op.Init_leaf entries -> size_u8 + size_entries entries
  | Page_op.Init_internal { seps; children } -> size_u8 + size_strings seps + size_ints children
  | Page_op.Internal_add { sep; right = _ } -> size_u8 + size_string sep + size_i64
  | Page_op.Drop_from { key } -> size_u8 + size_string key

let size_multi_op (op : Multi_op.t) =
  match op with
  | Multi_op.Split_to { src = _; dst = _; at } -> size_u8 + size_i64 + size_i64 + size_string at
  | Multi_op.Copy _ -> size_u8 + size_i64 + size_i64

let size_db_op (op : Record.db_op) =
  match op with
  | Record.Db_put (k, v) -> size_u8 + size_string k + size_string v
  | Record.Db_del k -> size_u8 + size_string k

let size_payload (payload : Record.payload) =
  match payload with
  | Record.Physical { pid = _; image } -> size_u8 + size_i64 + size_data image
  | Record.Physiological { pid = _; op } -> size_u8 + size_i64 + size_page_op op
  | Record.Multi op -> size_u8 + size_multi_op op
  | Record.Logical op -> size_u8 + size_db_op op
  | Record.App_op { tag; body } -> size_u8 + size_string tag + size_string body
  | Record.Checkpoint { dirty_pages; note } ->
    size_u8 + size_u32 + (2 * size_i64 * List.length dirty_pages) + size_string note
  | Record.Shard_checkpoint { shard_pages; shard_note; _ } ->
    size_u8 + size_ints shard_pages + size_i64 + size_u32 + size_u32 + size_string shard_note

let encoded_size r = size_i64 + size_payload (Record.payload r)

(* --- decoding ---

   The cursor reads a window [pos, limit) of a byte array in place —
   the stable log decodes frames straight out of its medium — and the
   window's end is a hard limit: a field that runs past it is a
   truncated record, never bytes borrowed from whatever follows. *)

type cursor = {
  data : Bytes.t;
  limit : int;
  mutable pos : int;
}

let need c n =
  if n > c.limit - c.pos then
    fail "truncated record: need %d bytes at offset %d, window ends at %d" n c.pos c.limit

let get_u8 c =
  need c 1;
  let n = Bytes.get_uint8 c.data c.pos in
  c.pos <- c.pos + 1;
  n

let get_u32 c =
  need c 4;
  let n = Int32.to_int (Bytes.get_int32_be c.data c.pos) in
  c.pos <- c.pos + 4;
  if n < 0 then fail "negative length";
  n

let get_i64 c =
  need c 8;
  let n = Int64.to_int (Bytes.get_int64_be c.data c.pos) in
  c.pos <- c.pos + 8;
  n

let get_string c =
  let len = get_u32 c in
  need c len;
  let s = Bytes.sub_string c.data c.pos len in
  c.pos <- c.pos + len;
  s

let get_list c get =
  let n = get_u32 c in
  List.init n (fun _ -> get c)

let get_entries c = get_list c (fun c -> let k = get_string c in k, get_string c)
let get_ints c = get_list c get_i64
let get_strings c = get_list c get_string

let get_data c : Page.data =
  match get_u8 c with
  | 0 -> Page.Empty
  | 1 -> Page.Bytes (get_string c)
  | 2 -> Page.Kv (get_entries c)
  | 3 -> Page.Node (Page.Leaf (get_entries c))
  | 4 ->
    let seps = get_strings c in
    let children = get_ints c in
    Page.Node (Page.Internal { seps; children })
  | tag -> fail "unknown page data tag %d" tag

let get_page_op c : Page_op.t =
  match get_u8 c with
  | 0 ->
    let k = get_string c in
    Page_op.Put (k, get_string c)
  | 1 -> Page_op.Del (get_string c)
  | 2 -> Page_op.Set_bytes (get_string c)
  | 3 ->
    let k = get_string c in
    Page_op.Leaf_put (k, get_string c)
  | 4 -> Page_op.Leaf_del (get_string c)
  | 5 -> Page_op.Init_leaf (get_entries c)
  | 6 ->
    let seps = get_strings c in
    let children = get_ints c in
    Page_op.Init_internal { seps; children }
  | 7 ->
    let sep = get_string c in
    Page_op.Internal_add { sep; right = get_i64 c }
  | 8 -> Page_op.Drop_from { key = get_string c }
  | tag -> fail "unknown page op tag %d" tag

let get_multi_op c : Multi_op.t =
  match get_u8 c with
  | 0 ->
    let src = get_i64 c in
    let dst = get_i64 c in
    Multi_op.Split_to { src; dst; at = get_string c }
  | 1 ->
    let src = get_i64 c in
    Multi_op.Copy { src; dst = get_i64 c }
  | tag -> fail "unknown multi op tag %d" tag

let get_db_op c : Record.db_op =
  match get_u8 c with
  | 0 ->
    let k = get_string c in
    Record.Db_put (k, get_string c)
  | 1 -> Record.Db_del (get_string c)
  | tag -> fail "unknown db op tag %d" tag

let get_payload c : Record.payload =
  match get_u8 c with
  | 1 ->
    let pid = get_i64 c in
    Record.Physical { pid; image = get_data c }
  | 2 ->
    let pid = get_i64 c in
    Record.Physiological { pid; op = get_page_op c }
  | 3 -> Record.Multi (get_multi_op c)
  | 4 -> Record.Logical (get_db_op c)
  | 5 ->
    let dirty_pages =
      get_list c (fun c ->
          let pid = get_i64 c in
          pid, Lsn.of_int (get_i64 c))
    in
    Record.Checkpoint { dirty_pages; note = get_string c }
  | 6 ->
    let tag = get_string c in
    Record.App_op { tag; body = get_string c }
  | 7 ->
    let shard_pages = get_ints c in
    let horizon = Lsn.of_int (get_i64 c) in
    let shard_index = get_u32 c in
    let shard_total = get_u32 c in
    Record.Shard_checkpoint { shard_pages; horizon; shard_index; shard_total; shard_note = get_string c }
  | tag -> fail "unknown record tag %d" tag

let decode_window data ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then invalid_arg "Codec.decode_window";
  let c = { data; limit = pos + len; pos } in
  let raw_lsn = get_i64 c in
  if raw_lsn < 0 then fail "negative lsn %d" raw_lsn;
  let lsn = Lsn.of_int raw_lsn in
  let payload = get_payload c in
  if c.pos <> c.limit then fail "trailing bytes: %d of %d consumed" (c.pos - pos) len;
  Record.make ~lsn payload

(* --- peeking ---

   A record is [i64 lsn | u8 payload tag | ...], and a physiological
   record's next field is its [i64] page id. A restart reads just these
   fields of each frame: its analysis and redo plans need nothing else,
   and the operation is decoded only where a page is redone. *)

type kind = Op | Checkpoint | Shard_checkpoint

let peek_lsn data ~pos ~len =
  if len < size_i64 + size_u8 then -1 else Int64.to_int (Bytes.get_int64_be data pos)

let peek_kind data ~pos =
  match Bytes.get_uint8 data (pos + size_i64) with
  | 5 -> Checkpoint
  | 7 -> Shard_checkpoint
  | _ -> Op

let peek_pid data ~pos ~len =
  if len < size_i64 + size_u8 + size_i64 || Bytes.get_uint8 data (pos + size_i64) <> 2 then -1
  else max (-1) (Int64.to_int (Bytes.get_int64_be data (pos + size_i64 + size_u8)))

let decode_record s = decode_window (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
