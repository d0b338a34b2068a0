open Redo_storage

type db_op =
  | Db_put of string * string
  | Db_del of string

type checkpoint = {
  dirty_pages : (int * Lsn.t) list;
  note : string;
}

(* One connected component of the write graph, installed and
   checkpointed at its own horizon: every record with LSN <= [horizon]
   whose effects live on [shard_pages] is on the disk. The record is
   appended (and forced) only after the component's pages are written,
   so a stable shard record's claim always holds — and because the
   stable log is a prefix, [horizon] (captured before the record's own
   LSN) can never name a lost-and-recycled LSN. *)
type shard_ckpt = {
  shard_pages : int list;  (* the component's pages, sorted *)
  horizon : Lsn.t;
  shard_index : int;  (* position in the hottest-first install order *)
  shard_total : int;  (* components in the checkpoint this belongs to *)
  shard_note : string;
}

type payload =
  | Physical of { pid : int; image : Page.data }
  | Physiological of { pid : int; op : Page_op.t }
  | Multi of Multi_op.t
  | Logical of db_op
  | App_op of { tag : string; body : string }
  | Checkpoint of checkpoint
  | Shard_checkpoint of shard_ckpt

type t = {
  lsn : Lsn.t;
  payload : payload;
}

let make ~lsn payload = { lsn; payload }

let lsn r = r.lsn
let payload r = r.payload

let db_op_size = function
  | Db_put (k, v) -> 8 + String.length k + String.length v
  | Db_del k -> 8 + String.length k

let payload_size = function
  | Physical { image; _ } -> 12 + String.length (Page.encode_data image)
  | App_op { tag; body } -> 8 + String.length tag + String.length body
  | Physiological { op; _ } -> 12 + Page_op.logged_size op
  | Multi op -> 8 + Multi_op.logged_size op
  | Logical op -> 8 + db_op_size op
  | Checkpoint { dirty_pages; note } -> 16 + (12 * List.length dirty_pages) + String.length note
  | Shard_checkpoint { shard_pages; shard_note; _ } ->
    24 + (8 * List.length shard_pages) + String.length shard_note

let byte_size r = 8 + payload_size r.payload

let pp_db_op ppf = function
  | Db_put (k, v) -> Fmt.pf ppf "put(%s=%s)" k v
  | Db_del k -> Fmt.pf ppf "del(%s)" k

let pp_payload ppf = function
  | Physical { pid; image } -> Fmt.pf ppf "physical(pg %d, %a)" pid Page.pp_data image
  | Physiological { pid; op } -> Fmt.pf ppf "physiological(pg %d, %a)" pid Page_op.pp op
  | Multi op -> Fmt.pf ppf "multi(%a)" Multi_op.pp op
  | Logical op -> Fmt.pf ppf "logical(%a)" pp_db_op op
  | App_op { tag; body } -> Fmt.pf ppf "app(%s)[%d]" tag (String.length body)
  | Checkpoint { dirty_pages; note } ->
    Fmt.pf ppf "checkpoint(%s, %d dirty)" note (List.length dirty_pages)
  | Shard_checkpoint { shard_pages; horizon; shard_index; shard_total; shard_note } ->
    Fmt.pf ppf "shard-checkpoint(%s, shard %d/%d, %d pages, horizon %a)" shard_note
      shard_index shard_total (List.length shard_pages) Lsn.pp horizon

let pp ppf r = Fmt.pf ppf "%a %a" Lsn.pp r.lsn pp_payload r.payload
