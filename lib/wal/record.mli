(** Log records.

    One payload constructor per recovery technology of Section 6:
    - [Physical]: "the exact bytes ... written" — a full after-image of
      the page; physical operations read nothing;
    - [Physiological]: a logical operation on one physically-identified
      page;
    - [Multi]: a generalized LSN-based operation that reads and writes
      {e different} pages (Section 6.4);
    - [Logical]: a database-level operation (System R style);
    - [Checkpoint]: identifies operations recovery may ignore
      (Section 4.2); carries a dirty-page table for fuzzy checkpoints;
    - [Shard_checkpoint]: one write-graph component installed at its own
      horizon (Section 5 / Corollary 5) — recovery may ignore any record
      on the shard's pages with LSN at or below the horizon.

    [byte_size] approximates the record's stable-log footprint; the E3
    experiment compares split-logging strategies with it. *)

open Redo_storage

type db_op =
  | Db_put of string * string
  | Db_del of string

type checkpoint = {
  dirty_pages : (int * Lsn.t) list;  (** Dirty-page table with recLSNs. *)
  note : string;
}

type shard_ckpt = {
  shard_pages : int list;  (** The component's pages, sorted. *)
  horizon : Lsn.t;
      (** Every record with LSN ≤ [horizon] touching [shard_pages] is
          installed. Captured before the record's own LSN, so a stable
          shard record (the stable log is a prefix) only ever covers
          stable records — no lost-and-recycled LSN can be claimed. *)
  shard_index : int;  (** Position in the hottest-first install order. *)
  shard_total : int;  (** Components in the checkpoint this belongs to. *)
  shard_note : string;
}

type payload =
  | Physical of { pid : int; image : Page.data }
  | Physiological of { pid : int; op : Page_op.t }
  | Multi of Multi_op.t
  | Logical of db_op
  | App_op of { tag : string; body : string }
      (** An application-level operation (the Section 7 / persistent-
          applications direction): [tag] names the operation kind, [body]
          is its application-encoded argument. *)
  | Checkpoint of checkpoint
  | Shard_checkpoint of shard_ckpt

type t = {
  lsn : Lsn.t;
  payload : payload;
}

val make : lsn:Lsn.t -> payload -> t

val lsn : t -> Lsn.t
val payload : t -> payload
val byte_size : t -> int
val db_op_size : db_op -> int
val pp : t Fmt.t
val pp_db_op : db_op Fmt.t
val pp_payload : payload Fmt.t
