(** Binary wire format for log records.

    Deterministic, self-delimiting, big-endian encoding used by the
    framed {!Stable_log}. Every constructor of every payload kind
    round-trips ([decode_record (encode_record r)] is structurally
    [r]); the property tests in [test/t_codec.ml] fuzz this. *)

exception Decode_error of string

val encode_record : Record.t -> string

val decode_record : string -> Record.t
(** @raise Decode_error on truncation, unknown tags or trailing bytes. *)

val decode_window : Bytes.t -> pos:int -> len:int -> Record.t
(** Decode the record encoded in bytes [pos..pos+len-1], in place. The
    window must hold exactly one record: a field running past its end is
    a truncation, whatever bytes follow.
    @raise Decode_error on truncation, unknown tags or trailing bytes.
    @raise Invalid_argument if the window is not inside the bytes. *)

type kind = Op | Checkpoint | Shard_checkpoint
(** What a record is to the log's checkpoint index: a global
    [Checkpoint], a [Shard_checkpoint], or anything else. *)

val peek_lsn : Bytes.t -> pos:int -> len:int -> int
(** The LSN the record in bytes [pos..pos+len-1] starts with, read in
    place with no decode and no CRC check: the identity check of a
    header-only walk of the stable log. [-1] when the window is too
    short to hold an LSN and a payload tag. *)

val peek_kind : Bytes.t -> pos:int -> kind
(** The {!kind} of the record starting at [pos], from its payload tag
    alone. Meaningful only where {!peek_lsn} found a record. A tag the
    decoder would reject reads as [Op]; the frame's CRC reports it when
    the record is read. *)

val peek_pid : Bytes.t -> pos:int -> len:int -> int
(** The page id of the [Physiological] record in bytes [pos..pos+len-1],
    read in place like {!peek_lsn}: the one field a redo plan needs
    besides the LSN. [-1] for any other record, or a window too short to
    hold the field. *)

val encoded_size : Record.t -> int
(** Exact wire size of the record (excluding framing), computed
    arithmetically without encoding — allocation-free, safe on the
    append hot path. Pinned to [String.length (encode_record r)] by the
    codec tests. *)
