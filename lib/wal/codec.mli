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

val encoded_size : Record.t -> int
(** Exact wire size of the record (excluding framing), computed
    arithmetically without encoding — allocation-free, safe on the
    append hot path. Pinned to [String.length (encode_record r)] by the
    codec tests. *)
