(** The stable log medium: append-only CRC-framed bytes, plus the master
    cell.

    Each {!append} writes one frame
    [[u32 length | u32 crc32 | payload]]. A crash can leave a torn
    final frame; {!scan} reads frames until the first short or
    corrupt one and reports how much of the log is trustworthy — the
    concrete form of the pre-recovery log scan.

    {2 The master record}

    The master cell names the newest global checkpoint a completed force
    put on the medium: its LSN and its frame's byte offset. The cell is
    not part of the log bytes, and like the frames it survives a crash.
    {!restore} reads only frame headers below it and checks frames from
    it on; nothing is decoded at a crash. {!read_record} decodes a frame
    when a reader asks for it, with its CRC checked again.

    Soundness rests on two facts. The tear model: a crash tears only the
    force racing it, and the master's frame was forced before the cell
    was written, so a tear can only lie past the master's frame. And
    Corollary 4: every operation before the checkpoint's redo start is
    installed, so recovery reads the log only from the redo start on.
    That is usually the master's own frame; what it reads below (the
    oldest recLSN of a fuzzy checkpoint's dirty-page table, the shard
    checkpoint records) is checked when read. A crash between the
    checkpoint's force and the master write leaves the previous master
    in place: older, and still correct, since it only moves the walk's
    end back. With no master the walk covers nothing and {!restore}
    checks every frame from byte 0. *)

open Redo_storage

type t

exception Corrupt_frame of { lsn : int; offset : int; reason : string }
(** A forced frame failed its check: the record with LSN [lsn], whose
    frame starts at byte [offset], cannot be read. Raised by {!restore}
    when the walk below the master goes wrong or a checked frame carries
    the wrong LSN, and by {!check_frame} and {!read_record}; a corrupt
    forced frame is reported, never skipped or truncated. *)

val create : ?capacity:int -> unit -> t
(** [capacity] (bytes, default 1024) preallocates the backing array;
    the log still grows past it by doubling. Sizing it to the expected
    volume keeps the append path free of growth copies. *)

val byte_size : t -> int

val contents : t -> string
(** A copy of the medium's bytes (forensics and tests). *)

val append : t -> string -> int
(** Append one frame; returns the bytes written (payload + 8). *)

val append_record : t -> Record.t -> int
(** [append] of {!Codec.encode_record}. *)

val tear : t -> drop:int -> unit
(** Crash-injection: chop the final [drop] bytes (a torn write, e.g. a
    force interrupted mid-frame). *)

type master = {
  ckpt_lsn : Lsn.t;  (** The checkpoint record's LSN. *)
  offset : int;  (** Where its frame starts in the log bytes. *)
}

val master : t -> master option

val set_master : t -> master option -> unit
(** Write the master cell. {!Log_manager} writes it once a force has put
    a global checkpoint's frame on the medium; tests roll it back or
    clear it to model a crash that beat the write. *)

type scan_result = {
  records : Record.t list;  (** Records recovered, in append order. *)
  valid_bytes : int;  (** Where the trustworthy prefix ends. *)
  torn : bool;  (** A short or corrupt tail was found (and ignored). *)
}

val scan : t -> scan_result
(** A diagnostic read of the whole medium, from byte 0 whatever the
    master says: each frame's header bounds and CRC are checked in
    place, in the medium's bytes, and each frame that passes is decoded.
    A frame that passes its CRC but does not decode ends the scan as
    torn, like a short or corrupt one. {!restore} does not decode, and
    keeps such a frame for its reader to report. *)

val restore :
  t -> frame:(slot:int -> offset:int -> kind:Codec.kind -> pid:int -> unit) -> unit
(** The crash-time read, which decodes nothing. For every surviving
    frame, in order, call [frame ~slot ~offset ~kind ~pid]: [slot] is
    its LSN - 1, [offset] where the frame starts, and [kind] and [pid]
    are peeked from the payload ({!Codec.peek_kind}, {!Codec.peek_pid}).
    Below the master's offset only frame headers are walked: each
    frame's length, and that its payload starts with its own LSN (its
    ordinal from 1). From the master's frame on, each frame's header
    bounds and CRC are checked as {!scan} checks them, and the first
    frame that fails ends the log: that torn tail is discarded from the
    medium. A frame there that passes its CRC is kept whether or not it
    decodes; {!read_record} reports one that does not.
    @raise Corrupt_frame if the walk does not end at the master's
    offset after exactly [LSN - 1] frames, the master's own frame does
    not check, or a frame that checks does not start with its ordinal
    LSN; nothing is truncated then. *)

val check_frame : t -> offset:int -> lsn:Lsn.t -> unit
(** The checks {!read_record} makes, without the decode: the frame
    starting at [offset] lies inside the medium, passes its CRC and
    starts with LSN [lsn]. What a caller peeked from a frame the restore
    only header-walked can be trusted once this passes.
    @raise Corrupt_frame naming [lsn] and [offset] if a check fails. *)

val read_record : t -> offset:int -> lsn:Lsn.t -> Record.t
(** Decode on read: the record whose frame starts at [offset], with its
    header bounds, CRC, LSN and decode checked.
    @raise Corrupt_frame naming [lsn] and [offset] if any check fails. *)

val snapshot : t -> t
(** A read-only view of the medium as it is now, for readers on other
    domains. It shares the medium's bytes, and every frame in it reads
    the same through it whatever the medium does next, short of a
    {!restore}: an append writes past its end, or into a fresh copy of
    the bytes when the medium grows. Never append to, tear or restore a
    snapshot. *)

val corrupt_byte : t -> pos:int -> unit
(** Fault injection: flip one byte in place.
    @raise Invalid_argument out of range. *)
