(** The stable log medium: append-only CRC-framed bytes.

    Each {!append} writes one frame
    [[u32 length | u32 crc32 | payload]]. A crash can leave a torn
    final frame; {!scan} reads frames until the first short or
    corrupt one and reports how much of the log is trustworthy — the
    concrete form of the pre-recovery log scan. *)

type t

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

type scan_result = {
  records : Record.t list;  (** Records recovered, in append order. *)
  valid_bytes : int;  (** Where the trustworthy prefix ends. *)
  torn : bool;  (** A short or corrupt tail was found (and ignored). *)
}

val scan : t -> scan_result
(** Each frame's header bounds, CRC and decode are checked in place, in
    the medium's bytes. A frame that passes its CRC but does not decode
    ends the scan as torn, like a short or corrupt one. *)

val truncate_torn : t -> push:(Record.t -> unit) -> unit
(** Scan as {!scan} does, handing each surviving record to [push] in
    order, then discard any torn tail from the medium. *)

val corrupt_byte : t -> pos:int -> unit
(** Fault injection: flip one byte in place.
    @raise Invalid_argument out of range. *)
