(** CRC-32 (IEEE), implemented from scratch, for stable-log frame
    integrity: a torn or corrupted frame fails its checksum and ends the
    pre-recovery log scan. *)

val update : int -> Bytes.t -> pos:int -> len:int -> int
(** Incremental update: feed bytes [pos..pos+len-1] into a running CRC
    (start from 0). Feeding a buffer in consecutive chunks gives the same
    CRC as one update over the whole of it.
    @raise Invalid_argument if the window is not inside the bytes. *)

val bytes : ?pos:int -> ?len:int -> Bytes.t -> int
(** [update 0] over [pos..pos+len-1]; [len] defaults to the rest of the
    bytes.
    @raise Invalid_argument if the window is not inside the bytes. *)

val string : string -> int

val self_test : unit -> bool
(** [string "123456789" = 0xCBF43926]. *)
