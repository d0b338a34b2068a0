(** Single-page logical operations — the "-logical" half of
    physiological logging (Section 6.3): identify a page physically,
    transform it logically.

    The [Init_*] operations overwrite a page without reading it (blind
    writes); these are what make freshly written pages unexposed and are
    how conventional physiological recovery must log the new node of a
    B-tree split (its full contents go into the log). *)

exception Type_mismatch of string
(** The operation was applied to a page payload of the wrong shape. *)

type t =
  | Put of string * string  (** Insert/overwrite a record in a [Kv] page. *)
  | Del of string
  | Set_bytes of string  (** Blindly replace a raw page. *)
  | Leaf_put of string * string  (** Insert into a B-tree leaf. *)
  | Leaf_del of string
  | Init_leaf of (string * string) list
      (** Blind-format a leaf with these entries (any order; of a
          repeated key, the last wins). *)
  | Init_internal of { seps : string list; children : int list }
  | Internal_add of { sep : string; right : int }
      (** Record a child split in an internal node. *)
  | Drop_from of { key : string }  (** Keep only keys < [key] (split truncation). *)

val is_blind : t -> bool
(** Does the operation overwrite the page without reading it? Determines
    read sets in the theory projection and hence exposure. *)

val apply : t -> Page.data -> Page.data
(** @raise Type_mismatch on a payload of the wrong shape. *)

val logged_size : t -> int
(** Approximate log-record payload size in bytes. *)

val to_string : t -> string
val pp : t Fmt.t
