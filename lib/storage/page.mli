(** Pages: the unit of atomic stable-state update.

    Real systems update stable state one page write at a time; the
    theory's "variables" become pages at this layer (one {!Redo_core.Var}
    per page id, see {!Redo_core.Var.page}). Every page is tagged with
    the LSN of the last operation that updated it, as in physiological
    recovery (Section 6.3). *)

(** The key/value records of a [Kv] page or a B-tree leaf: an
    immutable map from key to value, ordered by key. An update copies
    only the path to its key (O(log n)), so a page stays a value that
    any number of holders (the cache, {!Disk}, a projected state) may
    share by reference. Two maps with equal bindings can differ in
    shape: compare them with {!equal} and serialize their {!bindings},
    never the map itself. *)
module Entries : sig
  type t

  val empty : t
  val is_empty : t -> bool

  val cardinal : t -> int
  (** O(n). *)

  val find : string -> t -> string option
  val add : string -> string -> t -> t
  val remove : string -> t -> t

  val split : string -> t -> t * t
  (** [split key e] is [(below, from)]: the entries with keys
      [< key] and those with keys [>= key]. O(log n). *)

  val bindings : t -> (string * string) list
  (** In key order. *)

  val of_bindings : (string * string) list -> t
  (** In any order; of a repeated key, the last binding wins. *)

  val equal : t -> t -> bool
  (** Equal bindings, whatever the shapes. *)
end

type node =
  | Leaf of Entries.t  (** Key/value entries. *)
  | Internal of { seps : string list; children : int list }
      (** [|children| = |seps| + 1]; subtree [i] holds keys < [seps.(i)]. *)

type data =
  | Empty
  | Bytes of string  (** Raw payload (physical logging experiments). *)
  | Kv of Entries.t  (** Key/value records (hash-partitioned store). *)
  | Node of node  (** B-tree node. *)

type t

val empty : t
val make : ?lsn:Lsn.t -> data -> t
val lsn : t -> Lsn.t
val data : t -> data
val with_lsn : t -> Lsn.t -> t
val with_data : t -> data -> t
val equal : t -> t -> bool
val data_equal : data -> data -> bool

val encode : t -> string
(** Deterministic wire encoding (LSN + payload). *)

val encode_data : data -> string
(** Entries are written in key order. *)

val byte_size : t -> int
(** Size of the encoding — the cost of physically logging this page. *)

exception Not_a_page of string

val to_value : t -> Redo_core.Value.t
(** Project the page into the theory's value domain (used by the
    recovery-invariant checker). Round-trips through {!of_value}.
    Entries project as their sorted bindings, never as the map's tree,
    whose shape depends on the order of the updates. *)

val of_value : Redo_core.Value.t -> t
(** @raise Not_a_page when the value is not a projected page. *)

val data_to_value : data -> Redo_core.Value.t
(** LSN-less projection, used by methods whose redo test ignores LSNs
    (logical recovery). Round-trips through {!data_of_value}. *)

val data_of_value : Redo_core.Value.t -> data
(** @raise Not_a_page when the value is not projected page data. *)

val pp : t Fmt.t
val pp_data : data Fmt.t
