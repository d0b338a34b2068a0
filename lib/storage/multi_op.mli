(** Generalized multi-page operations (Section 6.4).

    A [Split_to] reads the old (full) page and writes the {e new} page
    with the upper half of its contents: the moved records never enter
    the log. The companion truncation of the old page is an ordinary
    single-page {!Page_op.Drop_from}. Correctness requires the cache
    manager to flush the new page before the truncated old page — the
    careful write order of Figure 8. *)

exception Malformed of string

type t =
  | Split_to of { src : int; dst : int; at : string }
      (** [dst := { entries of src with key >= at }] (leaf/kv pages; on
          internal nodes, separators strictly greater than [at] — the
          median separator moves up to the parent). Reads [src], writes
          [dst] — a different page: this is the op physiological logging
          cannot express. *)
  | Copy of { src : int; dst : int }
      (** [dst := src]'s full contents, again without logging them; used
          when splitting the (pinned) root page. *)

val reads : t -> int list
val writes : t -> int list

val split_point : Page.Entries.t -> string
(** The median key of a node's entries — where a split divides.
    @raise Malformed on fewer than two entries. *)

val apply : t -> read:(int -> Page.data) -> Page.data
(** Compute the written page's payload, reading source pages through
    [read]. @raise Malformed on a payload of the wrong shape. *)

val logged_size : t -> int
val to_string : t -> string
val pp : t Fmt.t
