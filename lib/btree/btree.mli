(** A page-based B+-tree with pluggable split logging — the showcase of
    Section 6.4.

    Two strategies for logging a node split:

    - {!Physiological_split}: conventional physiological operations read
      and write exactly one page, so the new node must be initialised by
      a blind operation whose log record {e contains the moved half of
      the contents} ("physically logging the half of a splitting B-tree
      node", Section 6.4).
    - {!Generalized_split}: a generalized LSN-based operation reads the
      old page and writes the new page; the moved contents never enter
      the log. The price is a {e careful write order} enforced through
      the cache — "the new B-tree node [must be] written before the old
      node is over-written" (Figure 8) — registered as a flush-order
      edge, the cache-level image of a write-graph edge.

    Deletions do not merge nodes (a standard simplification; the paper's
    split example is the interesting direction). The root page id is
    pinned at 0; splitting the root moves both halves to fresh pages. *)

open Redo_storage
open Redo_wal

type strategy =
  | Physiological_split
  | Generalized_split

val strategy_name : strategy -> string

type t

exception Corrupt of string
(** Raised when a descent or traversal finds a page cycle — the
    signature of stable state written outside the cache's write-order
    discipline. *)

val create :
  ?cache_capacity:int -> ?max_keys:int -> ?careful_order:bool -> strategy:strategy -> unit -> t
(** [max_keys] (≥ 2, default 8) bounds keys per node before a split.
    [careful_order:false] injects a fault: generalized splits skip the
    Figure 8 write-order registration (for checker experiments). *)

val strategy : t -> strategy
val log : t -> Log_manager.t
val cache : t -> Cache.t
val disk : t -> Disk.t

val splits : t -> int
(** Number of node splits performed so far. *)

val insert : t -> string -> string -> unit
val delete : t -> string -> unit
val lookup : t -> string -> string option

val dump : t -> (string * string) list
(** In-order contents. Each subtree is filtered to its separator range,
    so surplus keys left in an old node by a crash-interrupted split are
    invisible, exactly as they are to {!lookup}. *)

val checkpoint : t -> unit
(** Fuzzy checkpoint: log the dirty-page table, force the log; no page
    writes. *)

val checkpoint_sharded : ?pool:Redo_par.Domain_pool.t -> domains:int -> t -> int * int
(** Install the live write graph shard-parallel
    ({!Redo_ckpt.Installer.install} — the careful-order edges the
    splits registered are the graph's edges), then take the fuzzy
    {!checkpoint} over the now-clean cache. Returns
    [(components, pages_installed)]. *)

val flush_some : t -> Random.State.t -> unit
(** Flush one random dirty page (respecting WAL and write order). *)

val sync : t -> unit
(** Force the whole log to stable storage. *)

val crash : t -> unit

val crash_torn : t -> drop:int -> unit
(** Crash with the last [drop] bytes of the stable log medium torn. *)

val recover : t -> int * int * int
(** [(scanned, redone, skipped)] — the LSN-test redo scan; multi-page
    operations are redone against the recovered-so-far pages and
    re-register their write-order edges. *)

val stable_universe : t -> int list
(** Page ids mentioned by the stable disk or stable log. *)

val durable_ops : t -> int
val log_stats : t -> Log_manager.stats
val cache_stats : t -> Cache.stats
