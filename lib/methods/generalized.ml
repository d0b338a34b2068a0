let name = "generalized"

(* The generalized LSN-based method (Section 6.4): a B-tree whose splits
   are logged as multi-page operations, wrapped in the common METHOD
   interface. [partitions] is reinterpreted as the node capacity. *)
type t = Redo_btree.Btree.t

let create ?(cache_capacity = 64) ?(partitions = 8) () =
  Redo_btree.Btree.create ~cache_capacity ~max_keys:(max 2 partitions)
    ~strategy:Redo_btree.Btree.Generalized_split ()

(* Fault injection: drop the Figure 8 careful-write-order edges. *)
let create_no_order ?(cache_capacity = 64) ?(partitions = 8) () =
  Redo_btree.Btree.create ~cache_capacity ~max_keys:(max 2 partitions) ~careful_order:false
    ~strategy:Redo_btree.Btree.Generalized_split ()

let put = Redo_btree.Btree.insert
let get = Redo_btree.Btree.lookup
let delete = Redo_btree.Btree.delete
let checkpoint = Redo_btree.Btree.checkpoint

let checkpoint_sharded ?pool ~domains t =
  let components, pages = Redo_btree.Btree.checkpoint_sharded ?pool ~domains t in
  { Method_intf.ckpt_components = components; ckpt_pages = pages }
let sync = Redo_btree.Btree.sync
let flush_some = Redo_btree.Btree.flush_some
let crash = Redo_btree.Btree.crash
let crash_torn = Redo_btree.Btree.crash_torn

let recover t =
  let scanned, redone, skipped = Redo_btree.Btree.recover t in
  { Method_intf.scanned; redone; skipped; analysis_scanned = 0 }

let dump = Redo_btree.Btree.dump
let durable_ops = Redo_btree.Btree.durable_ops
let log_stats = Redo_btree.Btree.log_stats
let log = Redo_btree.Btree.log

let of_btree (t : Redo_btree.Btree.t) : t = t
let to_btree (t : t) : Redo_btree.Btree.t = t

let projection t =
  Projection.page_lsn ~method_name:name ~universe:(Redo_btree.Btree.stable_universe t)
    ~disk:(Redo_btree.Btree.disk t) (Redo_btree.Btree.log t)
