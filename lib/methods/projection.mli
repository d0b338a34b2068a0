(** Projection of a running system into the theory of [Redo_core].

    This is the library's "recovery checker" face: after a (simulated)
    crash, a method renders its stable log as theory operations, its
    stable disk as a theory state, and its redo test's verdicts as a
    redo set; [Redo_sim.Theory_check] then verifies the Recovery
    Invariant — [operations(log) − redo_set] must induce a prefix of the
    installation graph explaining the stable state — and re-runs the
    abstract Figure 6 procedure to confirm recovery reaches the final
    state. *)

open Redo_core
open Redo_storage
open Redo_wal

type t = {
  method_name : string;
  ops : Op.t list;  (** Stable-logged operations, in log (LSN) order. *)
  initial : State.t;  (** Every page empty. *)
  stable : State.t;  (** The stable disk at the crash. *)
  redo_ids : string list;  (** Operations the method's redo test replays. *)
  universe : Var.Set.t;  (** One variable per page. *)
}

val op_id : Lsn.t -> string
(** Theory operation id for the record with this LSN. *)

val physical_op : lsn:Lsn.t -> pid:int -> Page.data -> Op.t
(** Blind whole-page after-image write (Section 6.2). *)

val physiological_op : lsn:Lsn.t -> pid:int -> Page_op.t -> Op.t
(** Read-modify-write of one page; blind page ops get an empty read set
    (Section 6.3). *)

val multi_op : lsn:Lsn.t -> Multi_op.t -> Op.t
(** Generalized operation reading and writing different pages
    (Section 6.4). *)

val logical_op :
  lsn:Lsn.t -> universe:int list -> locate:(string -> int) -> Record.db_op -> Op.t
(** Whole-database operation (Section 6.1): reads and writes every page
    variable; values are LSN-less payloads. *)

val initial_state : lsn_values:bool -> int list -> State.t
val stable_state_of_disk : lsn_values:bool -> Disk.t -> int list -> State.t

val make :
  method_name:string ->
  lsn_values:bool ->
  universe:int list ->
  ops:Op.t list ->
  stable:State.t ->
  redo_ids:string list ->
  t

val page_lsn :
  method_name:string -> universe:int list -> disk:Disk.t -> Log_manager.t -> t
(** The projection of a page-LSN method (physiological, generalized,
    sharded): every stable physiological or multi-page record becomes a
    theory operation, and the redo set holds the records at or after
    {!Redo_restart.Page_redo.scan_start} whose written page's stable LSN
    is below their own — what the method's redo scan replays. *)
