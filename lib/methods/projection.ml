open Redo_core
open Redo_storage
open Redo_wal

type t = {
  method_name : string;
  ops : Op.t list;
  initial : State.t;
  stable : State.t;
  redo_ids : string list;
  universe : Var.Set.t;
}

let op_id lsn = Printf.sprintf "op%06d" (Lsn.to_int lsn)

let page_value ~lsn data = Page.to_value (Page.make ~lsn data)

let read_page lookup pid =
  match Page.of_value (lookup (Var.page pid)) with
  | page -> Page.data page
  | exception Page.Not_a_page _ -> Page.Empty

(* Physical operations "do not read data, they only write" (Section 6.2):
   the after-image, stamped with the record's LSN, is the entire effect. *)
let physical_op ~lsn ~pid image =
  let v = Var.page pid in
  Op.of_fn ~id:(op_id lsn) ~reads:Var.Set.empty ~writes:(Var.Set.singleton v) (fun _ ->
      [ v, page_value ~lsn image ])

(* A physiological operation reads and writes exactly one page — unless
   the page op is blind (Init_*, Set_bytes), in which case the read set
   is empty and the page stays unexposed while the record is unrecovered. *)
let physiological_op ~lsn ~pid op =
  let v = Var.page pid in
  let reads = if Page_op.is_blind op then Var.Set.empty else Var.Set.singleton v in
  Op.of_fn ~id:(op_id lsn) ~reads ~writes:(Var.Set.singleton v) (fun lookup ->
      let current = if Page_op.is_blind op then Page.Empty else read_page lookup pid in
      [ v, page_value ~lsn (Page_op.apply op current) ])

(* Generalized operations read and write different pages (Section 6.4). *)
let multi_op ~lsn mop =
  let reads = Var.Set.of_list (List.map Var.page (Multi_op.reads mop)) in
  let writes = List.map Var.page (Multi_op.writes mop) in
  Op.of_fn ~id:(op_id lsn) ~reads ~writes:(Var.Set.of_list writes) (fun lookup ->
      let data = Multi_op.apply mop ~read:(read_page lookup) in
      List.map (fun v -> v, page_value ~lsn data) writes)

(* A logical operation conceptually reads and writes the entire database
   (Section 6.1); values here are LSN-less page payloads because logical
   recovery never consults LSNs. *)
let logical_op ~lsn ~universe ~locate db_op =
  let vars = List.map Var.page universe in
  let var_set = Var.Set.of_list vars in
  Op.of_fn ~id:(op_id lsn) ~reads:var_set ~writes:var_set (fun lookup ->
      let apply pid =
        let data =
          match Page.data_of_value (lookup (Var.page pid)) with
          | data -> data
          | exception Page.Not_a_page _ -> Page.Empty
        in
        let target =
          match db_op with
          | Record.Db_put (k, _) | Record.Db_del k -> locate k
        in
        let data =
          if pid <> target then data
          else
            match db_op with
            | Record.Db_put (k, v) -> Page_op.apply (Page_op.Put (k, v)) data
            | Record.Db_del k -> Page_op.apply (Page_op.Del k) data
        in
        Var.page pid, Page.data_to_value data
      in
      List.map apply universe)

let initial_state ~lsn_values universe =
  let value = if lsn_values then Page.to_value Page.empty else Page.data_to_value Page.Empty in
  State.make (List.map (fun pid -> Var.page pid, value) universe)

let stable_state_of_disk ~lsn_values disk universe =
  let value pid =
    let page = Disk.read disk pid in
    if lsn_values then Page.to_value page else Page.data_to_value (Page.data page)
  in
  State.make (List.map (fun pid -> Var.page pid, value pid) universe)

let make ~method_name ~lsn_values ~universe ~ops ~stable ~redo_ids =
  {
    method_name;
    ops;
    initial = initial_state ~lsn_values universe;
    stable;
    redo_ids;
    universe = Var.Set.of_list (List.map Var.page universe);
  }

(* The page-LSN methods share one redo test, so they share one
   projection. The redo set is what the actual scan would replay:
   records the checkpoint does not skip whose LSN test (against the
   stable page at crash time) fails. A multi-page record is tested on
   the one page it writes. *)
let page_lsn ~method_name ~universe ~disk log =
  let start = Redo_restart.Page_redo.scan_start log in
  let step (ops, redo) r =
    let lsn = Record.lsn r in
    let add op pid =
      let redo =
        if Lsn.(start <= lsn) && Lsn.(Page.lsn (Disk.read disk pid) < lsn) then
          op_id lsn :: redo
        else redo
      in
      op :: ops, redo
    in
    match Record.payload r with
    | Record.Physiological { pid; op } -> add (physiological_op ~lsn ~pid op) pid
    | Record.Multi mop ->
      let dst = match Multi_op.writes mop with [ d ] -> d | _ -> assert false in
      add (multi_op ~lsn mop) dst
    | _ -> ops, redo
  in
  let ops, redo_ids = List.fold_left step ([], []) (Log_manager.stable_records log) in
  make ~method_name ~lsn_values:true ~universe ~ops:(List.rev ops)
    ~stable:(stable_state_of_disk ~lsn_values:true disk universe)
    ~redo_ids:(List.rev redo_ids)
