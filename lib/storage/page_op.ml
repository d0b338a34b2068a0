exception Type_mismatch of string

let mismatch fmt = Fmt.kstr (fun s -> raise (Type_mismatch s)) fmt

type t =
  | Put of string * string
  | Del of string
  | Set_bytes of string
  | Leaf_put of string * string
  | Leaf_del of string
  | Init_leaf of (string * string) list
  | Init_internal of { seps : string list; children : int list }
  | Internal_add of { sep : string; right : int }
  | Drop_from of { key : string }

let is_blind = function
  | Set_bytes _ | Init_leaf _ | Init_internal _ -> true
  | Put _ | Del _ | Leaf_put _ | Leaf_del _ | Internal_add _ | Drop_from _ -> false

let to_string = function
  | Put (k, v) -> Printf.sprintf "put(%s=%s)" k v
  | Del k -> Printf.sprintf "del(%s)" k
  | Set_bytes s -> Printf.sprintf "set_bytes[%d]" (String.length s)
  | Leaf_put (k, v) -> Printf.sprintf "leaf_put(%s=%s)" k v
  | Leaf_del k -> Printf.sprintf "leaf_del(%s)" k
  | Init_leaf entries -> Printf.sprintf "init_leaf[%d]" (List.length entries)
  | Init_internal { children; _ } -> Printf.sprintf "init_internal[%d]" (List.length children)
  | Internal_add { sep; right } -> Printf.sprintf "internal_add(%s->%d)" sep right
  | Drop_from { key } -> Printf.sprintf "drop_from(%s)" key

let apply op (data : Page.data) : Page.data =
  let module E = Page.Entries in
  match op, data with
  | Put (k, v), Page.Kv entries -> Page.Kv (E.add k v entries)
  | Put (k, v), Page.Empty -> Page.Kv (E.add k v E.empty)
  | Del k, Page.Kv entries -> Page.Kv (E.remove k entries)
  | Del _, Page.Empty -> Page.Kv E.empty
  | Set_bytes s, (Page.Empty | Page.Bytes _) -> Page.Bytes s
  | Leaf_put (k, v), Page.Node (Page.Leaf entries) -> Page.Node (Page.Leaf (E.add k v entries))
  | Leaf_put (k, v), Page.Empty -> Page.Node (Page.Leaf (E.add k v E.empty))
  | Leaf_del k, Page.Node (Page.Leaf entries) -> Page.Node (Page.Leaf (E.remove k entries))
  | Leaf_del _, Page.Empty -> Page.Node (Page.Leaf E.empty)
  | Init_leaf entries, _ -> Page.Node (Page.Leaf (E.of_bindings entries))
  | Init_internal { seps; children }, _ -> Page.Node (Page.Internal { seps; children })
  | Internal_add { sep; right }, Page.Node (Page.Internal { seps; children }) ->
    (* Insert separator in key order; the new child sits to its right. *)
    let rec go seps children =
      match seps, children with
      | [], [ c ] -> [ sep ], [ c; right ]
      | s :: srest, c :: crest ->
        if String.compare sep s < 0 then sep :: s :: srest, c :: right :: crest
        else
          let seps', children' = go srest crest in
          s :: seps', c :: children'
      | _ -> mismatch "Internal_add: malformed internal node"
    in
    let seps, children = go seps children in
    Page.Node (Page.Internal { seps; children })
  | Drop_from { key }, Page.Node (Page.Leaf entries) ->
    Page.Node (Page.Leaf (fst (E.split key entries)))
  | Drop_from { key }, Page.Kv entries -> Page.Kv (fst (E.split key entries))
  | Drop_from { key }, Page.Node (Page.Internal { seps; children }) ->
    (* Keep separators strictly below the split key and the children to
       their left (the median separator moves up to the parent). *)
    let rec go seps children =
      match seps, children with
      | s :: srest, c :: crest when String.compare s key < 0 ->
        let seps', children' = go srest crest in
        s :: seps', c :: children'
      | _, c :: _ -> [], [ c ]
      | _, [] -> mismatch "Drop_from: malformed internal node"
    in
    let seps, children = go seps children in
    Page.Node (Page.Internal { seps; children })
  | op, data -> mismatch "cannot apply %s to %a" (to_string op) Page.pp_data data

let logged_size op =
  match op with
  | Put (k, v) | Leaf_put (k, v) -> 8 + String.length k + String.length v
  | Del k | Leaf_del k -> 8 + String.length k
  | Set_bytes s -> 8 + String.length s
  | Init_leaf entries ->
    List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v + 2) 8 entries
  | Init_internal { seps; children } ->
    List.fold_left (fun acc s -> acc + String.length s + 1) (8 + (4 * List.length children)) seps
  | Internal_add { sep; _ } -> 12 + String.length sep
  | Drop_from { key } -> 8 + String.length key

let pp ppf op = Fmt.string ppf (to_string op)
