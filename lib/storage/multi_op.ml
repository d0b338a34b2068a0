exception Malformed of string

type t =
  | Split_to of { src : int; dst : int; at : string }
  | Copy of { src : int; dst : int }

let reads = function Split_to { src; _ } | Copy { src; _ } -> [ src ]
let writes = function Split_to { dst; _ } | Copy { dst; _ } -> [ dst ]

let split_point entries =
  match Page.Entries.bindings entries with
  | [] | [ _ ] -> raise (Malformed "split of a node with fewer than two entries")
  | bindings -> fst (List.nth bindings (List.length bindings / 2))

(* For internal nodes the separator at the split point moves up to the
   parent: the right node keeps separators strictly greater than [at]
   and the children from the split point onward. *)
let split_internal_upper ~at seps children =
  let rec go seps children =
    match seps, children with
    | [], rest -> [], rest
    | s :: srest, _ :: crest when String.compare s at <= 0 -> go srest crest
    | seps, children -> seps, children
  in
  let seps', children' = go seps children in
  Page.Internal { seps = seps'; children = children' }

let apply op ~read =
  match op with
  | Split_to { src; dst = _; at } ->
    (match (read src : Page.data) with
    | Page.Node (Page.Leaf entries) ->
      Page.Node (Page.Leaf (snd (Page.Entries.split at entries)))
    | Page.Kv entries -> Page.Kv (snd (Page.Entries.split at entries))
    | Page.Node (Page.Internal { seps; children }) ->
      Page.Node (split_internal_upper ~at seps children)
    | data -> raise (Malformed (Fmt.str "Split_to: source is %a" Page.pp_data data)))
  | Copy { src; dst = _ } -> read src

let logged_size = function
  | Split_to { at; _ } ->
    (* Two page ids, one key: the whole point of generalized logging is
       that the moved contents are NOT in the record. *)
    16 + String.length at
  | Copy _ -> 16

let to_string = function
  | Split_to { src; dst; at } -> Printf.sprintf "split(%d->%d@%s)" src dst at
  | Copy { src; dst } -> Printf.sprintf "copy(%d->%d)" src dst

let pp ppf op = Fmt.string ppf (to_string op)
