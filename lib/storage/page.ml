module Entries = struct
  module M = Map.Make (String)

  type t = string M.t

  let empty = M.empty
  let is_empty = M.is_empty
  let cardinal = M.cardinal
  let find = M.find_opt
  let add = M.add
  let remove = M.remove

  let split key m =
    let below, at, above = M.split key m in
    below, (match at with None -> above | Some v -> M.add key v above)

  let bindings = M.bindings
  let of_bindings l = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l
  let equal = M.equal String.equal
end

type node =
  | Leaf of Entries.t
  | Internal of { seps : string list; children : int list }

type data =
  | Empty
  | Bytes of string
  | Kv of Entries.t
  | Node of node

type t = {
  lsn : Lsn.t;
  data : data;
}

let empty = { lsn = Lsn.zero; data = Empty }

let make ?(lsn = Lsn.zero) data = { lsn; data }

let lsn page = page.lsn
let data page = page.data
let with_lsn page lsn = { page with lsn }
let with_data page data = { page with data }

let node_equal a b =
  match a, b with
  | Leaf xs, Leaf ys -> Entries.equal xs ys
  | Internal a, Internal b -> a.seps = b.seps && a.children = b.children
  | (Leaf _ | Internal _), _ -> false

let data_equal a b =
  match a, b with
  | Empty, Empty -> true
  | Bytes a, Bytes b -> String.equal a b
  | Kv a, Kv b -> Entries.equal a b
  | Node a, Node b -> node_equal a b
  | (Empty | Bytes _ | Kv _ | Node _), _ -> false

let equal a b = Lsn.equal a.lsn b.lsn && data_equal a.data b.data

(* A simple deterministic wire encoding; its length approximates the
   on-disk page utilisation and is what "physically logging a page"
   costs in the log-volume experiments. *)
let encode_entries entries =
  String.concat "|" (List.map (fun (k, v) -> k ^ "=" ^ v) (Entries.bindings entries))

let encode_node = function
  | Leaf entries -> "L|" ^ encode_entries entries
  | Internal { seps; children } ->
    "I|" ^ String.concat "," seps ^ "|"
    ^ String.concat "," (List.map string_of_int children)

let encode_data = function
  | Empty -> "E"
  | Bytes s -> "B|" ^ s
  | Kv entries -> "K|" ^ encode_entries entries
  | Node n -> "N|" ^ encode_node n

let encode page = Printf.sprintf "%d#%s" (Lsn.to_int page.lsn) (encode_data page.data)

let byte_size page = String.length (encode page)

(* Theory projection: pages round-trip through Value.Str via Marshal,
   which is deterministic for structurally equal pages within a run. The
   readable [encode] stays the basis of size accounting.

   What is marshalled is a mirror of the page with each map replaced by
   its sorted bindings, never the map: two maps with equal bindings can
   differ in shape, and equal pages must project to equal values. The
   mirror is laid out as a page whose entries are a sorted association
   list, the page's earlier representation, so projected values keep
   their bytes. *)
type wire_node =
  | W_leaf of (string * string) list
  | W_internal of { seps : string list; children : int list }

type wire_data =
  | W_empty
  | W_bytes of string
  | W_kv of (string * string) list
  | W_node of wire_node

type wire = {
  w_lsn : Lsn.t;
  w_data : wire_data;
}

let to_wire = function
  | Empty -> W_empty
  | Bytes s -> W_bytes s
  | Kv entries -> W_kv (Entries.bindings entries)
  | Node (Leaf entries) -> W_node (W_leaf (Entries.bindings entries))
  | Node (Internal { seps; children }) -> W_node (W_internal { seps; children })

let of_wire = function
  | W_empty -> Empty
  | W_bytes s -> Bytes s
  | W_kv entries -> Kv (Entries.of_bindings entries)
  | W_node (W_leaf entries) -> Node (Leaf (Entries.of_bindings entries))
  | W_node (W_internal { seps; children }) -> Node (Internal { seps; children })

exception Not_a_page of string

(* Unmarshalling at the wrong type is memory-unsafe, and projected
   values of both kinds (full pages and LSN-less payloads) live in the
   same [Value.Str] space — so each carries a distinguishing tag that
   the decoder insists on. *)
let page_tag = "pg1!"
let data_tag = "pd1!"

let tagged tag s = tag ^ s

let untag tag s =
  let tl = String.length tag in
  if String.length s >= tl && String.equal (String.sub s 0 tl) tag then
    Some (String.sub s tl (String.length s - tl))
  else None

let to_value page =
  let wire = { w_lsn = page.lsn; w_data = to_wire page.data } in
  Redo_core.Value.Str (tagged page_tag (Marshal.to_string (wire : wire) []))

let of_value = function
  | Redo_core.Value.Str s ->
    (match untag page_tag s with
    | Some payload ->
      (match (Marshal.from_string payload 0 : wire) with
      | { w_lsn; w_data } -> { lsn = w_lsn; data = of_wire w_data }
      | exception _ -> raise (Not_a_page (String.escaped s)))
    | None -> raise (Not_a_page (String.escaped s)))
  | v -> raise (Not_a_page (Redo_core.Value.to_string v))

let data_to_value data =
  Redo_core.Value.Str (tagged data_tag (Marshal.to_string (to_wire data : wire_data) []))

let data_of_value = function
  | Redo_core.Value.Str s ->
    (match untag data_tag s with
    | Some payload ->
      (match (Marshal.from_string payload 0 : wire_data) with
      | wire -> of_wire wire
      | exception _ -> raise (Not_a_page (String.escaped s)))
    | None -> raise (Not_a_page (String.escaped s)))
  | v -> raise (Not_a_page (Redo_core.Value.to_string v))

let pp_data ppf = function
  | Empty -> Fmt.string ppf "empty"
  | Bytes s -> Fmt.pf ppf "bytes[%d]" (String.length s)
  | Kv entries -> Fmt.pf ppf "kv[%d]" (Entries.cardinal entries)
  | Node (Leaf entries) -> Fmt.pf ppf "leaf[%d]" (Entries.cardinal entries)
  | Node (Internal { children; _ }) -> Fmt.pf ppf "internal[%d]" (List.length children)

let pp ppf page = Fmt.pf ppf "{%a %a}" Lsn.pp page.lsn pp_data page.data
