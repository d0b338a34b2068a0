open Redo_storage

let lsn n = Lsn.of_int n

let test_page_kv_helpers () =
  let module E = Page.Entries in
  let entries = E.add "a" "1" (E.add "b" "2" E.empty) in
  Alcotest.(check (list (pair string string))) "sorted insert" [ "a", "1"; "b", "2" ]
    (E.bindings entries);
  let entries = E.add "a" "9" entries in
  Alcotest.(check (option string)) "overwrite" (Some "9") (E.find "a" entries);
  let below, from = E.split "b" entries in
  Alcotest.(check (list (pair string string))) "split below" [ "a", "9" ] (E.bindings below);
  Alcotest.(check (list (pair string string))) "split from" [ "b", "2" ] (E.bindings from);
  let entries = E.remove "a" entries in
  Alcotest.(check (option string)) "deleted" None (E.find "a" entries)

let test_page_value_roundtrip () =
  let page = Page.make ~lsn:(lsn 7) (Util.kv [ "k", "v" ]) in
  let page' = Page.of_value (Page.to_value page) in
  Alcotest.(check bool) "roundtrip" true (Page.equal page page');
  (match Page.of_value (Redo_core.Value.Int 0) with
  | exception Page.Not_a_page _ -> ()
  | _ -> Alcotest.fail "expected Not_a_page")

let test_page_op_apply () =
  let data = Page_op.apply (Page_op.Put ("x", "1")) Page.Empty in
  Alcotest.(check bool) "put on empty" true (Page.data_equal data (Util.kv [ "x", "1" ]));
  let data = Page_op.apply (Page_op.Del ("x")) data in
  Alcotest.(check bool) "del" true (Page.data_equal data (Util.kv []));
  (match Page_op.apply (Page_op.Leaf_put ("k", "v")) (Page.Bytes "raw") with
  | exception Page_op.Type_mismatch _ -> ()
  | _ -> Alcotest.fail "expected Type_mismatch")

let test_page_op_blind () =
  Alcotest.(check bool) "init is blind" true (Page_op.is_blind (Page_op.Init_leaf []));
  Alcotest.(check bool) "put reads" false (Page_op.is_blind (Page_op.Put ("a", "b")))

let test_internal_add () =
  let node = Page.Node (Page.Internal { seps = [ "m" ]; children = [ 1; 2 ] }) in
  let node = Page_op.apply (Page_op.Internal_add { sep = "f"; right = 3 }) node in
  (match node with
  | Page.Node (Page.Internal { seps; children }) ->
    Alcotest.(check (list string)) "seps" [ "f"; "m" ] seps;
    Alcotest.(check (list int)) "children" [ 1; 3; 2 ] children
  | _ -> Alcotest.fail "expected internal");
  let node = Page_op.apply (Page_op.Internal_add { sep = "z"; right = 4 }) node in
  (match node with
  | Page.Node (Page.Internal { seps; children }) ->
    Alcotest.(check (list string)) "seps appended" [ "f"; "m"; "z" ] seps;
    Alcotest.(check (list int)) "children appended" [ 1; 3; 2; 4 ] children
  | _ -> Alcotest.fail "expected internal")

let test_multi_split () =
  let entries = Page.Entries.of_bindings [ "a", "1"; "b", "2"; "c", "3"; "d", "4" ] in
  let at = Multi_op.split_point entries in
  Alcotest.(check string) "median" "c" at;
  let read _ = Page.Node (Page.Leaf entries) in
  let upper = Multi_op.apply (Multi_op.Split_to { src = 1; dst = 2; at }) ~read in
  Alcotest.(check bool) "upper half" true
    (Page.data_equal upper (Util.leaf [ "c", "3"; "d", "4" ]));
  let lower = Page_op.apply (Page_op.Drop_from { key = at }) (Page.Node (Page.Leaf entries)) in
  Alcotest.(check bool) "lower half" true
    (Page.data_equal lower (Util.leaf [ "a", "1"; "b", "2" ]))

let test_multi_split_internal () =
  let node = Page.Internal { seps = [ "b"; "d"; "f" ]; children = [ 1; 2; 3; 4 ] } in
  let read _ = Page.Node node in
  let upper = Multi_op.apply (Multi_op.Split_to { src = 0; dst = 9; at = "d" }) ~read in
  Alcotest.(check bool) "upper keeps > d" true
    (Page.data_equal upper (Page.Node (Page.Internal { seps = [ "f" ]; children = [ 3; 4 ] })));
  let lower = Page_op.apply (Page_op.Drop_from { key = "d" }) (Page.Node node) in
  Alcotest.(check bool) "lower keeps < d" true
    (Page.data_equal lower (Page.Node (Page.Internal { seps = [ "b" ]; children = [ 1; 2 ] })))

(* ---- map-backed pages against the list-era page ---------------------- *)

(* The page's key/value payload was a sorted association list; these are
   its functions and its layout, kept as the oracle the map is held to. *)
module List_page = struct
  let put entries k v =
    let rec go = function
      | [] -> [ k, v ]
      | (k', v') :: rest ->
        if String.compare k k' < 0 then (k, v) :: (k', v') :: rest
        else if String.equal k k' then (k, v) :: rest
        else (k', v') :: go rest
    in
    go entries

  let del entries k = List.filter (fun (k', _) -> not (String.equal k k')) entries
  let sorted entries = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) entries
  let below key entries = List.filter (fun (k, _) -> String.compare k key < 0) entries
  let from key entries = List.filter (fun (k, _) -> String.compare k key >= 0) entries

  let split_point entries =
    match List.length entries with
    | 0 | 1 -> raise (Multi_op.Malformed "split of a node with fewer than two entries")
    | n -> fst (List.nth entries (n / 2))

  type node =
    | Leaf of (string * string) list
    | Internal of { seps : string list; children : int list }

  type data =
    | Empty
    | Bytes of string
    | Kv of (string * string) list
    | Node of node

  type t = {
    lsn : Lsn.t;
    data : data;
  }

  (* [Page.data_to_value] and [Page.to_value] of the list-era page. *)
  let data_value data = Redo_core.Value.Str ("pd1!" ^ Marshal.to_string (data : data) [])
  let page_value page = Redo_core.Value.Str ("pg1!" ^ Marshal.to_string (page : t) [])

  let encode_data = function
    | Kv entries -> "K|" ^ String.concat "|" (List.map (fun (k, v) -> k ^ "=" ^ v) entries)
    | Node (Leaf entries) ->
      "N|L|" ^ String.concat "|" (List.map (fun (k, v) -> k ^ "=" ^ v) entries)
    | Empty | Bytes _ | Node (Internal _) -> invalid_arg "List_page.encode_data"
end

let value_string = function Redo_core.Value.Str s -> s | _ -> Alcotest.fail "not a string value"

(* The hazard: two maps with equal bindings, built in opposite orders,
   have different shapes; pages holding them are equal and project to
   the same bytes, the list-era page's. *)
let test_equal_bindings_project_alike () =
  let bindings = List.init 12 (fun i -> Printf.sprintf "k%02d" i, string_of_int i) in
  let up = Page.Entries.of_bindings bindings
  and down = Page.Entries.of_bindings (List.rev bindings) in
  Alcotest.(check bool) "the two maps differ in shape" false
    (String.equal (Marshal.to_string up []) (Marshal.to_string down []));
  Alcotest.(check bool) "entries equal" true (Page.Entries.equal up down);
  List.iter
    (fun (what, wrap, list_data) ->
      let a = Page.make ~lsn:(lsn 3) (wrap up) and b = Page.make ~lsn:(lsn 3) (wrap down) in
      Alcotest.(check bool) (what ^ ": pages equal") true (Page.equal a b);
      Alcotest.(check string) (what ^ ": to_value")
        (value_string (Page.to_value a)) (value_string (Page.to_value b));
      Alcotest.(check string) (what ^ ": data_to_value")
        (value_string (Page.data_to_value (Page.data a)))
        (value_string (Page.data_to_value (Page.data b)));
      Alcotest.(check string) (what ^ ": to_value = list-era bytes")
        (value_string (List_page.page_value { List_page.lsn = lsn 3; data = list_data }))
        (value_string (Page.to_value a));
      Alcotest.(check string) (what ^ ": data_to_value = list-era bytes")
        (value_string (List_page.data_value list_data))
        (value_string (Page.data_to_value (Page.data b)));
      Alcotest.(check bool) (what ^ ": round trip") true
        (Page.equal a (Page.of_value (Page.to_value b))))
    [
      "kv", (fun e -> Page.Kv e), List_page.Kv bindings;
      "leaf", (fun e -> Page.Node (Page.Leaf e)), List_page.Node (List_page.Leaf bindings);
    ]

(* Projected bytes captured from the list-era page. *)
let test_projection_golden_bytes () =
  Alcotest.(check string) "to_value of a kv page"
    "706731218495a6be000000100000000a0000001900000019a04991a0a021612131a0a02162213240"
    (Util.hex
       (value_string (Page.to_value (Page.make ~lsn:(lsn 9) (Util.kv [ "b", "2"; "a", "1" ])))));
  Alcotest.(check string) "data_to_value of a leaf"
    "706431218495a6be0000000f0000000a00000018000000189290a0a021612131a0a02162213240"
    (Util.hex (value_string (Page.data_to_value (Util.leaf [ "b", "2"; "a", "1" ]))))

(* Random page-op sequences through the map-backed page and through the
   list-era functions: equal sorted bindings, point reads, encoding,
   projection and split point after every step. *)
let prop_map_page_matches_list_page seed =
  let rng = Random.State.make [| seed; 0x9a6e |] in
  let key () =
    if Random.State.int rng 4 = 0 then Printf.sprintf "x%d" (Random.State.int rng 1000)
    else Printf.sprintf "k%02d" (Random.State.int rng 40)
  in
  let value () = string_of_int (Random.State.int rng 100) in
  let distinct n =
    let keys = List.sort_uniq String.compare (List.init n (fun _ -> key ())) in
    (* a shuffled order: [Init_leaf] sorts its entries *)
    List.map snd
      (List.sort compare (List.map (fun k -> Random.State.bits rng, (k, value ())) keys))
  in
  let wrap ~leaf entries = if leaf then Page.Node (Page.Leaf entries) else Page.Kv entries in
  let list_wrap ~leaf entries =
    if leaf then List_page.Node (List_page.Leaf entries) else List_page.Kv entries
  in
  let entries_of = function
    | Page.Kv e | Page.Node (Page.Leaf e) -> e
    | data -> Alcotest.failf "unexpected payload %a" Page.pp_data data
  in
  let data = ref (Page.Kv Page.Entries.empty) and leaf = ref false and oracle = ref [] in
  for step = 1 to 60 do
    let k = key () in
    let op_name, data', oracle' =
      match Random.State.int rng 10 with
      | 0 | 1 | 2 ->
        let v = value () in
        let op = if !leaf then Page_op.Leaf_put (k, v) else Page_op.Put (k, v) in
        Page_op.to_string op, Page_op.apply op !data, List_page.put !oracle k v
      | 3 | 4 ->
        let op = if !leaf then Page_op.Leaf_del k else Page_op.Del k in
        Page_op.to_string op, Page_op.apply op !data, List_page.del !oracle k
      | 5 ->
        let op = Page_op.Drop_from { key = k } in
        Page_op.to_string op, Page_op.apply op !data, List_page.below k !oracle
      | 6 ->
        let entries = distinct (Random.State.int rng 30) in
        leaf := true;
        let op = Page_op.Init_leaf entries in
        Page_op.to_string op, Page_op.apply op !data, List_page.sorted entries
      | 7 when List.length !oracle >= 2 ->
        (* A split divides at the split point, as the B-tree does. *)
        let at = Multi_op.split_point (entries_of !data) in
        let op = Multi_op.Split_to { src = 1; dst = 2; at } in
        Multi_op.to_string op, Multi_op.apply op ~read:(fun _ -> !data), List_page.from at !oracle
      | _ ->
        let op = Multi_op.Split_to { src = 1; dst = 2; at = k } in
        Multi_op.to_string op, Multi_op.apply op ~read:(fun _ -> !data), List_page.from k !oracle
    in
    data := data';
    oracle := oracle';
    let at = Printf.sprintf "step %d %s" step op_name in
    let entries = entries_of !data in
    Alcotest.(check (list (pair string string))) (at ^ ": bindings") !oracle
      (Page.Entries.bindings entries);
    Alcotest.(check (option string)) (at ^ ": find") (List.assoc_opt k !oracle)
      (Page.Entries.find k entries);
    Alcotest.(check int) (at ^ ": cardinal") (List.length !oracle) (Page.Entries.cardinal entries);
    Alcotest.(check bool) (at ^ ": equal to the page rebuilt from its bindings") true
      (Page.data_equal !data (wrap ~leaf:!leaf (Page.Entries.of_bindings !oracle)));
    Alcotest.(check string) (at ^ ": encode_data")
      (List_page.encode_data (list_wrap ~leaf:!leaf !oracle))
      (Page.encode_data !data);
    Alcotest.(check string) (at ^ ": data_to_value")
      (value_string (List_page.data_value (list_wrap ~leaf:!leaf !oracle)))
      (value_string (Page.data_to_value !data));
    if List.length !oracle >= 2 then
      Alcotest.(check string) (at ^ ": split point") (List_page.split_point !oracle)
        (Multi_op.split_point entries)
  done;
  true

let test_disk_atomic () =
  let disk = Disk.create () in
  Alcotest.(check bool) "missing page is empty" true (Page.equal Page.empty (Disk.read disk 5));
  Disk.write disk 5 (Page.make ~lsn:(lsn 1) (Page.Bytes "hello"));
  Alcotest.(check bool) "written" true
    (Page.data_equal (Page.data (Disk.read disk 5)) (Page.Bytes "hello"));
  Alcotest.(check (list int)) "page ids" [ 5 ] (Disk.page_ids disk);
  let snapshot = Disk.copy disk in
  Disk.write disk 5 (Page.make ~lsn:(lsn 2) (Page.Bytes "bye"));
  Alcotest.(check bool) "snapshot unaffected" true
    (Page.data_equal (Page.data (Disk.read snapshot 5)) (Page.Bytes "hello"))

let test_cache_read_through () =
  let disk = Disk.create () in
  Disk.write disk 1 (Page.make ~lsn:(lsn 1) (Page.Bytes "on disk"));
  let cache = Cache.create disk in
  Alcotest.(check bool) "reads through" true
    (Page.data_equal (Page.data (Cache.read cache 1)) (Page.Bytes "on disk"));
  Alcotest.(check int) "one miss" 1 (Cache.stats cache).Cache.misses;
  ignore (Cache.read cache 1);
  Alcotest.(check int) "then a hit" 1 (Cache.stats cache).Cache.hits

let test_cache_dirty_and_flush () =
  let disk = Disk.create () in
  let cache = Cache.create disk in
  Cache.update cache 1 ~lsn:(lsn 3) (fun _ -> Page.Bytes "dirty");
  Alcotest.(check bool) "dirty" true (Cache.is_dirty cache 1);
  Alcotest.(check bool) "not yet on disk" true (Page.equal Page.empty (Disk.read disk 1));
  Cache.flush_page cache 1;
  Alcotest.(check bool) "clean" false (Cache.is_dirty cache 1);
  Alcotest.(check bool) "on disk with lsn" true
    (Lsn.equal (lsn 3) (Page.lsn (Disk.read disk 1)))

let test_cache_wal_hook () =
  let disk = Disk.create () in
  let forced = ref [] in
  let cache = Cache.create ~before_flush:(fun p -> forced := Page.lsn p :: !forced) disk in
  Cache.update cache 1 ~lsn:(lsn 9) (fun _ -> Page.Bytes "x");
  Cache.flush_page cache 1;
  Alcotest.(check (list int)) "hook saw the page lsn" [ 9 ] (List.map Lsn.to_int !forced)

let test_cache_flush_order () =
  let disk = Disk.create () in
  let cache = Cache.create disk in
  Cache.update cache 1 ~lsn:(lsn 1) (fun _ -> Page.Bytes "new node");
  Cache.update cache 2 ~lsn:(lsn 2) (fun _ -> Page.Bytes "old node");
  Cache.add_flush_order cache ~first:1 ~next:2;
  Alcotest.(check (list int)) "would force 1" [ 1 ] (Cache.would_force cache 2);
  Cache.flush_page cache 2;
  (* Page 1 must have been dragged to disk first. *)
  Alcotest.(check bool) "prerequisite flushed" true
    (Page.data_equal (Page.data (Disk.read disk 1)) (Page.Bytes "new node"));
  Alcotest.(check int) "forced flush counted" 1 (Cache.stats cache).Cache.forced_order_flushes;
  Alcotest.(check (list (pair int int))) "constraint consumed" [] (Cache.flush_orders cache)

let test_cache_flush_order_cycle () =
  let cache = Cache.create (Disk.create ()) in
  Cache.update cache 1 ~lsn:(lsn 1) (fun _ -> Page.Bytes "a");
  Cache.update cache 2 ~lsn:(lsn 2) (fun _ -> Page.Bytes "b");
  Cache.add_flush_order cache ~first:1 ~next:2;
  Cache.add_flush_order cache ~first:2 ~next:1;
  match Cache.flush_page cache 1 with
  | exception Cache.Flush_cycle _ -> ()
  | _ -> Alcotest.fail "expected Flush_cycle"

let test_cache_eviction () =
  let disk = Disk.create () in
  let cache = Cache.create ~capacity:2 disk in
  Cache.update cache 1 ~lsn:(lsn 1) (fun _ -> Page.Bytes "1");
  Cache.update cache 2 ~lsn:(lsn 2) (fun _ -> Page.Bytes "2");
  Cache.update cache 3 ~lsn:(lsn 3) (fun _ -> Page.Bytes "3");
  Alcotest.(check bool) "capacity respected" true (List.length (Cache.cached_pages cache) <= 2);
  Alcotest.(check bool) "evicted dirty page was flushed" true
    (Page.data_equal (Page.data (Disk.read disk 1)) (Page.Bytes "1"))

let test_eviction_prefers_clean () =
  (* Page 1 is dirty and older, page 2 is clean and newer: the clean
     page is evicted anyway, without any flush. *)
  let disk = Disk.create () in
  let cache = Cache.create ~capacity:2 disk in
  Cache.update cache 1 ~lsn:(lsn 1) (fun _ -> Page.Bytes "dirty");
  ignore (Cache.read cache 2);
  ignore (Cache.read cache 3);
  Alcotest.(check (list int)) "clean page evicted, dirty kept" [ 1; 3 ]
    (Cache.cached_pages cache);
  Alcotest.(check int) "no flush needed" 0 (Cache.stats cache).Cache.flushes;
  Alcotest.(check bool) "dirty page survived" true (Cache.is_dirty cache 1)

let test_eviction_lru_order () =
  (* All clean: the least recently used page goes first; touching a page
     refreshes it. *)
  let cache = Cache.create ~capacity:2 (Disk.create ()) in
  ignore (Cache.read cache 1);
  ignore (Cache.read cache 2);
  ignore (Cache.read cache 1);
  (* 2 is now LRU. *)
  ignore (Cache.read cache 3);
  Alcotest.(check (list int)) "lru clean page evicted" [ 1; 3 ] (Cache.cached_pages cache);
  (* All dirty: the least recently dirtied page is flushed out first. *)
  let disk = Disk.create () in
  let cache = Cache.create ~capacity:2 disk in
  Cache.update cache 1 ~lsn:(lsn 1) (fun _ -> Page.Bytes "1");
  Cache.update cache 2 ~lsn:(lsn 2) (fun _ -> Page.Bytes "2");
  Cache.update cache 1 ~lsn:(lsn 3) (fun _ -> Page.Bytes "1b");
  Cache.update cache 3 ~lsn:(lsn 4) (fun _ -> Page.Bytes "3");
  Alcotest.(check (list int)) "lru dirty page evicted" [ 1; 3 ] (Cache.cached_pages cache);
  Alcotest.(check bool) "and written back" true
    (Page.data_equal (Page.data (Disk.read disk 2)) (Page.Bytes "2"))

let test_eviction_protects_in_use () =
  (* The page the caller is in the middle of using is never the victim,
     even when it is the only resident page. *)
  let cache = Cache.create ~capacity:0 (Disk.create ()) in
  Cache.update cache 7 ~lsn:(lsn 1) (fun _ -> Page.Bytes "live");
  Alcotest.(check (list int)) "in-use page survives zero capacity" [ 7 ]
    (Cache.cached_pages cache);
  Alcotest.(check bool) "still dirty" true (Cache.is_dirty cache 7)

let test_cache_flush_order_long_cycle () =
  (* A cycle through three pages is still detected by the recursive
     prerequisite walk. *)
  let cache = Cache.create (Disk.create ()) in
  List.iter
    (fun pid -> Cache.update cache pid ~lsn:(lsn pid) (fun _ -> Page.Bytes "x"))
    [ 1; 2; 3 ];
  Cache.add_flush_order cache ~first:1 ~next:2;
  Cache.add_flush_order cache ~first:2 ~next:3;
  Cache.add_flush_order cache ~first:3 ~next:1;
  match Cache.flush_page cache 3 with
  | exception Cache.Flush_cycle _ -> ()
  | _ -> Alcotest.fail "expected Flush_cycle"

let test_cache_crash () =
  let disk = Disk.create () in
  let cache = Cache.create disk in
  Cache.update cache 1 ~lsn:(lsn 1) (fun _ -> Page.Bytes "volatile");
  Cache.drop_volatile cache;
  Alcotest.(check bool) "lost" true (Page.equal Page.empty (Cache.read cache 1))

let test_rec_lsn_lifecycle () =
  let cache = Cache.create (Disk.create ()) in
  Alcotest.(check (option int)) "clean page has no recLSN" None
    (Option.map Lsn.to_int (Cache.rec_lsn cache 1));
  Cache.update cache 1 ~lsn:(lsn 5) (fun _ -> Page.Bytes "a");
  Cache.update cache 1 ~lsn:(lsn 9) (fun _ -> Page.Bytes "b");
  Alcotest.(check (option int)) "recLSN is the first dirtier" (Some 5)
    (Option.map Lsn.to_int (Cache.rec_lsn cache 1));
  Cache.flush_page cache 1;
  Alcotest.(check (option int)) "cleared by the flush" None
    (Option.map Lsn.to_int (Cache.rec_lsn cache 1));
  Cache.update cache 1 ~lsn:(lsn 12) (fun _ -> Page.Bytes "c");
  Alcotest.(check (option int)) "fresh epoch" (Some 12)
    (Option.map Lsn.to_int (Cache.rec_lsn cache 1));
  Alcotest.(check (option int)) "min over dirty pages" (Some 12)
    (Option.map Lsn.to_int (Cache.min_rec_lsn cache))

let suite =
  [
    Alcotest.test_case "page kv helpers" `Quick test_page_kv_helpers;
    Alcotest.test_case "page value roundtrip" `Quick test_page_value_roundtrip;
    Alcotest.test_case "page op apply" `Quick test_page_op_apply;
    Alcotest.test_case "blind page ops" `Quick test_page_op_blind;
    Alcotest.test_case "internal add" `Quick test_internal_add;
    Alcotest.test_case "multi split (leaf)" `Quick test_multi_split;
    Alcotest.test_case "multi split (internal)" `Quick test_multi_split_internal;
    Alcotest.test_case "equal bindings, different shapes: equal pages, equal bytes" `Quick
      test_equal_bindings_project_alike;
    Alcotest.test_case "projected page bytes as the list-era page's" `Quick
      test_projection_golden_bytes;
    Util.qtest ~count:200 "map page = list-era page over random op sequences (fuzz)"
      prop_map_page_matches_list_page;
    Alcotest.test_case "disk" `Quick test_disk_atomic;
    Alcotest.test_case "cache read-through" `Quick test_cache_read_through;
    Alcotest.test_case "cache dirty/flush" `Quick test_cache_dirty_and_flush;
    Alcotest.test_case "cache WAL hook" `Quick test_cache_wal_hook;
    Alcotest.test_case "careful write order" `Quick test_cache_flush_order;
    Alcotest.test_case "write order cycle detected" `Quick test_cache_flush_order_cycle;
    Alcotest.test_case "write order long cycle detected" `Quick
      test_cache_flush_order_long_cycle;
    Alcotest.test_case "eviction" `Quick test_cache_eviction;
    Alcotest.test_case "eviction prefers clean" `Quick test_eviction_prefers_clean;
    Alcotest.test_case "eviction LRU order" `Quick test_eviction_lru_order;
    Alcotest.test_case "eviction protects in-use page" `Quick test_eviction_protects_in_use;
    Alcotest.test_case "crash drops volatile" `Quick test_cache_crash;
    Alcotest.test_case "recLSN lifecycle" `Quick test_rec_lsn_lifecycle;
  ]
