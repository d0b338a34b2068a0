(* The three workloads and the inputs they feed the store.

   Every workload drives one store through the same round: set-up
   (preload every key, one sharded checkpoint), a write phase of
   fire-and-forget puts and deletes with a durable barrier every 512 ops
   and [checkpoints] sharded checkpoints, a closed-loop serve phase of
   gets and durable puts, then [cycles] crash/recover pairs (one eager,
   one instant). The workloads differ in sizes, so each loads a
   different layer; README.md gives the reasons for each size. *)

type config = {
  name : string;
  keys : int;
  pages : int;
  cache : int;  (* pages the shard's cache holds *)
  write_ops : int;  (* fire-and-forget puts and deletes per round *)
  checkpoints : int;  (* checkpoint_sharded calls spread over the write phase *)
  serve_ops : int;  (* closed-loop gets and durable puts per round *)
  cycles : int;  (* {crash; eager recover} + {crash; instant recover} pairs per round *)
  setups : int;  (* timed set-ups per round; the round keeps the last store *)
}

let barrier_every = 512
let theta = 0.99

let configs =
  [
    {
      name = "ingest";
      keys = 100_000;
      pages = 1024;
      cache = 1024;
      write_ops = 200_000;
      checkpoints = 3;
      serve_ops = 2_000;
      cycles = 3;
      setups = 4;
    };
    {
      name = "serve";
      keys = 100_000;
      pages = 4096;
      cache = 512;
      write_ops = 4_096;
      checkpoints = 1;
      serve_ops = 20_000;
      cycles = 1;
      setups = 1;
    };
    {
      name = "restart";
      keys = 20_000;
      pages = 1024;
      cache = 1024;
      write_ops = 300_000;
      checkpoints = 1;
      serve_ops = 2_000;
      cycles = 3;
      setups = 4;
    };
  ]

let find name = List.find_opt (fun c -> c.name = name) configs

(* Keys are Zipf ranks; rank 0 is the hottest key. *)
type op =
  | Put of int * string
  | Del of int
  | Commit of int * string  (* put_durable + await *)
  | Get of int

type input = {
  write : op array;
  checkpoint_after : bool array;  (* run checkpoint_sharded after write.(i) *)
  serve : op array;
}

(* Values are 16 bytes and unique within a run, so a stale read can
   never pass for a fresh one. *)
let value ~seed ~round i = Printf.sprintf "v%03d%04d%08d" (seed mod 1000) (round mod 10_000) i
let preload_value r = Printf.sprintf "p%015d" r

let generate cfg zipf ~seed ~round =
  let rng = Random.State.make [| seed; round; Hashtbl.hash cfg.name |] in
  let n = ref 0 in
  let next_value () =
    incr n;
    value ~seed ~round !n
  in
  let sample () = Redo_workload.Zipf.sample zipf rng in
  let write = ref [] in
  for i = 1 to cfg.write_ops do
    let r = sample () in
    write := (if Random.State.int rng 10 = 0 then Del r else Put (r, next_value ())) :: !write;
    if i mod barrier_every = 0 then write := Commit (sample (), next_value ()) :: !write
  done;
  let write = Array.of_list (List.rev !write) in
  let checkpoint_after = Array.make (Array.length write) false in
  for j = 1 to cfg.checkpoints do
    checkpoint_after.(Array.length write * j / (cfg.checkpoints + 1)) <- true
  done;
  let serve =
    Array.init cfg.serve_ops (fun _ ->
        let r = sample () in
        if Random.State.int rng 10 = 0 then Commit (r, next_value ()) else Get r)
  in
  { write; checkpoint_after; serve }

(* Key plus value bytes the client submits (a delete submits its key). *)
let user_bytes key = function
  | Put (r, v) | Commit (r, v) -> String.length (key r) + String.length v
  | Del r -> String.length (key r)
  | Get _ -> 0
