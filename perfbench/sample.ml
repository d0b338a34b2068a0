(* The clocks, the canary, timing samples and their summaries, and the
   run's failed-check tally. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* CPU time of the whole process (every domain), in ns. The kernel
   charges a thread only for the time it ran: time the host gives this
   machine's vCPUs to other guests (steal) is left out, while the wall
   clock counts it, and every wait for the other domain with it. *)
external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]

(* How many CPUs this thread (and every domain it spawns) may run on,
   and how many the machine has. *)
external cpus_allowed : unit -> int = "perfbench_cpus_allowed" [@@noalloc]
external cpus_online : unit -> int = "perfbench_cpus_online" [@@noalloc]

(* A reading of both clocks. *)
type stamp = { wall_ns : int; cpu_ns : int }

let stamp () =
  let cpu_ns = cpu_ns () in
  { wall_ns = now_ns (); cpu_ns }

(* ---- the canary -------------------------------------------------------- *)

(* A pointer chase through one random cycle over 2M slots (16 MB, off the
   OCaml heap). It uses none of the program's code; its CPU time follows
   the clock and the memory latency the host gives this machine, which
   move every figure of the benchmark together for half an hour at a
   time (README.md). *)
let canary_ring =
  lazy
    (let n = 2 * 1024 * 1024 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     (* Sattolo's shuffle leaves a single cycle through every slot. *)
     let st = Random.State.make [| 0x5eed |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let canary_pos = ref 0
let canary_steps = 20_000

(* CPU ns for [canary_steps] dependent loads. *)
let canary_ns () =
  let ring = Lazy.force canary_ring in
  let c0 = cpu_ns () in
  let j = ref !canary_pos in
  for _ = 1 to canary_steps do
    j := Bigarray.Array1.unsafe_get ring !j
  done;
  canary_pos := !j;
  cpu_ns () - c0

(* ---- failed checks ---------------------------------------------------- *)

let failures = ref 0

(* Every failed output check or sanity check lands here; each one counts
   as a failed operation and makes the command exit non-zero. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "CHECK FAILED: %s\n%!" msg)
    fmt

(* ---- series ----------------------------------------------------------- *)

(* A per-op series pools one latency per client call; a per-cycle series
   holds one restart (or round) time each. Pooling a restart time into a
   per-op series once put a 351 ms "p50" above a 0.85 ms p90, so the kind
   is checked on every sample. *)
type kind = Per_op | Per_cycle

type t = {
  name : string;
  kind : kind;
  mutable data : float array;
  mutable n : int;
}

let create ~kind name = { name; kind; data = Array.make 64 0.; n = 0 }

let add_kind t kind v =
  if kind <> t.kind then fail "series %s: sample of the wrong kind" t.name
  else begin
    if t.n = Array.length t.data then begin
      let data = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 data 0 t.n;
      t.data <- data
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1
  end

let add_op t v = add_kind t Per_op v
let add_cycle t v = add_kind t Per_cycle v
let count t = t.n
let total t = Array.fold_left ( +. ) 0. (Array.sub t.data 0 t.n)
let mean t = if t.n = 0 then nan else total t /. float t.n

(* One quantity on both clocks: the CPU series is gated, the wall series
   is printed beside it. *)
type timing = { cpu : t; wall : t }

let timing ~kind name = { cpu = create ~kind name; wall = create ~kind (name ^ " (wall)") }

let op_timing tm a b =
  add_op tm.cpu (float (b.cpu_ns - a.cpu_ns));
  add_op tm.wall (float (b.wall_ns - a.wall_ns))

let cycle_timing tm a b =
  add_cycle tm.cpu (float (b.cpu_ns - a.cpu_ns));
  add_cycle tm.wall (float (b.wall_ns - a.wall_ns))

let sorted t =
  let a = Array.sub t.data 0 t.n in
  Array.sort compare a;
  a

let median t =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, reported only when at least ten samples lie
   beyond it: a p99 from 300 samples is three samples, not a tail. *)
let percentile t p =
  let a = sorted t in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
  if n = 0 || n - rank < 10 then None else Some a.(max 0 (rank - 1))

let tails = [ 90., "p90"; 99., "p99"; 99.9, "p99.9" ]

(* The samples in arrival order, for the run's record. *)
let values ?(scale = 1.) t =
  String.concat " " (List.init t.n (fun i -> Printf.sprintf "%.4g" (t.data.(i) /. scale)))

(* "p50=12.3 p90=.. (n=..)" in [scale] units, with the sanity check that
   no emitted tail percentile sits below the median. *)
let describe ?(scale = 1.) t =
  if t.n = 0 then "(no samples)"
  else begin
    let p50 = median t in
    let parts =
      List.filter_map
        (fun (p, label) ->
          match percentile t p with
          | None -> None
          | Some v ->
            if v < p50 then fail "series %s: %s %.0f below p50 %.0f" t.name label v p50;
            Some (Printf.sprintf "%s=%.2f" label (v /. scale)))
        tails
    in
    Printf.sprintf "p50=%.2f %s(n=%d)" (p50 /. scale)
      (String.concat "" (List.map (fun s -> s ^ " ") parts))
      t.n
  end
