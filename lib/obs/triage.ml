(* Post-crash triage: correlate the flight recorder's surviving frames
   with the stable log's survivors and say, with no help from live
   process state, what the system was doing when it died and who it
   made promises to.

   The analysis scopes itself to the final pre-crash epoch — the frames
   between the previous Crash frame (if any) and the last one. Frames
   after the last Crash frame are post-crash recording (recovery
   phases) and are reported separately as the recovery timeline.

   Verdict semantics (mirroring Log_manager.ticket_stable):
   - a ticket SURVIVED iff its LSN is within the post-crash stable
     horizon (survivors are always a dense prefix, so lsn <= stable_lsn
     is exact);
   - a ticket was CLAIMED stable iff the recorder shows the claim — a
     Commit frame (a barrier completed: the waiter was told "stable")
     or a Force/Batch frame whose horizon covers it. Claim frames are
     only emitted after the medium write, so
   - LIED_TO = claimed && not survived must be zero; a non-zero count
     is the smoking gun triage exists to find. *)

type log_summary = {
  stable_lsn : int;  (* post-crash stable horizon (= surviving record count) *)
  stable_records : int;
  stable_bytes : int;
  checkpoint_lsn : int option;  (* newest stable global checkpoint *)
  shard_horizons : (int * int) list;  (* page -> newest stable shard horizon *)
}

type ticket_kind = Barrier | Staged

type ticket = {
  t_lsn : int;
  t_kind : ticket_kind;
  t_claimed : bool;
  t_survived : bool;
  t_domain : int;
  t_ts_ns : int;
}

type shard_record = {
  s_lsn : int;
  s_shard : int;
  s_total : int;
  s_horizon : int;
  s_pages : int list;
  s_survived : bool;  (* the Shard_checkpoint record made it to the stable log *)
  s_plan_agrees : bool;
      (* survived => recovery's per-page horizons grant each covered
         page a horizon at least this record's (a newer record may
         supersede) *)
}

type lazy_drain = {
  ld_page : int;
  ld_queue : int;  (* records the drain replayed *)
  ld_demand : bool;  (* a client op faulted on the page (else the sweeper) *)
  ld_pre_crash : bool;
      (* true = the drain belongs to the crashed epoch — an instant
         restart that was itself cut down mid-recovery *)
  ld_domain : int;
  ld_ts_ns : int;
}

type report = {
  flight : Flight.scan;
  log : log_summary;
  crash : (int * bool) option;  (* number and torn-ness of the final crash *)
  epoch_frames : Flight.frame list;  (* final pre-crash epoch *)
  post_frames : Flight.frame list;  (* recorded after the crash (recovery) *)
  last_claimed : int;  (* highest LSN the recorder shows claimed stable *)
  last_staged : int;  (* highest LSN staged or committed pre-crash *)
  staged_lost : int;  (* tickets whose frames did not survive *)
  lied_to : int;  (* claimed stable but did not survive: must be 0 *)
  tickets : ticket list;
  shard_records : shard_record list;
  phases : (string * int) list;  (* post-crash recovery phases (name, crash no) *)
  lazy_drains : lazy_drain list;  (* on-demand redo, crashed epoch first *)
}

(* Frames up to and including the last Crash frame, starting after the
   second-to-last one: the epoch of the crash under triage. *)
let split_epoch frames =
  let is_crash f = match f.Flight.event with Flight.Crash _ -> true | _ -> false in
  let arr = Array.of_list frames in
  let n = Array.length arr in
  let last = ref (-1) and prev = ref (-1) in
  Array.iteri
    (fun i f ->
      if is_crash f then begin
        prev := !last;
        last := i
      end)
    arr;
  if !last < 0 then (None, frames, [])
  else begin
    let crash =
      match arr.(!last).Flight.event with
      | Flight.Crash { crash; torn } -> Some (crash, torn)
      | _ -> None
    in
    let epoch = Array.sub arr (!prev + 1) (!last - !prev) |> Array.to_list in
    let post = Array.sub arr (!last + 1) (n - !last - 1) |> Array.to_list in
    (crash, epoch, post)
  end

let analyze ~flight ~log =
  let crash, epoch_frames, post_frames = split_epoch flight.Flight.frames in
  (* The claim horizon: the highest LSN any surviving claim frame
     covers. Claims are recorded after the medium write, never before. *)
  let last_claimed =
    List.fold_left
      (fun acc f ->
        match f.Flight.event with
        | Flight.Commit { lsn } -> max acc lsn
        | Flight.Force { upto; _ } | Flight.Batch { upto; _ } -> max acc upto
        | _ -> acc)
      0 epoch_frames
  in
  let tickets =
    List.filter_map
      (fun f ->
        let mk kind lsn =
          Some
            {
              t_lsn = lsn;
              t_kind = kind;
              t_claimed = (kind = Barrier || lsn <= last_claimed);
              t_survived = lsn <= log.stable_lsn;
              t_domain = f.Flight.domain;
              t_ts_ns = f.Flight.ts_ns;
            }
        in
        match f.Flight.event with
        | Flight.Commit { lsn } -> mk Barrier lsn
        | Flight.Stage { lsn } -> mk Staged lsn
        | _ -> None)
      epoch_frames
  in
  (* One verdict per (kind, lsn): repeated sync barriers at the same
     horizon collapse to one line. *)
  let tickets =
    List.fold_left
      (fun acc t ->
        if List.exists (fun u -> u.t_lsn = t.t_lsn && u.t_kind = t.t_kind) acc then acc
        else t :: acc)
      [] tickets
    |> List.rev
  in
  let last_staged = List.fold_left (fun acc t -> max acc t.t_lsn) 0 tickets in
  let staged_lost = List.length (List.filter (fun t -> not t.t_survived) tickets) in
  let lied_to =
    List.length (List.filter (fun t -> t.t_claimed && not t.t_survived) tickets)
  in
  let horizon_of page = List.assoc_opt page log.shard_horizons in
  let shard_records =
    List.filter_map
      (fun f ->
        match f.Flight.event with
        | Flight.Shard_ckpt { lsn; shard; total; horizon; pages } ->
          let survived = lsn <= log.stable_lsn in
          let plan_agrees =
            (not survived)
            || List.for_all
                 (fun p -> match horizon_of p with Some h -> h >= horizon | None -> false)
                 pages
          in
          Some
            {
              s_lsn = lsn;
              s_shard = shard;
              s_total = total;
              s_horizon = horizon;
              s_pages = pages;
              s_survived = survived;
              s_plan_agrees = plan_agrees;
            }
        | _ -> None)
      epoch_frames
  in
  let phases =
    List.filter_map
      (fun f ->
        match f.Flight.event with
        | Flight.Phase { name; crash } -> Some (name, crash)
        | _ -> None)
      post_frames
  in
  (* What instant restart recovered on demand — split by which side of
     the crash the drain happened on. Pre-crash drains reconstruct a
     lazy recovery that was itself interrupted: those pages were
     replayed and possibly served before the second crash, and the next
     recovery must (and does, by the page-LSN test) replay them again
     from the same stable log. *)
  let drains_of pre_crash frames =
    List.filter_map
      (fun f ->
        match f.Flight.event with
        | Flight.Lazy_drain { page; queue; demand } ->
          Some
            {
              ld_page = page;
              ld_queue = queue;
              ld_demand = demand;
              ld_pre_crash = pre_crash;
              ld_domain = f.Flight.domain;
              ld_ts_ns = f.Flight.ts_ns;
            }
        | _ -> None)
      frames
  in
  let lazy_drains = drains_of true epoch_frames @ drains_of false post_frames in
  {
    flight;
    log;
    crash;
    epoch_frames;
    post_frames;
    last_claimed;
    last_staged;
    staged_lost;
    lied_to;
    tickets;
    shard_records;
    phases;
    lazy_drains;
  }

let ok r = r.lied_to = 0 && List.for_all (fun s -> s.s_plan_agrees) r.shard_records

let staged_verdicts r =
  List.filter_map (fun t -> if t.t_kind = Staged then Some (t.t_lsn, t.t_survived) else None) r.tickets

(* ---- rendering ----------------------------------------------------- *)

let pp_ticket ppf t =
  Fmt.pf ppf "lsn %-6d %-8s %-9s %s" t.t_lsn
    (match t.t_kind with Barrier -> "barrier" | Staged -> "staged")
    (if t.t_survived then "survived" else "LOST")
    (if t.t_claimed then if t.t_survived then "claimed stable" else "claimed stable — LIED TO"
     else "no claim made")

let pp_shard ppf s =
  Fmt.pf ppf "lsn %-6d shard %d/%d horizon=%-6d pages=%-4d %-9s %s" s.s_lsn s.s_shard
    s.s_total s.s_horizon (List.length s.s_pages)
    (if s.s_survived then "stable" else "LOST")
    (if not s.s_survived then "(recovery plan ignores it)"
     else if s.s_plan_agrees then "plan agrees"
     else "PLAN DIVERGES")

let pp ?(timeline = 20) ppf r =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf
    "flight recorder: %d frames in %d segments (%d torn tail%s, %d dropped by ring, %d \
     rotation%s)"
    (List.length r.flight.Flight.frames)
    r.flight.Flight.segments_used r.flight.Flight.torn_segments
    (if r.flight.Flight.torn_segments = 1 then "" else "s")
    r.flight.Flight.dropped_frames r.flight.Flight.rotations
    (if r.flight.Flight.rotations = 1 then "" else "s");
  if r.flight.Flight.dropped_frames > 0 then
    Fmt.pf ppf
      "@,note: the ring overflowed — the earliest %d frame%s of the flight are gone"
      r.flight.Flight.dropped_frames
      (if r.flight.Flight.dropped_frames = 1 then "" else "s");
  (match r.crash with
  | Some (n, torn) -> Fmt.pf ppf "@,crash: #%d (%s)" n (if torn then "torn tail" else "clean")
  | None -> Fmt.pf ppf "@,crash: none recorded (epoch = whole flight)");
  Fmt.pf ppf "@,stable log: %d records / %d bytes stable; last stable LSN %d%a"
    r.log.stable_records r.log.stable_bytes r.log.stable_lsn
    (fun ppf -> function
      | Some l -> Fmt.pf ppf "; checkpoint @@ %d" l
      | None -> ())
    r.log.checkpoint_lsn;
  Fmt.pf ppf "@,claims: last claimed-stable LSN %d; last staged LSN %d -> %d staged record%s lost with the crash"
    r.last_claimed r.last_staged
    (max 0 (r.last_staged - r.log.stable_lsn))
    (if max 0 (r.last_staged - r.log.stable_lsn) = 1 then "" else "s");
  let barriers = List.filter (fun t -> t.t_kind = Barrier) r.tickets in
  let staged = List.filter (fun t -> t.t_kind = Staged) r.tickets in
  Fmt.pf ppf "@,tickets: %d (%d barrier, %d staged); %d lost, %d lied to"
    (List.length r.tickets) (List.length barriers) (List.length staged) r.staged_lost
    r.lied_to;
  List.iter (fun t -> Fmt.pf ppf "@,  %a" pp_ticket t) r.tickets;
  if r.shard_records <> [] then begin
    let stable = List.filter (fun s -> s.s_survived) r.shard_records in
    Fmt.pf ppf "@,shard checkpoints: %d recorded, %d stable, %d lost"
      (List.length r.shard_records) (List.length stable)
      (List.length r.shard_records - List.length stable);
    List.iter (fun s -> Fmt.pf ppf "@,  %a" pp_shard s) r.shard_records
  end;
  if r.phases <> [] then begin
    Fmt.pf ppf "@,recovery phases after the crash:";
    List.iter (fun (name, crash) -> Fmt.pf ppf "@,  %s (crash %d)" name crash) r.phases
  end;
  if r.lazy_drains <> [] then begin
    let pre = List.filter (fun d -> d.ld_pre_crash) r.lazy_drains in
    let demand = List.filter (fun d -> d.ld_demand) r.lazy_drains in
    Fmt.pf ppf
      "@,lazy redo drains: %d (%d on demand, %d by sweeper); %d interrupted by the crash"
      (List.length r.lazy_drains) (List.length demand)
      (List.length r.lazy_drains - List.length demand)
      (List.length pre);
    List.iter
      (fun d ->
        Fmt.pf ppf "@,  page %-5d queue=%-4d %-7s %s" d.ld_page d.ld_queue
          (if d.ld_demand then "demand" else "sweeper")
          (if d.ld_pre_crash then "(pre-crash: redone again by the next recovery)" else ""))
      r.lazy_drains
  end;
  let frames = r.flight.Flight.frames in
  let n = List.length frames in
  let tail =
    if n <= timeline then frames
    else List.filteri (fun i _ -> i >= n - timeline) frames
  in
  Fmt.pf ppf "@,timeline (last %d of %d frames):" (List.length tail) n;
  List.iter (fun f -> Fmt.pf ppf "@,  %a" Flight.pp_frame f) tail;
  Fmt.pf ppf "@,verdict: %s"
    (if ok r then "OK — no waiter was lied to, shard records agree with the plan"
     else "FAILED — durability claims diverge from the stable log");
  Fmt.pf ppf "@]"

let to_json r =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let list f l =
    add "[";
    List.iteri
      (fun i x ->
        if i > 0 then add ", ";
        f x)
      l;
    add "]"
  in
  add "{\"flight\": {";
  add
    (Printf.sprintf
       "\"frames\": %d, \"segments_used\": %d, \"torn_segments\": %d, \"live_bytes\": %d, \
        \"dropped_frames\": %d, \"rotations\": %d}"
       (List.length r.flight.Flight.frames)
       r.flight.Flight.segments_used r.flight.Flight.torn_segments r.flight.Flight.live_bytes
       r.flight.Flight.dropped_frames r.flight.Flight.rotations);
  (match r.crash with
  | Some (n, torn) -> add (Printf.sprintf ", \"crash\": {\"number\": %d, \"torn\": %b}" n torn)
  | None -> add ", \"crash\": null");
  add
    (Printf.sprintf
       ", \"log\": {\"stable_lsn\": %d, \"stable_records\": %d, \"stable_bytes\": %d, \
        \"checkpoint_lsn\": %s}"
       r.log.stable_lsn r.log.stable_records r.log.stable_bytes
       (match r.log.checkpoint_lsn with Some l -> string_of_int l | None -> "null"));
  add
    (Printf.sprintf
       ", \"last_claimed\": %d, \"last_staged\": %d, \"staged_lost\": %d, \"lied_to\": %d"
       r.last_claimed r.last_staged r.staged_lost r.lied_to);
  add ", \"tickets\": ";
  list
    (fun t ->
      add
        (Printf.sprintf
           "{\"lsn\": %d, \"kind\": %s, \"claimed\": %b, \"survived\": %b, \"domain\": %d, \
            \"ts_ns\": %d}"
           t.t_lsn
           (Span.json_string (match t.t_kind with Barrier -> "barrier" | Staged -> "staged"))
           t.t_claimed t.t_survived t.t_domain t.t_ts_ns))
    r.tickets;
  add ", \"shard_records\": ";
  list
    (fun s ->
      add
        (Printf.sprintf
           "{\"lsn\": %d, \"shard\": %d, \"total\": %d, \"horizon\": %d, \"pages\": %d, \
            \"survived\": %b, \"plan_agrees\": %b}"
           s.s_lsn s.s_shard s.s_total s.s_horizon (List.length s.s_pages) s.s_survived
           s.s_plan_agrees))
    r.shard_records;
  add ", \"phases\": ";
  list
    (fun (name, crash) ->
      add (Printf.sprintf "{\"name\": %s, \"crash\": %d}" (Span.json_string name) crash))
    r.phases;
  add ", \"lazy_drains\": ";
  list
    (fun d ->
      add
        (Printf.sprintf
           "{\"page\": %d, \"queue\": %d, \"trigger\": %s, \"pre_crash\": %b, \
            \"domain\": %d, \"ts_ns\": %d}"
           d.ld_page d.ld_queue
           (Span.json_string (if d.ld_demand then "demand" else "sweeper"))
           d.ld_pre_crash d.ld_domain d.ld_ts_ns))
    r.lazy_drains;
  add ", \"timeline\": ";
  list (fun f -> add (Flight.frame_to_json f)) r.flight.Flight.frames;
  add (Printf.sprintf ", \"ok\": %b}" (ok r));
  Buffer.contents buf

(* ---- Chrome-trace export ------------------------------------------- *)

(* Each frame becomes a zero-duration complete event on its domain's
   track, reusing the Span trace_event writer so triage timelines open
   in the same Perfetto view as profiler output. *)
let chrome_spans r =
  List.mapi
    (fun i f ->
      Span.of_parts ~id:(i + 1) ~parent:0 ~domain:f.Flight.domain
        ~name:(Flight.event_name f.Flight.event)
        ~start_ns:(float_of_int f.Flight.ts_ns)
        ~end_ns:(float_of_int f.Flight.ts_ns)
        ~attrs:(("seq", Span.Int f.Flight.seq) :: Flight.event_attrs f.Flight.event))
    r.flight.Flight.frames

let chrome_json r = Span.chrome_json (chrome_spans r)
