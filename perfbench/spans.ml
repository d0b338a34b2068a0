(* Spans around the benchmark's own calls into the store, as
   Redo_obs.Span values stamped with the monotonic clock. They are kept in
   memory and written out as one Chrome trace when the run ends. Every
   per-call duration also goes into a Sample series; of the per-op spans
   only one in [op_every] is kept, so a million-op run stays a few MB. *)

module Span = Redo_obs.Span

let enabled = ref false
let spans : Span.span list ref = ref []
let kept = ref 0
let dropped = ref 0
let next_id = ref 0
let stack = ref []
let op_every = 16
let op_tick = ref 0
let max_spans = 200_000

let current () = match !stack with [] -> 0 | id :: _ -> id

let push ~id ~parent name t0 t1 =
  if !kept < max_spans then begin
    spans :=
      Span.of_parts ~id ~parent ~domain:0 ~name ~start_ns:(float t0) ~end_ns:(float t1) ~attrs:[]
      :: !spans;
    incr kept
  end
  else incr dropped

let fresh () =
  incr next_id;
  !next_id

(* A span that is the parent of the spans recorded while [f] runs. *)
let parent name f =
  if not !enabled then f ()
  else begin
    let id = fresh () and parent = current () in
    let t0 = Sample.now_ns () in
    stack := id :: !stack;
    let finish () =
      stack := List.tl !stack;
      push ~id ~parent name t0 (Sample.now_ns ())
    in
    Fun.protect ~finally:finish f
  end

(* A leaf span the caller has already timed. *)
let leaf name t0 t1 = if !enabled then push ~id:(fresh ()) ~parent:(current ()) name t0 t1

(* A per-op leaf span, sampled one in [op_every]. *)
let op name t0 t1 =
  if !enabled then begin
    incr op_tick;
    if !op_tick mod op_every = 0 then leaf name t0 t1
  end

let write_chrome file =
  let oc = open_out file in
  output_string oc (Span.chrome_json (List.rev !spans));
  close_out oc
