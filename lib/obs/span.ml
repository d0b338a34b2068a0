type value = String of string | Int of int | Float of float | Bool of bool

let pp_value ppf = function
  | String s -> Fmt.string ppf s
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Bool b -> Fmt.bool ppf b

(* Each ill-formed UTF-8 sequence (a maximal subpart, as the stdlib
   decoder reports it) becomes one U+FFFD. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  let i = ref 0 in
  while !i < String.length s do
    let d = String.get_utf_8_uchar s !i in
    let n = Uchar.utf_decode_length d in
    (match s.[!i] with
    | _ when not (Uchar.utf_decode_is_valid d) -> Buffer.add_string b "\\ufffd"
    | ('"' | '\\') as c ->
      Buffer.add_char b '\\';
      Buffer.add_char b c
    | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
    | _ -> Buffer.add_substring b s !i n);
    i := !i + n
  done;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_value = function
  | String s -> json_string s
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Bool b -> string_of_bool b

type span = {
  id : int;
  parent : int;  (* 0 = no parent *)
  domain : int;
  name : string;
  start_ns : float;
  end_ns : float;
  attrs : (string * value) list;
}

let duration_ns s = s.end_ns -. s.start_ns

(* An open span: everything but the end time, mutated only by the domain
   that opened it. *)
type frame = {
  f_id : int;
  f_parent : int;
  f_name : string;
  f_start : float;
  mutable f_attrs : (string * value) list;
}

(* Each domain records into its own buffer: pushes are plain mutations
   with no synchronisation, which is what keeps an enabled profiler off
   the contention path during parallel redo. Buffers register themselves
   in [bufs] (one mutex acquisition per domain lifetime, on first use)
   so collection can find them after the recording domains have already
   been joined. *)
type buf = {
  b_domain : int;
  mutable b_spans : span list;  (* completed, newest first *)
  mutable b_stack : frame list;  (* open, innermost first *)
}

let on = Atomic.make false
let next_id = Atomic.make 1
let bufs_mutex = Mutex.create ()
let bufs : buf list ref = ref []

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = { b_domain = (Domain.self () :> int); b_spans = []; b_stack = [] } in
      Mutex.lock bufs_mutex;
      bufs := b :: !bufs;
      Mutex.unlock bufs_mutex;
      b)

let enabled () = Atomic.get on
let set_enabled v = Atomic.set on v

(* CLOCK_MONOTONIC; a float holds its nanoseconds exactly for the
   first 104 days of uptime. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let reset () =
  Mutex.lock bufs_mutex;
  List.iter
    (fun b ->
      b.b_spans <- [];
      b.b_stack <- [])
    !bufs;
  Mutex.unlock bufs_mutex;
  Atomic.set next_id 1

let current () =
  if not (Atomic.get on) then 0
  else
    match (Domain.DLS.get buf_key).b_stack with
    | f :: _ -> f.f_id
    | [] -> 0

let note attrs =
  if Atomic.get on then
    match (Domain.DLS.get buf_key).b_stack with
    | f :: _ -> f.f_attrs <- f.f_attrs @ attrs
    | [] -> ()

let open_frame ?parent ?(attrs = []) name =
  let b = Domain.DLS.get buf_key in
  let parent =
    match parent with
    | Some p -> p
    | None -> (match b.b_stack with f :: _ -> f.f_id | [] -> 0)
  in
  let f =
    {
      f_id = Atomic.fetch_and_add next_id 1;
      f_parent = parent;
      f_name = name;
      f_start = now_ns ();
      f_attrs = attrs;
    }
  in
  b.b_stack <- f :: b.b_stack;
  b

let close_frame b =
  match b.b_stack with
  | [] -> ()
  | f :: rest ->
    b.b_stack <- rest;
    b.b_spans <-
      {
        id = f.f_id;
        parent = f.f_parent;
        domain = b.b_domain;
        name = f.f_name;
        start_ns = f.f_start;
        end_ns = now_ns ();
        attrs = f.f_attrs;
      }
      :: b.b_spans

let span ?parent ?attrs name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = open_frame ?parent ?attrs name in
    Fun.protect ~finally:(fun () -> close_frame b) f
  end

let collect () =
  Mutex.lock bufs_mutex;
  let bs = !bufs in
  Mutex.unlock bufs_mutex;
  List.concat_map (fun b -> b.b_spans) bs
  |> List.sort (fun a b ->
         match Float.compare a.start_ns b.start_ns with 0 -> compare a.id b.id | c -> c)

let of_parts ~id ~parent ~domain ~name ~start_ns ~end_ns ~attrs =
  { id; parent; domain; name; start_ns; end_ns; attrs }

let pp ppf s =
  Fmt.pf ppf "#%d%s d%d %-24s %.0fns" s.id
    (if s.parent = 0 then "" else Fmt.str "<-#%d" s.parent)
    s.domain s.name (duration_ns s);
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%a" k pp_value v) s.attrs

(* ---- Chrome trace_event export ------------------------------------ *)

(* The minimal view of a Chrome "complete" event, exposed so tests can
   validate field presence and per-track nesting without a JSON
   parser. Timestamps are microseconds from the earliest span start;
   one track (tid) per domain. *)
type chrome_event = {
  ev_name : string;
  ev_ph : string;
  ev_ts : float;  (* us *)
  ev_dur : float;  (* us *)
  ev_pid : int;
  ev_tid : int;
}

let chrome_origin spans =
  List.fold_left (fun acc s -> Float.min acc s.start_ns) infinity spans

let chrome_events spans =
  let t0 = chrome_origin spans in
  List.map
    (fun s ->
      {
        ev_name = s.name;
        ev_ph = "X";
        ev_ts = (s.start_ns -. t0) /. 1e3;
        ev_dur = duration_ns s /. 1e3;
        ev_pid = 1;
        ev_tid = s.domain;
      })
    spans

let chrome_json spans =
  let buf = Buffer.create 4096 in
  let t0 = chrome_origin spans in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.domain) spans)
  in
  let first = ref true in
  let add line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  (* Name each domain's track so Perfetto shows "domain N", not a bare
     tid. *)
  List.iter
    (fun d ->
      add
        (Printf.sprintf
           "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"args\": \
            {\"name\": \"domain %d\"}}"
           d d))
    domains;
  List.iter
    (fun s ->
      let args =
        (("span", Int s.id) :: (if s.parent = 0 then [] else [ "parent", Int s.parent ]))
        @ s.attrs
        |> List.map (fun (k, v) -> json_string k ^ ": " ^ json_value v)
        |> String.concat ", "
      in
      add
        (Printf.sprintf
           "{\"name\": %s, \"cat\": \"redo\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
            \"pid\": 1, \"tid\": %d, \"args\": {%s}}"
           (json_string s.name)
           ((s.start_ns -. t0) /. 1e3)
           (duration_ns s /. 1e3)
           s.domain args))
    spans;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf
