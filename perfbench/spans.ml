(** Spans recorded from the benchmark's own code, around each call into a
    layer's public functions. Off in timed runs (one branch per call);
    on in the traced run, where they are kept in memory and written out
    when the run ends. *)

type span = {
  id : int;
  name : string;  (** the layer, e.g. ["core"], ["distill"] *)
  parent : int;  (** enclosing span's id, -1 at the root *)
  op : int;  (** shared by every span of one operation *)
  start : float;
  stop : float;
  words : float;  (** minor-heap words allocated inside the span *)
  majors : int;  (** major collections finished inside the span *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current_op = ref 0
let stack : int list ref = ref []

(* process CPU seconds, the clock of every timed run *)
let now = Calib.cpu

(** Start a new operation: spans opened until the next call share its id. *)
let new_op () = incr current_op

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    let start = now () in
    let finish () =
      let stop = now () in
      let words = Gc.minor_words () -. w0 in
      let majors = (Gc.quick_stat ()).Gc.major_collections - m0 in
      stack := List.tl !stack;
      recorded := { id; name; parent; op; start; stop; words; majors } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* work counts recorded at the same boundaries, e.g. instructions *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let get_count name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

let count name n =
  if !enabled then Hashtbl.replace counts name (get_count name +. n)

let reset () =
  recorded := [];
  Hashtbl.reset counts;
  next_id := 0;
  stack := []

let duration s = s.stop -. s.start

type layer = {
  calls : int;
  total_s : float;
  self_s : float;  (** span time minus the time its child spans cover *)
  total_words : float;
  self_words : float;
  majors : int;
}

let no_layer =
  { calls = 0; total_s = 0.; self_s = 0.; total_words = 0.; self_words = 0.; majors = 0 }

(** Per-layer totals and self time over every recorded span. Child spans
    run strictly inside their parent and one after another, so the time
    they cover is the sum of their durations. *)
let layers () =
  let child_s = Hashtbl.create 64 and child_w = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_s s.parent (duration s);
        add child_w s.parent s.words
      end)
    !recorded;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
      let l = Option.value ~default:no_layer (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name
        {
          calls = l.calls + 1;
          total_s = l.total_s +. duration s;
          self_s = l.self_s +. duration s -. get child_s;
          total_words = l.total_words +. s.words;
          self_words = l.self_words +. s.words -. get child_w;
          majors = l.majors + s.majors;
        })
    !recorded;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let layer name = Option.value ~default:no_layer (List.assoc_opt name (layers ()))

(** One JSON object per span, oldest first. *)
let write path =
  let oc = open_out path in
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity !recorded in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_s\":%.6f,\"end_s\":%.6f,\"words\":%.0f}\n"
        s.id s.name s.parent s.op (s.start -. t0) (s.stop -. t0) s.words)
    (List.sort (fun a b -> compare a.id b.id) !recorded);
  close_out oc
