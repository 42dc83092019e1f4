(** The traced run's fold over the machine's event stream: task phases
    (Fork / Slave_start / Slave_finish / Commit joined by task id), the
    end-of-run Counter samples, and a cross-check of the stream against
    [Mssp_machine.stats]. Accumulates over every run folded in one
    benchmark run. *)

module Trace = Mssp_trace.Trace
module M = Mssp_core.Mssp_machine

(** Attach [Trace.recording] to machine runs and fold their streams. *)
let recording = ref false

type mean = { mutable sum : float; mutable n : int }

let mean () = { sum = 0.0; n = 0 }

let add m v =
  m.sum <- m.sum +. v;
  m.n <- m.n + 1

let value m = if m.n = 0 then 0.0 else m.sum /. float_of_int m.n

let in_flight_cycles = ref 0.0
let cycles = ref 0.0
let events = ref 0
let forks = ref 0
let squashes = ref 0

let mismatches = ref []
(** runs whose fold disagrees with the machine's stats, described *)

let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let counter name = Option.value ~default:0 (Hashtbl.find_opt counters name)

let phases : (string * mean) list =
  [
    ("fork_interval_cycles", mean ());
    ("start_wait_cycles", mean ());
    ("exec_cycles", mean ());
    ("commit_wait_cycles", mean ());
  ]

(** Mean number of committed tasks between their fork and their commit,
    over the folded runs' cycles (Little's law). *)
let in_flight () = if !cycles = 0.0 then 0.0 else !in_flight_cycles /. !cycles

let per_run : (string * float list) list ref = ref []
(** every folded run's own phase means, in [phases] order, newest first *)

let fold_run ~what (evs : Trace.event list) (st : M.stats) =
  let fork_at = Hashtbl.create 1024 in
  let start_at = Hashtbl.create 1024 in
  let finish_at = Hashtbl.create 1024 in
  let local = List.map (fun (name, _) -> (name, mean ())) phases in
  let phase name = List.assoc name local in
  let last_fork = ref (-1) in
  let since tbl task cycle m =
    match Hashtbl.find_opt tbl task with
    | Some c -> add m (float_of_int (cycle - c))
    | None -> ()
  in
  List.iter
    (fun ev ->
      incr events;
      match ev with
      | Trace.Fork { cycle; task; _ } ->
        if !last_fork >= 0 then
          add (phase "fork_interval_cycles") (float_of_int (cycle - !last_fork));
        last_fork := cycle;
        Hashtbl.replace fork_at task cycle
      | Trace.Slave_start { cycle; task; _ } ->
        since fork_at task cycle (phase "start_wait_cycles");
        Hashtbl.replace start_at task cycle
      | Trace.Slave_finish { cycle; task; _ } ->
        since start_at task cycle (phase "exec_cycles");
        Hashtbl.replace finish_at task cycle
      | Trace.Commit { cycle; task; _ } -> (
        since finish_at task cycle (phase "commit_wait_cycles");
        match Hashtbl.find_opt fork_at task with
        | Some f -> in_flight_cycles := !in_flight_cycles +. float_of_int (cycle - f)
        | None -> ())
      | Trace.Counter { name; value; _ } ->
        Hashtbl.replace counters name (value + counter name)
      | _ -> ())
    evs;
  List.iter2
    (fun (_, total) (_, m) ->
      total.sum <- total.sum +. m.sum;
      total.n <- total.n + m.n)
    phases local;
  per_run := (what, List.map (fun (_, m) -> value m) local) :: !per_run;
  let s = Trace.Summary.of_events evs in
  cycles := !cycles +. float_of_int st.M.cycles;
  forks := !forks + s.Trace.Summary.forks;
  squashes := !squashes + s.Trace.Summary.squashes;
  let check label folded stat =
    if folded <> stat then
      mismatches :=
        Printf.sprintf "%s: trace %s %d <> stats %d" what label folded stat
        :: !mismatches
  in
  check "forks" s.Trace.Summary.forks st.M.tasks_spawned;
  check "commits" s.Trace.Summary.commits st.M.tasks_committed;
  check "squashes" s.Trace.Summary.squashes st.M.squashes;
  check "mismatch squashes" (Trace.Summary.squash_mismatch s) st.M.squash_mismatch;
  check "last cycle" s.Trace.Summary.last_cycle st.M.cycles

(** Split a stream holding several consecutive runs at their [Halt]s. *)
let split_runs evs =
  let runs, cur =
    List.fold_left
      (fun (runs, cur) ev ->
        match ev with
        | Trace.Halt _ -> (List.rev (ev :: cur) :: runs, [])
        | _ -> (runs, ev :: cur))
      ([], []) evs
  in
  List.rev (if cur = [] then runs else List.rev cur :: runs)

(** Fold the recorded stream of consecutive runs against their stats. *)
let fold ~what evs stats =
  let segments = split_runs evs in
  if List.length segments <> List.length stats then
    mismatches :=
      Printf.sprintf "%s: %d traced runs <> %d machine results" what
        (List.length segments) (List.length stats)
      :: !mismatches
  else List.iter2 (fold_run ~what) segments stats

(** Run [f] with a recording tracer when [!recording], folding the
    stream against the stats of the runs [f] returns. *)
let traced ~what (f : Mssp_trace.Trace.t option -> 'a) (stats : 'a -> M.stats list) =
  if not !recording then f None
  else begin
    let t, evs = Trace.recording () in
    let r = f (Some t) in
    Spans.with_ "trace_fold" (fun () -> fold ~what (evs ()) (stats r));
    r
  end
