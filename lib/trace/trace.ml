(* The structured event bus. See trace.mli for the design contract; the
   short version: events are plain data (an untraced Predict keeps the
   checkpoint's live-in by reference so the hot emission site stays
   O(1)), sinks are closures, and every aggregate view is a
   fold. Cells render to strings only here, in the serializers. *)

module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Live_in = Mssp_state.Live_in

type squash_reason =
  | Bad_prediction
  | Fuel_exhausted
  | Task_fault of string
  | Speculative_io of string
  | Master_dead

let pp_squash_reason fmt = function
  | Bad_prediction -> Format.pp_print_string fmt "bad-prediction"
  | Fuel_exhausted -> Format.pp_print_string fmt "fuel-exhausted"
  | Task_fault d -> Format.fprintf fmt "task-fault(%s)" d
  | Speculative_io c -> Format.fprintf fmt "speculative-io(%s)" c
  | Master_dead -> Format.pp_print_string fmt "master-dead"

type verify_outcome =
  | Pass
  | Mismatch of { cell : string; predicted : int; actual : int }
  | Incomplete of squash_reason

type event =
  | Fork of { cycle : int; task : int; entry : int }
  | Predict of { cycle : int; task : int; live_in : Live_in.t }
  | Slave_start of { cycle : int; task : int; slave : int }
  | Slave_finish of {
      cycle : int;
      task : int;
      slave : int;
      executed : int;
      ok : bool;
    }
  | Verify of {
      cycle : int;
      task : int;
      live_ins : int;
      outcome : verify_outcome;
    }
  | Commit of { cycle : int; task : int; instructions : int; live_outs : int }
  | Squash of {
      cycle : int;
      task : int option;
      reason : squash_reason;
      discarded : int;
    }
  | Recovery of {
      cycle : int;
      instructions : int;
      from_pc : int;
      to_pc : int;
      loads : int;
      stores : int;
      burst : bool;
    }
  | Restart of { cycle : int; pc : int }
  | Master_stop of { cycle : int; pc : int }
  | Fault of { cycle : int; surface : string; task : int option }
  | Counter of { cycle : int; name : string; value : int }
  | Halt of { cycle : int; stop : string }

let event_cycle = function
  | Fork { cycle; _ }
  | Predict { cycle; _ }
  | Slave_start { cycle; _ }
  | Slave_finish { cycle; _ }
  | Verify { cycle; _ }
  | Commit { cycle; _ }
  | Squash { cycle; _ }
  | Recovery { cycle; _ }
  | Restart { cycle; _ }
  | Master_stop { cycle; _ }
  | Fault { cycle; _ }
  | Counter { cycle; _ }
  | Halt { cycle; _ } ->
    cycle

let event_equal a b =
  match (a, b) with
  | Predict p, Predict q ->
    p.cycle = q.cycle && p.task = q.task && Live_in.equal p.live_in q.live_in
  | _ -> a = b

let pp_event fmt = function
  | Fork { cycle; task; entry } ->
    Format.fprintf fmt "%8d  fork     task %d at %#x" cycle task entry
  | Predict { cycle; task; live_in } ->
    let n = Live_in.cardinal live_in in
    Format.fprintf fmt "%8d  predict  task %d (%d live-in%s)" cycle task n
      (if n = 1 then "" else "s")
  | Slave_start { cycle; task; slave } ->
    Format.fprintf fmt "%8d  start    task %d on slave %d" cycle task slave
  | Slave_finish { cycle; task; slave; executed; ok } ->
    Format.fprintf fmt "%8d  finish   task %d on slave %d (%d instrs, %s)"
      cycle task slave executed
      (if ok then "complete" else "failed")
  | Verify { cycle; task; live_ins; outcome } ->
    Format.fprintf fmt "%8d  verify   task %d (%d live-ins): %s" cycle task
      live_ins
      (match outcome with
      | Pass -> "pass"
      | Mismatch { cell; predicted; actual } ->
        Printf.sprintf "mismatch on %s (predicted %d, actual %d)" cell
          predicted actual
      | Incomplete r -> Format.asprintf "incomplete (%a)" pp_squash_reason r)
  | Commit { cycle; task; instructions; live_outs } ->
    Format.fprintf fmt "%8d  commit   task %d (+%d instrs, %d live-outs)"
      cycle task instructions live_outs
  | Squash { cycle; task; reason; discarded } ->
    Format.fprintf fmt "%8d  squash   %s%a, %d task%s discarded" cycle
      (match task with
      | Some id -> Printf.sprintf "task %d: " id
      | None -> "")
      pp_squash_reason reason discarded
      (if discarded = 1 then "" else "s")
  | Recovery { cycle; instructions; from_pc; to_pc; loads; stores; burst } ->
    Format.fprintf fmt
      "%8d  recover  %d instrs non-speculative (%#x -> %#x, %d ld, %d st)%s"
      cycle instructions from_pc to_pc loads stores
      (if burst then " [sequential burst]" else "")
  | Restart { cycle; pc } ->
    Format.fprintf fmt "%8d  restart  master at %#x" cycle pc
  | Master_stop { cycle; pc } ->
    Format.fprintf fmt "%8d  master   dead at %#x" cycle pc
  | Fault { cycle; surface; task } ->
    Format.fprintf fmt "%8d  fault    %s%s" cycle surface
      (match task with
      | Some id -> Printf.sprintf " (task %d)" id
      | None -> "")
  | Counter { cycle; name; value } ->
    Format.fprintf fmt "%8d  counter  %s = %d" cycle name value
  | Halt { cycle; stop } -> Format.fprintf fmt "%8d  halt     (%s)" cycle stop

(* --- tracer and sinks ------------------------------------------------ *)

type sink = event -> unit
type t = { mutable sinks : sink list }

let create () = { sinks = [] }
let attach t s = t.sinks <- t.sinks @ [ s ]
let emit t ev = List.iter (fun s -> s ev) t.sinks

let recording () =
  let acc = ref [] in
  let t = create () in
  attach t (fun ev -> acc := ev :: !acc);
  (t, fun () -> List.rev !acc)

module Ring = struct
  type buf = {
    slots : event option array;
    mutable next : int;
    mutable seen : int;  (** events ever sunk *)
  }

  let create capacity =
    { slots = Array.make (max 1 capacity) None; next = 0; seen = 0 }

  let sink b ev =
    b.slots.(b.next) <- Some ev;
    b.next <- (b.next + 1) mod Array.length b.slots;
    b.seen <- b.seen + 1

  let dropped b = max 0 (b.seen - Array.length b.slots)

  let contents b =
    let cap = Array.length b.slots in
    let rec collect i acc =
      if i = 0 then acc
      else
        let idx = (b.next + cap - i) mod cap in
        match b.slots.(idx) with
        | None -> collect (i - 1) acc
        | Some ev -> collect (i - 1) (ev :: acc)
    in
    List.rev (collect cap [])
end

(* --- serialization --------------------------------------------------- *)

module J = Tjson

let reason_to_json = function
  | Bad_prediction -> J.Obj [ ("kind", J.Str "bad_prediction") ]
  | Fuel_exhausted -> J.Obj [ ("kind", J.Str "fuel_exhausted") ]
  | Task_fault d ->
    J.Obj [ ("kind", J.Str "task_fault"); ("detail", J.Str d) ]
  | Speculative_io c ->
    J.Obj [ ("kind", J.Str "speculative_io"); ("detail", J.Str c) ]
  | Master_dead -> J.Obj [ ("kind", J.Str "master_dead") ]

let reason_of_json j =
  let detail () =
    match J.member "detail" j with
    | Some (J.Str s) -> Ok s
    | _ -> Error "squash reason: missing detail"
  in
  match Option.bind (J.member "kind" j) J.to_str with
  | Some "bad_prediction" -> Ok Bad_prediction
  | Some "fuel_exhausted" -> Ok Fuel_exhausted
  | Some "task_fault" -> Result.map (fun d -> Task_fault d) (detail ())
  | Some "speculative_io" ->
    Result.map (fun d -> Speculative_io d) (detail ())
  | Some "master_dead" -> Ok Master_dead
  | Some k -> Error (Printf.sprintf "unknown squash reason %S" k)
  | None -> Error "squash reason: missing kind"

let outcome_to_json = function
  | Pass -> J.Obj [ ("kind", J.Str "pass") ]
  | Mismatch { cell; predicted; actual } ->
    J.Obj
      [
        ("kind", J.Str "mismatch");
        ("cell", J.Str cell);
        ("predicted", J.Int predicted);
        ("actual", J.Int actual);
      ]
  | Incomplete r ->
    J.Obj [ ("kind", J.Str "incomplete"); ("reason", reason_to_json r) ]

let outcome_of_json j =
  match Option.bind (J.member "kind" j) J.to_str with
  | Some "pass" -> Ok Pass
  | Some "mismatch" -> (
    match
      ( Option.bind (J.member "cell" j) J.to_str,
        Option.bind (J.member "predicted" j) J.to_int,
        Option.bind (J.member "actual" j) J.to_int )
    with
    | Some cell, Some predicted, Some actual ->
      Ok (Mismatch { cell; predicted; actual })
    | _ -> Error "mismatch outcome: bad fields")
  | Some "incomplete" -> (
    match J.member "reason" j with
    | Some r -> Result.map (fun r -> Incomplete r) (reason_of_json r)
    | None -> Error "incomplete outcome: missing reason")
  | Some k -> Error (Printf.sprintf "unknown verify outcome %S" k)
  | None -> Error "verify outcome: missing kind"

let event_to_json ev =
  let base ev_name cycle rest =
    J.Obj (("ev", J.Str ev_name) :: ("cycle", J.Int cycle) :: rest)
  in
  match ev with
  | Fork { cycle; task; entry } ->
    base "fork" cycle [ ("task", J.Int task); ("entry", J.Int entry) ]
  | Predict { cycle; task; live_in } ->
    (* ascending cell order, cells rendered here — not at emission *)
    base "predict" cycle
      [
        ("task", J.Int task);
        ("bindings", J.Int (Live_in.cardinal live_in));
        ( "live_in",
          J.List
            (List.rev
               (Live_in.fold
                  (fun c v acc -> J.List [ J.Str (Cell.show c); J.Int v ] :: acc)
                  live_in [])) );
      ]
  | Slave_start { cycle; task; slave } ->
    base "slave_start" cycle [ ("task", J.Int task); ("slave", J.Int slave) ]
  | Slave_finish { cycle; task; slave; executed; ok } ->
    base "slave_finish" cycle
      [
        ("task", J.Int task);
        ("slave", J.Int slave);
        ("executed", J.Int executed);
        ("ok", J.Bool ok);
      ]
  | Verify { cycle; task; live_ins; outcome } ->
    base "verify" cycle
      [
        ("task", J.Int task);
        ("live_ins", J.Int live_ins);
        ("outcome", outcome_to_json outcome);
      ]
  | Commit { cycle; task; instructions; live_outs } ->
    base "commit" cycle
      [
        ("task", J.Int task);
        ("instructions", J.Int instructions);
        ("live_outs", J.Int live_outs);
      ]
  | Squash { cycle; task; reason; discarded } ->
    base "squash" cycle
      [
        ("task", match task with Some id -> J.Int id | None -> J.Null);
        ("reason", reason_to_json reason);
        ("discarded", J.Int discarded);
      ]
  | Recovery { cycle; instructions; from_pc; to_pc; loads; stores; burst } ->
    base "recovery" cycle
      [
        ("instructions", J.Int instructions);
        ("from_pc", J.Int from_pc);
        ("to_pc", J.Int to_pc);
        ("loads", J.Int loads);
        ("stores", J.Int stores);
        ("burst", J.Bool burst);
      ]
  | Restart { cycle; pc } -> base "restart" cycle [ ("pc", J.Int pc) ]
  | Master_stop { cycle; pc } -> base "master_stop" cycle [ ("pc", J.Int pc) ]
  | Fault { cycle; surface; task } ->
    base "fault" cycle
      [
        ("surface", J.Str surface);
        ("task", match task with Some id -> J.Int id | None -> J.Null);
      ]
  | Counter { cycle; name; value } ->
    base "counter" cycle [ ("name", J.Str name); ("value", J.Int value) ]
  | Halt { cycle; stop } -> base "halt" cycle [ ("stop", J.Str stop) ]

let event_of_json j =
  let ( let* ) = Result.bind in
  let int k =
    match Option.bind (J.member k j) J.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing int field %S" k)
  in
  let str k =
    match Option.bind (J.member k j) J.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string field %S" k)
  in
  let bool k =
    match J.member k j with
    | Some (J.Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "missing bool field %S" k)
  in
  let* ev = str "ev" in
  let* cycle = int "cycle" in
  match ev with
  | "fork" ->
    let* task = int "task" in
    let* entry = int "entry" in
    Ok (Fork { cycle; task; entry })
  | "predict" ->
    let* task = int "task" in
    let* cardinal = int "bindings" in
    let* live_in =
      match Option.bind (J.member "live_in" j) J.to_list with
      | None -> Error "predict: missing live_in"
      | Some l ->
        List.fold_left
          (fun acc b ->
            let* acc = acc in
            match b with
            | J.List [ J.Str c; v ] -> (
              match (Cell.of_show c, J.to_int v) with
              | Some c, Some v -> Ok (Fragment.add c v acc)
              | None, _ ->
                Error (Printf.sprintf "predict: unknown cell %S" c)
              | _, None -> Error "predict: non-int binding")
            | _ -> Error "predict: bad binding shape")
          (Ok Fragment.empty) l
    in
    if cardinal < Fragment.cardinal live_in then Error "predict: bindings below live_in"
    else Ok (Predict { cycle; task; live_in = Live_in.of_fragment ~cardinal live_in })
  | "slave_start" ->
    let* task = int "task" in
    let* slave = int "slave" in
    Ok (Slave_start { cycle; task; slave })
  | "slave_finish" ->
    let* task = int "task" in
    let* slave = int "slave" in
    let* executed = int "executed" in
    let* ok = bool "ok" in
    Ok (Slave_finish { cycle; task; slave; executed; ok })
  | "verify" ->
    let* task = int "task" in
    let* live_ins = int "live_ins" in
    let* outcome =
      match J.member "outcome" j with
      | Some o -> outcome_of_json o
      | None -> Error "verify: missing outcome"
    in
    Ok (Verify { cycle; task; live_ins; outcome })
  | "commit" ->
    let* task = int "task" in
    let* instructions = int "instructions" in
    let* live_outs = int "live_outs" in
    Ok (Commit { cycle; task; instructions; live_outs })
  | "squash" ->
    let task =
      match J.member "task" j with
      | Some (J.Int id) -> Some id
      | _ -> None
    in
    let* reason =
      match J.member "reason" j with
      | Some r -> reason_of_json r
      | None -> Error "squash: missing reason"
    in
    let* discarded = int "discarded" in
    Ok (Squash { cycle; task; reason; discarded })
  | "recovery" ->
    let* instructions = int "instructions" in
    let* from_pc = int "from_pc" in
    let* to_pc = int "to_pc" in
    let* loads = int "loads" in
    let* stores = int "stores" in
    let* burst = bool "burst" in
    Ok (Recovery { cycle; instructions; from_pc; to_pc; loads; stores; burst })
  | "restart" ->
    let* pc = int "pc" in
    Ok (Restart { cycle; pc })
  | "master_stop" ->
    let* pc = int "pc" in
    Ok (Master_stop { cycle; pc })
  | "fault" ->
    let* surface = str "surface" in
    let task =
      match J.member "task" j with Some (J.Int id) -> Some id | _ -> None
    in
    Ok (Fault { cycle; surface; task })
  | "counter" ->
    let* name = str "name" in
    let* value = int "value" in
    Ok (Counter { cycle; name; value })
  | "halt" ->
    let* stop = str "stop" in
    Ok (Halt { cycle; stop })
  | other -> Error (Printf.sprintf "unknown event %S" other)

let to_jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (J.to_string (event_to_json ev));
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let of_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (lineno + 1) acc rest
      else
        let parsed =
          match J.parse line with
          | Error e -> Error e
          | Ok j -> event_of_json j
        in
        (match parsed with
        | Ok ev -> go (lineno + 1) (ev :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go 1 [] lines

(* --- golden diffing -------------------------------------------------- *)

let diff ~expected ~actual =
  let rec go i es actuals =
    match (es, actuals) with
    | [], [] -> None
    | e :: es', a :: as' ->
      if event_equal e a then go (i + 1) es' as' else Some (i, Some e, Some a)
    | e :: _, [] -> Some (i, Some e, None)
    | [], a :: _ -> Some (i, None, Some a)
  in
  go 0 expected actual

let pp_diff fmt (i, expected, actual) =
  let side = function
    | Some ev -> Format.asprintf "%a" pp_event ev
    | None -> "<end of stream>"
  in
  Format.fprintf fmt "@[<v>first difference at event %d:@,  expected: %s@,  actual:   %s@]"
    i (side expected) (side actual)

(* --- aggregate fold -------------------------------------------------- *)

module Summary = struct
  type t = {
    mutable forks : int;
    mutable slave_starts : int;
    mutable slave_finishes : int;
    mutable slave_busy_cycles : int;
    mutable busy_since : int array;
    mutable verifies : int;
    mutable commits : int;
    mutable committed_instructions : int;
    mutable committed_live_outs : int;
    mutable live_ins_checked : int;
    mutable predicted_bindings : int;
    mutable squashes : int;
    mutable discarded : int;
    mutable bad_prediction : int;
    mutable fuel_exhausted : int;
    mutable task_fault : int;
    mutable speculative_io : int;
    mutable master_dead : int;
    mutable recoveries : int;
    mutable recovery_instructions : int;
    mutable recovery_loads : int;
    mutable recovery_stores : int;
    mutable bursts : int;
    mutable restarts : int;
    mutable master_stops : int;
    mutable faults : int;
    mutable counters : (string * int) list;
    mutable halt : string option;
    mutable last_cycle : int;
  }

  let create () =
    { forks = 0; slave_starts = 0; slave_finishes = 0; slave_busy_cycles = 0;
      busy_since = [||]; verifies = 0; commits = 0; committed_instructions = 0;
      committed_live_outs = 0; live_ins_checked = 0; predicted_bindings = 0;
      squashes = 0; discarded = 0; bad_prediction = 0; fuel_exhausted = 0;
      task_fault = 0; speculative_io = 0; master_dead = 0;
      recoveries = 0; recovery_instructions = 0; recovery_loads = 0;
      recovery_stores = 0; bursts = 0; restarts = 0; master_stops = 0;
      faults = 0; counters = []; halt = None; last_cycle = 0 }

  (* [busy_since.(s)] is the cycle slave [s] started its running task,
     or -1 while it is idle. A [Slave_finish] closes its slave's
     interval; a [Squash] or the [Halt] closes every open one at its
     cycle, as the Chrome exporter ends its slices. *)
  let close_busy s cycle slave =
    let since = s.busy_since.(slave) in
    if since >= 0 then begin
      s.slave_busy_cycles <- s.slave_busy_cycles + cycle - since;
      s.busy_since.(slave) <- -1
    end

  let close_all_busy s cycle =
    for slave = 0 to Array.length s.busy_since - 1 do
      close_busy s cycle slave
    done

  let open_busy s cycle slave =
    let old = s.busy_since in
    if slave >= Array.length old then
      s.busy_since <-
        Array.init (2 * slave + 1) (fun i ->
            if i < Array.length old then old.(i) else -1);
    s.busy_since.(slave) <- cycle

  let add s ev =
    let cycle = event_cycle ev in
    if cycle > s.last_cycle then s.last_cycle <- cycle;
    match ev with
    | Fork _ -> s.forks <- s.forks + 1
    | Predict { live_in; _ } ->
      s.predicted_bindings <- s.predicted_bindings + Live_in.cardinal live_in
    | Slave_start { slave; _ } ->
      s.slave_starts <- s.slave_starts + 1;
      open_busy s cycle slave
    | Slave_finish { slave; _ } ->
      s.slave_finishes <- s.slave_finishes + 1;
      if slave < Array.length s.busy_since then close_busy s cycle slave
    | Verify { live_ins; _ } ->
      s.verifies <- s.verifies + 1;
      s.live_ins_checked <- s.live_ins_checked + live_ins
    | Commit { instructions; live_outs; _ } ->
      s.commits <- s.commits + 1;
      s.committed_instructions <- s.committed_instructions + instructions;
      s.committed_live_outs <- s.committed_live_outs + live_outs
    | Squash { reason; discarded; _ } -> (
      close_all_busy s cycle;
      s.squashes <- s.squashes + 1;
      s.discarded <- s.discarded + discarded;
      match reason with
      | Bad_prediction -> s.bad_prediction <- s.bad_prediction + 1
      | Fuel_exhausted -> s.fuel_exhausted <- s.fuel_exhausted + 1
      | Task_fault _ -> s.task_fault <- s.task_fault + 1
      | Speculative_io _ -> s.speculative_io <- s.speculative_io + 1
      | Master_dead -> s.master_dead <- s.master_dead + 1)
    | Recovery { instructions; loads; stores; burst; _ } ->
      s.recoveries <- s.recoveries + 1;
      s.recovery_instructions <- s.recovery_instructions + instructions;
      s.recovery_loads <- s.recovery_loads + loads;
      s.recovery_stores <- s.recovery_stores + stores;
      if burst then s.bursts <- s.bursts + 1
    | Restart _ -> s.restarts <- s.restarts + 1
    | Master_stop _ -> s.master_stops <- s.master_stops + 1
    | Fault _ -> s.faults <- s.faults + 1
    | Counter { name; value; _ } ->
      s.counters <- List.remove_assoc name s.counters @ [ (name, value) ]
    | Halt { stop; _ } ->
      close_all_busy s cycle;
      s.halt <- Some stop

  let of_events events =
    let s = create () in
    List.iter (add s) events;
    s

  let squash_mismatch s = s.bad_prediction

  let squash_task_failed s =
    s.fuel_exhausted + s.task_fault + s.speculative_io

  let squash_master_dead s = s.master_dead

  let rows s =
    let i n = string_of_int n in
    [
      [ "tasks_forked"; i s.forks ];
      [ "slave_starts"; i s.slave_starts ];
      [ "slave_finishes"; i s.slave_finishes ];
      [ "slave_busy_cycles"; i s.slave_busy_cycles ];
      [ "verifies"; i s.verifies ];
      [ "tasks_committed"; i s.commits ];
      [ "instructions_committed"; i s.committed_instructions ];
      [ "live_outs_committed"; i s.committed_live_outs ];
      [ "live_ins_checked"; i s.live_ins_checked ];
      [ "predicted_bindings"; i s.predicted_bindings ];
      [ "squashes"; i s.squashes ];
      [ "tasks_discarded"; i s.discarded ];
      [ "squash_bad_prediction"; i s.bad_prediction ];
      [ "squash_fuel_exhausted"; i s.fuel_exhausted ];
      [ "squash_task_fault"; i s.task_fault ];
      [ "squash_speculative_io"; i s.speculative_io ];
      [ "squash_master_dead"; i s.master_dead ];
      [ "recovery_segments"; i s.recoveries ];
      [ "recovery_instructions"; i s.recovery_instructions ];
      [ "recovery_loads"; i s.recovery_loads ];
      [ "recovery_stores"; i s.recovery_stores ];
      [ "sequential_bursts"; i s.bursts ];
      [ "restarts"; i s.restarts ];
      [ "master_stops"; i s.master_stops ];
      [ "faults_injected"; i s.faults ];
      [ "last_cycle"; i s.last_cycle ];
    ]
    @ List.map (fun (name, v) -> [ name; i v ]) s.counters
    @ [ [ "halt"; (match s.halt with Some h -> h | None -> "<none>") ] ]

  let pp fmt s =
    Format.fprintf fmt "@[<v>";
    List.iter
      (fun row ->
        match row with
        | [ k; v ] -> Format.fprintf fmt "%-26s %s@," k v
        | _ -> ())
      (rows s);
    Format.fprintf fmt "@]"
end

(* --- Chrome trace_event export --------------------------------------- *)

module Chrome = struct
  (* One process; tid 0 is the master / commit-unit track, tid s+1 is
     slave s. Cycles map 1:1 onto trace_event microseconds. *)

  let meta pid tid name =
    J.Obj
      [
        ("name", J.Str "thread_name");
        ("ph", J.Str "M");
        ("pid", J.Int pid);
        ("tid", J.Int tid);
        ("args", J.Obj [ ("name", J.Str name) ]);
      ]

  let instant ~ts ~name ?(args = []) () =
    J.Obj
      [
        ("name", J.Str name);
        ("ph", J.Str "i");
        ("s", J.Str "t");
        ("ts", J.Int ts);
        ("pid", J.Int 0);
        ("tid", J.Int 0);
        ("args", J.Obj args);
      ]

  (* What the export keeps of a stream: the rendered slices, instants
     and counters, the slaves seen, the open slices and the last cycle.
     A [Predict]'s live-in is never kept. *)
  type t = {
    mutable last_cycle : int;
    slaves : (int, unit) Hashtbl.t;
    open_slices : (int, int * int) Hashtbl.t;
        (** task -> start cycle, slave; unfinished slices (in flight at
            a squash) end at the next squash, or at the end of the run *)
    mutable slices : J.t list;  (** newest first *)
    mutable instants : J.t list;
    mutable counters : J.t list;
  }

  let create () =
    {
      last_cycle = 0;
      slaves = Hashtbl.create 8;
      open_slices = Hashtbl.create 16;
      slices = [];
      instants = [];
      counters = [];
    }

  let slice ~task ~start_cycle ~slave ~end_cycle extra =
    J.Obj
      [
        ("name", J.Str (Printf.sprintf "task %d" task));
        ("cat", J.Str "task");
        ("ph", J.Str "X");
        ("ts", J.Int start_cycle);
        ("dur", J.Int (max 0 (end_cycle - start_cycle)));
        ("pid", J.Int 0);
        ("tid", J.Int (slave + 1));
        ("args", J.Obj (("task", J.Int task) :: extra));
      ]

  let add t ev =
    t.last_cycle <- max t.last_cycle (event_cycle ev);
    let close_slice ~task ~start_cycle ~slave ~end_cycle extra =
      t.slices <- slice ~task ~start_cycle ~slave ~end_cycle extra :: t.slices
    in
    let add_instant ev = t.instants <- ev :: t.instants in
    match ev with
    | Fork { cycle; task; entry } ->
      add_instant
        (instant ~ts:cycle ~name:(Printf.sprintf "fork task %d" task)
           ~args:[ ("entry", J.Int entry) ] ())
    | Predict _ -> ()
    | Slave_start { cycle; task; slave } ->
      Hashtbl.replace t.slaves slave ();
      Hashtbl.replace t.open_slices task (cycle, slave)
    | Slave_finish { cycle; task; slave; executed; ok } -> (
      Hashtbl.replace t.slaves slave ();
      match Hashtbl.find_opt t.open_slices task with
      | Some (start_cycle, _) ->
        Hashtbl.remove t.open_slices task;
        close_slice ~task ~start_cycle ~slave ~end_cycle:cycle
          [ ("executed", J.Int executed); ("ok", J.Bool ok) ]
      | None -> ())
    | Verify { cycle; task; outcome; _ } ->
      add_instant
        (instant ~ts:cycle ~name:(Printf.sprintf "verify task %d" task)
           ~args:
             [
               ( "outcome",
                 J.Str
                   (match outcome with
                   | Pass -> "pass"
                   | Mismatch _ -> "mismatch"
                   | Incomplete _ -> "incomplete") );
             ]
           ())
    | Commit { cycle; task; instructions; _ } ->
      add_instant
        (instant ~ts:cycle ~name:(Printf.sprintf "commit task %d" task)
           ~args:[ ("instructions", J.Int instructions) ] ())
    | Squash { cycle; reason; discarded; _ } ->
      (* close every in-flight slice: squashed mid-execution *)
      Hashtbl.iter
        (fun task (start_cycle, slave) ->
          close_slice ~task ~start_cycle ~slave ~end_cycle:cycle
            [ ("squashed", J.Bool true) ])
        t.open_slices;
      Hashtbl.reset t.open_slices;
      add_instant
        (instant ~ts:cycle
           ~name:(Format.asprintf "squash (%a)" pp_squash_reason reason)
           ~args:[ ("discarded", J.Int discarded) ] ())
    | Recovery { cycle; instructions; burst; _ } ->
      add_instant
        (instant ~ts:cycle ~name:"recovery"
           ~args:
             [ ("instructions", J.Int instructions); ("burst", J.Bool burst) ]
           ())
    | Restart { cycle; pc } ->
      add_instant
        (instant ~ts:cycle ~name:"master restart" ~args:[ ("pc", J.Int pc) ] ())
    | Master_stop { cycle; pc } ->
      add_instant
        (instant ~ts:cycle ~name:"master dead" ~args:[ ("pc", J.Int pc) ] ())
    | Fault { cycle; surface; task } ->
      add_instant
        (instant ~ts:cycle ~name:(Printf.sprintf "fault (%s)" surface)
           ~args:
             (match task with Some id -> [ ("task", J.Int id) ] | None -> [])
           ())
    | Counter { cycle; name; value } ->
      t.counters <-
        J.Obj
          [
            ("name", J.Str name);
            ("ph", J.Str "C");
            ("ts", J.Int cycle);
            ("pid", J.Int 0);
            ("args", J.Obj [ ("value", J.Int value) ]);
          ]
        :: t.counters
    | Halt { cycle; stop } ->
      add_instant
        (instant ~ts:cycle ~name:(Printf.sprintf "halt (%s)" stop) ())

  let to_json t =
    let metas =
      J.Obj
        [
          ("name", J.Str "process_name");
          ("ph", J.Str "M");
          ("pid", J.Int 0);
          ("args", J.Obj [ ("name", J.Str "mssp") ]);
        ]
      :: meta 0 0 "master / commit unit"
      :: (Hashtbl.fold (fun s () acc -> s :: acc) t.slaves []
         |> List.sort compare
         |> List.map (fun s -> meta 0 (s + 1) (Printf.sprintf "slave %d" s)))
    in
    (* a slice still open at the end of the stream (truncated trace) *)
    let slices =
      Hashtbl.fold
        (fun task (start_cycle, slave) acc ->
          slice ~task ~start_cycle ~slave ~end_cycle:t.last_cycle
            [ ("truncated", J.Bool true) ]
          :: acc)
        t.open_slices t.slices
    in
    J.Obj
      [
        ( "traceEvents",
          J.List
            (metas @ List.rev slices @ List.rev t.instants
           @ List.rev t.counters) );
        ("displayTimeUnit", J.Str "ms");
        ( "otherData",
          J.Obj [ ("generator", J.Str "mssp_sim trace --format chrome") ] );
      ]

  let of_events events =
    let t = create () in
    List.iter (add t) events;
    to_json t

  let to_string events = J.to_string (of_events events)
end
