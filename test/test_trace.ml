(* The golden-trace harness: the structured event bus is pinned down by
   - nine committed golden traces (vecsum, listwalk, a garbage
     adversarial master, a spinning master stopped by the run-away
     guard, a deliberately broken chaos-commit run, a
     benign always-absorbed fault plan, the fir kernel, an amnesiac
     master under dual mode stopped by the squash limit and a
     control-only master) that every [dune runtest]
     replays and structurally diffs ([PROMOTE_GOLDEN=1] /
     `make promote-golden` rewrites them);
   - the acceptance criterion of the tracing subsystem: a fold over the
     JSONL stream ALONE reproduces every stats field an event carries,
     on runs stopped by the squash limit too; the fold allocates under
     a word per event, and slave busy time ends at a squash;
   - a validity check of the Chrome trace_event export;
   - QCheck invariants over random programs: per-task event bracketing,
     committed tasks never squashed, fold == stats, and a run without a
     recording sink being identical to one with a sink (also on qsort
     and nqueens under live-in faults). *)

module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module W = Mssp_workload.Workload
module Adversary = Mssp_workload.Adversary
module Trace = Mssp_trace.Trace
module Tjson = Mssp_trace.Tjson
module Gen = Mssp_fuzz.Gen
module Plan = Mssp_faults.Plan

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- traced runs ----------------------------------------------------- *)

let run_traced ~config d =
  let tracer, events = Trace.recording () in
  let r = M.run ~config:{ config with Config.tracer = Some tracer } d in
  (events (), r)

let distill_bench name ~size ~train =
  let b = W.find name in
  let program = b.W.program ~size in
  let profile = Profile.collect (b.W.program ~size:train) in
  Distill.distill program profile

(* --- the ten golden workloads ---------------------------------------

   Deterministic by construction: fixed benchmarks, fixed sizes, fixed
   configurations, and an event-driven simulator with no hidden
   randomness. Two well-behaved runs, two adversarial masters (master
   death + task-budget attribution; a self-jump stopped by the run-away
   guard), one deliberately broken commit unit (commit-then-mismatch
   churn), one benign fault plan (every
   fault absorbed; pins the Fault event serialization), the fir
   kernel, one amnesiac master stopped by the squash limit, and the
   control-only-master mode. *)

let base2 = Config.with_slaves 2 Config.default

let golden_cases =
  [
    ( "vecsum",
      fun () ->
        run_traced
          ~config:{ base2 with Config.task_size = 20 }
          (distill_bench "vecsum" ~size:160 ~train:40) );
    ( "listwalk",
      fun () ->
        run_traced
          ~config:{ base2 with Config.task_size = 25 }
          (distill_bench "listwalk" ~size:120 ~train:40) );
    ( "garbage_master",
      fun () ->
        let b = W.find "vecsum" in
        run_traced
          ~config:{ base2 with Config.task_budget = 200 }
          (Adversary.garbage (b.W.program ~size:100)) );
    (* a master that jumps to itself and never forks: every restart runs
       a whole chunk and stops on the run-away guard *)
    ( "spinner",
      fun () ->
        let b = W.find "vecsum" in
        run_traced
          ~config:{ base2 with Config.master_chunk = 50_000 }
          (Adversary.spinner (b.W.program ~size:100)) );
    (* qsort, not vecsum: its partitioning stores are read by later
       tasks, so a corrupted committed live-out actually propagates into
       live-in mismatches instead of rotting unread *)
    ( "chaos_commit",
      fun () ->
        run_traced
          ~config:
            {
              base2 with
              Config.task_size = 25;
              faults = Some (Plan.quiet Plan.Commit_corrupt ~seed:3 ~p:0.5);
            }
          (distill_bench "qsort" ~size:60 ~train:30) );
    (* a benign, always-absorbed fault plan over both value surfaces:
       pins the serialization of the Fault event — the run still
       commits a final state equal to SEQ *)
    ( "fault_plan",
      fun () ->
        let plan =
          Plan.make
            [
              Plan.action Plan.Live_in_corrupt ~seed:5 ~p:0.5;
              Plan.action Plan.Mem_bit_flip ~seed:7 ~p:0.5;
            ]
        in
        run_traced
          ~config:{ base2 with Config.task_size = 20; faults = Some plan }
          (distill_bench "vecsum" ~size:160 ~train:40) );
    (* a strided multiply-accumulate kernel *)
    ( "fir",
      fun () ->
        run_traced
          ~config:{ base2 with Config.task_size = 20 }
          (distill_bench "fir" ~size:120 ~train:40) );
    (* a master that dies at every restart, under dual mode and a
       squash cap: pins master-dead squashes, sequential bursts
       ([burst: true]) and the [squash_limit] stop *)
    ( "amnesiac_limit",
      fun () ->
        run_traced
          ~config:
            {
              base2 with
              Config.dual_mode = true;
              dual_burst = 60;
              max_squashes = 20;
            }
          (Adversary.amnesiac (distill_bench "vecsum" ~size:160 ~train:40)) );
    (* listwalk with a master that predicts no values: pins the
       mismatch-squash path at every pointer-chasing boundary *)
    ( "control_only",
      fun () ->
        run_traced
          ~config:
            { base2 with Config.task_size = 25; control_only_master = true }
          (distill_bench "listwalk" ~size:120 ~train:40) );
  ]

(* --- golden replay / promotion ---------------------------------------

   Under [dune runtest] the cwd is [_build/default/test] and the golden
   tree is a sibling (declared as a dune dep); under [dune exec] from
   the project root it is below us — which is also where
   [PROMOTE_GOLDEN=1] must write so the source tree is updated. *)

let golden_dir = if Sys.file_exists "golden" then "golden" else "test/golden"
let promote = Sys.getenv_opt "PROMOTE_GOLDEN" <> None
let failures_dir = "_trace_failures"
let golden_path name = Filename.concat golden_dir (name ^ ".trace")

let write_file path s =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

let read_golden path =
  match Trace.of_jsonl (In_channel.with_open_text path In_channel.input_all) with
  | Ok evs -> evs
  | Error e -> Alcotest.failf "%s: unparseable golden trace: %s" path e

let test_golden (name, run) () =
  let events, _ = run () in
  let path = golden_path name in
  if promote then begin
    write_file path (Trace.to_jsonl events);
    Printf.printf "promoted %s (%d events)\n%!" path (List.length events)
  end
  else begin
    if not (Sys.file_exists path) then
      Alcotest.failf
        "%s is missing — run `make promote-golden` from the project root to \
         create it"
        path;
    let expected = read_golden path in
    match Trace.diff ~expected ~actual:events with
    | None -> ()
    | Some d ->
      (* park the actual stream where CI can pick it up as an artifact *)
      (try
         if not (Sys.file_exists failures_dir) then Sys.mkdir failures_dir 0o755;
         write_file
           (Filename.concat failures_dir (name ^ ".trace.jsonl"))
           (Trace.to_jsonl events)
       with Sys_error _ -> ());
      Alcotest.failf "%s: golden trace diverged: %s (actual stream in %s/)"
        name
        (Format.asprintf "%a" Trace.pp_diff d)
        failures_dir
  end

(* all ten golden runs at once, fanned across 4 helper domains *)
let golden_on_pool =
  lazy
    (List.combine (List.map fst golden_cases)
       (Mssp_exec.Pool.map_runs ~jobs:4 (fun (_, run) -> run ()) golden_cases))

(* --- the acceptance criterion: attribution from the stream alone -----

   Every [stats] field an event carries, next to the fold's value for
   it: the machine reads these off its own fold, so a recorded stream
   must reproduce each one exactly. *)

let derived (st : M.stats) (s : Trace.Summary.t) =
  let open Trace.Summary in
  [
    ("tasks_spawned = forks", st.M.tasks_spawned, s.forks);
    ("tasks_committed", st.M.tasks_committed, s.commits);
    ("instructions_committed", st.M.instructions_committed, s.committed_instructions);
    ("tasks_discarded", st.M.tasks_discarded, s.discarded);
    ("squashes", st.M.squashes, s.squashes);
    ("squash: bad prediction", st.M.squash_mismatch, squash_mismatch s);
    ("squash: task failed", st.M.squash_task_failed, squash_task_failed s);
    ("squash: master dead", st.M.squash_master_dead, squash_master_dead s);
    ("recovery_segments", st.M.recovery_segments, s.recoveries);
    ("recovery_instructions", st.M.recovery_instructions, s.recovery_instructions);
    ("sequential_bursts", st.M.sequential_bursts, s.bursts);
    ("live_ins_checked", st.M.live_ins_checked, s.live_ins_checked);
    ("live_outs_committed", st.M.live_outs_committed, s.committed_live_outs);
    ("slave_busy_cycles", st.M.slave_busy_cycles, s.slave_busy_cycles);
    ("cycles = last_cycle", st.M.cycles, s.last_cycle);
  ]

(* Serialize to JSONL, parse the text back, fold — no access to the
   machine beyond its public stats to compare against. *)
let test_fold_reproduces_stats () =
  List.iter
    (fun (name, run) ->
      let events, r = run () in
      let reparsed =
        match Trace.of_jsonl (Trace.to_jsonl events) with
        | Ok evs -> evs
        | Error e -> Alcotest.failf "%s: JSONL round trip failed: %s" name e
      in
      let s = Trace.Summary.of_events reparsed in
      List.iter
        (fun (tag, stat, folded) -> check_int (name ^ ": " ^ tag) stat folded)
        (derived r.M.stats s);
      check (name ^ ": exactly one halt event") true
        (s.Trace.Summary.halt <> None))
    golden_cases

(* What [mssp_sim trace --from FILE --format summary] folds: a stream
   re-read from JSONL. Each committed golden is byte for byte the live
   run's serialized stream and folds to the same summary, [Predict]
   live-ins and their binding counts included. *)
let test_reread_golden_summary () =
  List.iter
    (fun (name, run) ->
      let events, _ = run () in
      let path = golden_path name in
      check (name ^ ": golden is byte-identical") true
        (In_channel.with_open_text path In_channel.input_all
        = Trace.to_jsonl events);
      check (name ^ ": re-read summary = live summary") true
        (Trace.Summary.rows (Trace.Summary.of_events (read_golden path))
        = Trace.Summary.rows (Trace.Summary.of_events events)))
    golden_cases

(* A ring that dropped events holds a suffix of the stream, whose fold
   cannot add up to the run: the verdict line says the stream is
   truncated instead of reporting a mismatch on a healthy run. A ring
   that kept every event compares, and agrees. *)
let test_ring_verdict () =
  let d = distill_bench "vecsum" ~size:160 ~train:40 in
  let ring capacity =
    let tracer = Trace.create () and buf = Trace.Ring.create capacity in
    Trace.attach tracer (Trace.Ring.sink buf);
    let r =
      M.run
        ~config:{ base2 with Config.task_size = 20; tracer = Some tracer }
        d
    in
    (Trace.Ring.dropped buf, Trace.Summary.of_events (Trace.Ring.contents buf),
     r.M.stats)
  in
  let dropped, s, stats = ring 50 in
  check "a 50-event ring drops events" true (dropped > 0);
  Alcotest.(check string) "truncated stream: no comparison"
    (Printf.sprintf
       "stream truncated: the first %d events were dropped; fold not \
        compared with machine stats\n"
       dropped)
    (M.fold_check ~dropped s stats);
  Alcotest.(check string) "comparing the suffix would report a mismatch"
    "fold matches machine stats: false\n" (M.fold_check ~dropped:0 s stats);
  let dropped, s, stats = ring 100_000 in
  check_int "a large ring drops nothing" 0 dropped;
  Alcotest.(check string) "complete stream: compared, and agrees"
    "fold matches machine stats: true\n" (M.fold_check ~dropped s stats)

(* The fold updates one record in place: over every golden stream it
   allocates less than one word per event, where a fold that copies its
   record per event allocates over thirty. *)
let test_fold_allocation () =
  let streams =
    List.map (fun (name, _) -> read_golden (golden_path name)) golden_cases
  in
  let events = List.fold_left (fun n evs -> n + List.length evs) 0 streams in
  let before = Gc.minor_words () in
  List.iter
    (fun evs -> ignore (Trace.Summary.of_events evs : Trace.Summary.t))
    streams;
  let per_event = (Gc.minor_words () -. before) /. float_of_int events in
  check
    (Printf.sprintf "%.3f words per event over %d events < 1" per_event events)
    true (per_event < 1.0)

(* The cost of a bounded ring sink, the tracing a long run can afford:
   the machine builds and folds every event on every run, so attaching
   a ring moves no cycle, stat or stop, and adds only the ring's slot
   box and the frozen live-in a sink may keep. On vecsum at three times
   its reference input on 4 slaves (about 15,000 events) that is about
   7.7 words per event; the bound leaves 30% headroom. A sink that
   renders each event to JSONL allocates hundreds of words per event. *)
let test_ring_sink_words () =
  let b = W.find "vecsum" in
  let d =
    distill_bench "vecsum" ~size:(3 * b.W.ref_size) ~train:b.W.train_size
  in
  let cfg = Config.with_slaves 4 Config.default in
  let words config =
    let w0 = Gc.minor_words () in
    let r = M.run ~config d in
    (Gc.minor_words () -. w0, r)
  in
  ignore (words cfg : float * M.result);
  let off, r_off = words cfg in
  let tracer = Trace.create () and buf = Trace.Ring.create 4096 in
  Trace.attach tracer (Trace.Ring.sink buf);
  let on, r_on = words { cfg with Config.tracer = Some tracer } in
  check "ring sink: cycles identical" true
    (r_on.M.stats.M.cycles = r_off.M.stats.M.cycles);
  check "ring sink: stats identical" true (r_on.M.stats = r_off.M.stats);
  check "ring sink: stop identical" true (r_on.M.stop = r_off.M.stop);
  let events =
    Trace.Ring.dropped buf + List.length (Trace.Ring.contents buf)
  in
  let per_event = (on -. off) /. float_of_int events in
  check
    (Printf.sprintf "%.2f extra words per event over %d events (< 10)"
       per_event events)
    true (per_event < 10.0)

(* A squash frees every slave at once, so a squashed task is busy only
   up to the squash. Under a live-in corruption plan (vecsum on 1 slave,
   qsort on 8, both at ref size) the machine's busy cycles equal the
   Chrome export's task slices summed, and occupancy stays within 1. *)
let test_slave_busy_cut_at_squash () =
  let slice_cycles ev =
    match (Tjson.member "ph" ev, Tjson.member "dur" ev) with
    | Some (Tjson.Str "X"), Some (Tjson.Int d) -> d
    | _ -> 0
  in
  List.iter
    (fun (bench, slaves) ->
      let b = W.find bench in
      let config =
        {
          (Config.with_slaves slaves Config.default) with
          Config.faults = Some (Plan.quiet Plan.Live_in_corrupt ~seed:3 ~p:0.5);
        }
      in
      let events, r =
        run_traced ~config
          (distill_bench bench ~size:b.W.ref_size ~train:b.W.train_size)
      in
      let tag = Printf.sprintf "%s@%d" bench slaves in
      check (tag ^ ": squashed") true (r.M.stats.M.squashes > 0);
      (match Tjson.member "traceEvents" (Trace.Chrome.of_events events) with
      | Some (Tjson.List tevs) ->
        check_int (tag ^ ": busy cycles = task slices")
          (List.fold_left (fun n ev -> n + slice_cycles ev) 0 tevs)
          r.M.stats.M.slave_busy_cycles
      | _ -> Alcotest.fail "no traceEvents array");
      let occupancy = M.slave_occupancy r ~config in
      check (Printf.sprintf "%s: occupancy %.4f <= 1" tag occupancy) true
        (occupancy <= 1.0))
    [ ("vecsum", 1); ("qsort", 8) ]

(* The window a squash throws away is counted with the squash, so a
   run stopped by the squash limit counts it too: stats and the fold of
   the stream agree on every derived field, discarded tasks included, on
   qsort under a live-in corruption plan capped at 0 and at 3 squashes. *)
let test_squash_limit_discarded () =
  let p = (W.find "qsort").W.program ~size:100 in
  let d = Distill.distill p (Profile.collect p) in
  List.iter
    (fun max_squashes ->
      let config =
        {
          (Config.with_slaves 4 Config.default) with
          Config.max_squashes;
          faults = Some (Plan.quiet Plan.Live_in_corrupt ~seed:3 ~p:0.5);
        }
      in
      let events, r = run_traced ~config d in
      let tag = Printf.sprintf "max_squashes %d: " max_squashes in
      check (tag ^ "squash limit") true (r.M.stop = M.Squash_limit);
      List.iter
        (fun (field, stat, folded) -> check_int (tag ^ field) stat folded)
        (derived r.M.stats (Trace.Summary.of_events events)))
    [ 0; 3 ]

(* --- Chrome export validity ------------------------------------------ *)

let test_chrome_export_valid () =
  let events, _ = (List.assoc "vecsum" golden_cases) () in
  let s = Trace.Chrome.to_string events in
  match Tjson.parse s with
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
  | Ok json ->
    let tevs =
      match Tjson.member "traceEvents" json with
      | Some (Tjson.List l) -> l
      | _ -> Alcotest.fail "no traceEvents array"
    in
    check "has events" true (tevs <> []);
    let phase ev =
      match Tjson.member "ph" ev with Some (Tjson.Str p) -> p | _ -> "?"
    in
    List.iter
      (fun ev ->
        check "every event has a known phase" true
          (List.mem (phase ev) [ "M"; "X"; "i"; "C" ]);
        check "every event has a pid" true (Tjson.member "pid" ev <> None))
      tevs;
    let count p = List.length (List.filter (fun e -> phase e = p) tevs) in
    check "has metadata records" true (count "M" > 0);
    check "has task slices" true (count "X" > 0);
    check "has instants" true (count "i" > 0);
    check "has counter samples" true (count "C" > 0);
    check "declares a display time unit" true
      (Tjson.member "displayTimeUnit" json <> None)

(* --- QCheck invariants over random programs -------------------------- *)

let program_arb ~min_size ~max_size =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = min_size + Random.State.int st (max_size - min_size + 1) in
    Gen.generate ~seed ~size ()
  in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source gen

let qc_config = { base2 with Config.max_cycles = 100_000_000 }

(* programs whose reference run does not halt are out of scope, exactly
   like the fuzz oracle treats them *)
let traced_run p =
  let probe = Machine.run_program ~fuel:2_000_000 p in
  match probe.Machine.stopped with
  | Some Machine.Halted ->
    let profile = Profile.collect ~fuel:2_000_000 p in
    Some (run_traced ~config:qc_config (Distill.distill p profile))
  | _ -> None

let rank = function
  | Trace.Fork _ -> Some 0
  | Trace.Predict _ -> Some 1
  | Trace.Slave_start _ -> Some 2
  | Trace.Slave_finish _ -> Some 3
  | Trace.Verify _ -> Some 4
  | Trace.Commit _ -> Some 5
  | _ -> None

let task_of = function
  | Trace.Fork { task; _ }
  | Trace.Predict { task; _ }
  | Trace.Slave_start { task; _ }
  | Trace.Slave_finish { task; _ }
  | Trace.Verify { task; _ }
  | Trace.Commit { task; _ } ->
    Some task
  | _ -> None

(* every task's lifecycle events appear in order, at most once each, and
   always starting from a fork *)
let prop_well_bracketed =
  QCheck.Test.make ~name:"trace: per-task events are well bracketed"
    ~count:30
    (program_arb ~min_size:5 ~max_size:20)
    (fun p ->
      match traced_run p with
      | None -> true
      | Some (events, _) ->
        let last = Hashtbl.create 64 in
        List.for_all
          (fun ev ->
            match (task_of ev, rank ev) with
            | Some task, Some r ->
              let prev = Hashtbl.find_opt last task in
              let ok =
                match prev with
                | None -> r = 0 (* lifecycle opens with the fork *)
                | Some pr -> r > pr
              in
              Hashtbl.replace last task r;
              ok
            | _ -> true)
          events)

(* a committed task is never later squashed, and vice versa *)
let prop_committed_never_squashed =
  QCheck.Test.make ~name:"trace: committed tasks are never squashed"
    ~count:30
    (program_arb ~min_size:5 ~max_size:20)
    (fun p ->
      match traced_run p with
      | None -> true
      | Some (events, _) ->
        let committed = Hashtbl.create 64 in
        List.for_all
          (fun ev ->
            match ev with
            | Trace.Commit { task; _ } ->
              Hashtbl.replace committed task ();
              true
            | Trace.Squash { task = Some task; _ } ->
              not (Hashtbl.mem committed task)
            | _ -> true)
          events)

(* cycles never go backwards, and the stream ends with the halt *)
let prop_monotone_and_terminated =
  QCheck.Test.make ~name:"trace: cycles monotone, halt terminal" ~count:30
    (program_arb ~min_size:5 ~max_size:20)
    (fun p ->
      match traced_run p with
      | None -> true
      | Some (events, _) ->
        let rec mono last = function
          | [] -> true
          | ev :: rest ->
            let c = Trace.event_cycle ev in
            c >= last && mono c rest
        in
        mono 0 events
        &&
        (match List.rev events with
        | Trace.Halt _ :: rest ->
          List.for_all
            (function Trace.Halt _ -> false | _ -> true)
            rest
        | _ -> false))

(* the attribution fold agrees with the machine's own stats *)
let prop_fold_matches_stats =
  QCheck.Test.make ~name:"trace: summary fold equals machine stats"
    ~count:30
    (program_arb ~min_size:5 ~max_size:20)
    (fun p ->
      match traced_run p with
      | None -> true
      | Some (events, r) -> (
        match
          List.find_opt
            (fun (_, stat, folded) -> stat <> folded)
            (derived r.M.stats (Trace.Summary.of_events events))
        with
        | None -> true
        | Some (tag, stat, folded) ->
          QCheck.Test.fail_reportf "%s: stats %d, fold %d" tag stat folded))

(* a recording sink is observationally free: a run without one is
   identical, stats record and stop reason included, to the same run
   with a sink attached. Each case also runs a store-heavy kernel (qsort
   or nqueens) under a live-in fault plan both ways: the untraced run's
   checkpoints are views of the master's write layers, the traced run
   hands its sinks frozen fragments, and faults add to the views *)
let faulted_kernels =
  lazy
    (List.map
       (fun (name, size, train) -> distill_bench name ~size ~train)
       [ ("qsort", 300, 100); ("nqueens", 100, 50) ])

let kernel_disabled_identical ~qsort ~seed =
  let d = List.nth (Lazy.force faulted_kernels) (if qsort then 0 else 1) in
  let plan =
    Plan.make
      [
        Plan.action Plan.Live_in_corrupt ~seed ~p:0.3;
        Plan.action Plan.Mem_bit_flip ~seed:(seed + 1) ~p:0.3;
      ]
  in
  let config = { qc_config with Config.faults = Some plan } in
  let _, traced = run_traced ~config d in
  let plain = M.run ~config d in
  plain.M.stop = traced.M.stop
  && plain.M.stats = traced.M.stats
  && Full.equal_observable plain.M.arch traced.M.arch

let prop_disabled_identical =
  QCheck.Test.make ~name:"trace: disabled tracing changes nothing"
    ~count:20
    QCheck.(
      pair (program_arb ~min_size:5 ~max_size:20) (pair bool (int_bound 1000)))
    (fun (p, (qsort, seed)) ->
      kernel_disabled_identical ~qsort ~seed
      &&
      match traced_run p with
      | None -> true
      | Some (_, traced) ->
        let profile = Profile.collect ~fuel:2_000_000 p in
        let plain =
          M.run ~config:qc_config (Distill.distill p profile)
        in
        plain.M.stop = traced.M.stop
        && plain.M.stats = traced.M.stats
        && Full.equal_observable plain.M.arch traced.M.arch)

(* the JSONL codec is lossless *)
let prop_jsonl_roundtrip =
  QCheck.Test.make ~name:"trace: JSONL round trip is the identity"
    ~count:20
    (program_arb ~min_size:5 ~max_size:20)
    (fun p ->
      match traced_run p with
      | None -> true
      | Some (events, _) -> (
        match Trace.of_jsonl (Trace.to_jsonl events) with
        | Error _ -> false
        | Ok parsed ->
          (* event_equal, not (=): a Predict fragment rebuilt from JSONL
             can balance differently from the machine's original *)
          List.length parsed = List.length events
          && List.for_all2 Trace.event_equal parsed events))

(* the bench report's indented printer reads back as what it printed;
   the edge floats include a 16-digit integral value, which prints
   without a point or exponent unless the printer adds one, and a
   denormal *)
let tjson_arb =
  let open QCheck.Gen in
  let finite =
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        map float_of_int small_signed_int;
        oneofl [ 1e15; -1234567890123456.; 5e-324; 0.1; -0.0 ];
      ]
  in
  let value =
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Tjson.Null;
                 map (fun b -> Tjson.Bool b) bool;
                 map (fun i -> Tjson.Int i) int;
                 map (fun f -> Tjson.Float f) finite;
                 map (fun s -> Tjson.Str s) string_small;
               ]
           in
           let sub = self (n / 2) and width = int_bound 4 in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Tjson.List l) (list_size width sub));
                 ( 1,
                   map
                     (fun kvs -> Tjson.Obj kvs)
                     (list_size width (pair string_small sub)) );
               ])
  in
  QCheck.make ~print:Tjson.to_string value

let prop_pretty_roundtrip =
  QCheck.Test.make ~name:"tjson: pretty output parses back" ~count:300
    tjson_arb (fun v -> Tjson.parse (Tjson.pretty v) = Ok v)

let () =
  Alcotest.run "trace"
    [
      ( "golden",
        List.map
          (fun (name, _ as case) ->
            Alcotest.test_case name `Quick (test_golden case))
          golden_cases );
      (* the same committed traces must fall out when the ten runs
         execute concurrently on 4 helper domains of the inter-run pool:
         whole runs share no simulator state. Promotion is skipped here
         (the serial suite owns the files) *)
      ( "golden (pool 4)",
        List.map
          (fun (name, _) ->
            Alcotest.test_case name `Quick (fun () ->
                let run () = List.assoc name (Lazy.force golden_on_pool) in
                if not promote then test_golden (name, run) ()))
          golden_cases );
      ( "attribution",
        [
          Alcotest.test_case "fold over JSONL reproduces stats" `Quick
            test_fold_reproduces_stats;
          Alcotest.test_case "re-read goldens fold like their runs" `Quick
            test_reread_golden_summary;
          Alcotest.test_case "ring verdict: truncated or compared" `Quick
            test_ring_verdict;
        ] );
      ( "squash-limit discarded",
        [
          Alcotest.test_case "stats = fold" `Quick test_squash_limit_discarded;
        ] );
      ( "summary fold",
        [
          Alcotest.test_case "under one word per event" `Quick
            test_fold_allocation;
          Alcotest.test_case "a ring sink: same run, few words per event"
            `Quick test_ring_sink_words;
          Alcotest.test_case "busy cycles end at the squash" `Quick
            test_slave_busy_cut_at_squash;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export is valid trace_event JSON" `Quick
            test_chrome_export_valid;
        ] );
      ( "properties",
        [
          Mssp_testkit.to_alcotest prop_well_bracketed;
          Mssp_testkit.to_alcotest prop_committed_never_squashed;
          Mssp_testkit.to_alcotest prop_monotone_and_terminated;
          Mssp_testkit.to_alcotest prop_fold_matches_stats;
          Mssp_testkit.to_alcotest prop_disabled_identical;
          Mssp_testkit.to_alcotest prop_jsonl_roundtrip;
          Mssp_testkit.to_alcotest prop_pretty_roundtrip;
        ] );
    ]
