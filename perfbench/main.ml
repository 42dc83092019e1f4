(* The repository benchmark. One run:

     main.exe --workload kernels|fuzz|adapt --seed N --seconds S --trace 0|1

   sets the workload up, then runs passes over it, closed loop, one
   operation at a time, until the next pass would overrun S seconds;
   the set-up repeats after every pass (setup_s is the median). Host
   times are CPU times calibrated against the host's speed at the moment
   (calib.ml). The last line of stdout is one JSON object {correct,
   attempted, failed, metrics}: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1. README.md defines every
   metric. *)

module W = Workloads
module Stats = Mssp_metrics.Stats

(* The environment variables that pick host engines at library start-up.
   When any is set, the process re-executes itself without them, so that
   every engine default is the pinned one; the values it saw are kept
   for the fingerprint line. *)
let engine_vars = [ "MSSP_POOL"; "MSSP_SBLK"; "MSSP_SJRNL" ]
let seen_var = "PERFBENCH_SEEN_ENV"

let seen_env () =
  match Sys.getenv_opt seen_var with
  | Some s -> s
  | None ->
    String.concat ","
      (List.map
         (fun v -> v ^ "=" ^ Option.value ~default:"unset" (Sys.getenv_opt v))
         engine_vars)

let unpin_environment () =
  if List.exists (fun v -> Sys.getenv_opt v <> None) engine_vars then begin
    let keep kv =
      not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) engine_vars)
    in
    let env = List.filter keep (Array.to_list (Unix.environment ())) in
    Unix.execve Sys.executable_name Sys.argv
      (Array.of_list ((seen_var ^ "=" ^ seen_env ()) :: env))
  end

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload kernels|fuzz|adapt [--seed N] [--seconds S] \
     [--trace 0|1]";
  exit 2

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some seed -> go { a with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0.0 -> go { a with seconds } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | _ -> usage ()
  in
  let a =
    go
      { workload = ""; seed = W.default_seed; seconds = 10.0; trace = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if not (List.mem a.workload [ "kernels"; "fuzz"; "adapt" ]) then usage ();
  a

(* --- measuring -------------------------------------------------------- *)

(** Set up [reps] times, each on a compacted heap and timed like an
    operation; the set-ups' calibrated times and the first one's inputs. *)
let setups ~reps f =
  let timed = List.init reps (fun _ -> Gc.compact (); Calib.around f) in
  let slices = List.concat_map (fun (_, t) -> t.Calib.slices) timed in
  (List.map (fun (_, t) -> Calib.scale slices t.Calib.op_s) timed, fst (List.hd timed))

(* the major heap's peak after the first pass: what one pass needs,
   independent of how many passes the host fits in the run *)
let peak_heap_words = ref 0

(** Passes, each followed by [between], until the next one would end
    after [seconds] of wall clock; at least one. *)
let passes ~seconds ~between pass =
  let t0 = W.now () in
  let rec go acc =
    let t = W.now () in
    let p = pass () in
    if acc = [] then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    between ();
    let wall = W.now () -. t in
    let acc = (p, wall) :: acc in
    if W.now () -. t0 +. wall > seconds then List.rev acc else go acc
  in
  go []

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  attempted : int;
  failures : string list;
}

let sim name (p : W.pass) = List.assoc name p.W.sim

(* Simulated metrics are deterministic: every pass must agree. *)
let sim_drift ps =
  match ps with
  | [] -> []
  | p0 :: rest ->
    if List.for_all (fun p -> p.W.sim = p0.W.sim) rest then []
    else [ "simulated metrics differ between passes of one run" ]

let sum = List.fold_left ( +. ) 0.0

let timings p = List.rev_map (fun o -> o.W.timing) p.W.ops

let slices p = List.concat_map (fun t -> t.Calib.slices) (timings p)

(** A pass's operations in calibrated ms, oldest first. *)
let op_norm p = List.map (fun t -> 1000.0 *. Calib.scale (slices p) t.Calib.op_s) (timings p)

(** A pass in calibrated seconds: its CPU time without the calibration. *)
let pass_norm p =
  let calib_s = sum (List.map (fun t -> t.Calib.calib_s) (timings p)) in
  Calib.scale (slices p) (p.W.cpu_s -. calib_s)

(** The end-to-end metrics of the timed passes. [adapt], an untimed
    [adapt] pass, gives [adapt_gain] and adds its checks. *)
let end_to_end ~setup_s ?adapt timed =
  let ps = List.map fst timed in
  Printf.printf "passes %d, CPU s / wall s / calibrated s each: %s\n" (List.length timed)
    (String.concat " "
       (List.map
          (fun (p, wall) -> Printf.sprintf "%.3f/%.3f/%.3f" p.W.cpu_s wall (pass_norm p))
          timed));
  let med f = Stats.median (List.map f ps) in
  let pass_s = med pass_norm in
  let checked = ps @ Option.to_list adapt in
  let attempted = List.fold_left (fun a p -> a + p.W.attempted) 0 checked in
  let failures = List.concat_map (fun p -> p.W.failures) checked @ sim_drift ps in
  let last = List.nth ps (List.length ps - 1) in
  let words = Sys.word_size / 8 in
  {
    attempted;
    failures;
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("pass_s", pass_s, "s");
        ("host_mips", med (fun p -> p.W.instrs) /. pass_s /. 1e6, "Minstr/s");
        ("alloc_words_per_instr", med (fun p -> p.W.words /. p.W.instrs), "words");
        ( "peak_heap_mb",
          float_of_int (!peak_heap_words * words) /. 1e6,
          "MB" );
        ( "pass_rate",
          1.0 -. (float_of_int (List.length failures) /. float_of_int attempted),
          "fraction" );
        ("speedup_geomean", sim "speedup_geomean" last, "x");
        ("slave_scaling", sim "slave_scaling" last, "x");
        ("adapt_gain", sim "adapt_gain" (Option.value ~default:last adapt), "x");
      ];
  }

(* --- the traced run --------------------------------------------------- *)

(* Span names are the layers; "bench" is the benchmark's own glue around
   one operation, "fuzz_no_formal" the oracle re-run without its formal
   layer, "gen" the fuzz set-up's Gen.generate calls. *)
let span_layers =
  [
    "bench"; "profile"; "distill"; "baseline"; "seq_machine"; "core"; "adapt";
    "fuzz"; "fuzz_no_formal"; "gen";
  ]

let print_self_times () =
  Printf.printf "layer self time (span time minus child spans):\n";
  List.iter
    (fun (name, (l : Spans.layer)) ->
      Printf.printf "  %-15s calls %6d  total %9.4f s  self %9.4f s  self words %.3e\n"
        name l.Spans.calls l.Spans.total_s l.Spans.self_s l.Spans.self_words)
    (Spans.layers ())

let print_task_fold () =
  Printf.printf "task fold per run (cycles: fork interval, start wait, exec, commit wait):\n";
  List.iter
    (fun (what, vs) ->
      Printf.printf "  %-28s %s\n" what
        (String.concat " " (List.map (Printf.sprintf "%9.1f") vs)))
    (List.rev !Fold.per_run)

let per_instr num den = if den = 0.0 then 0.0 else num /. den

let run_pass ?predict ~seed = function
  | `Kernels ks -> W.kernels_pass ks
  | `Fuzz ps -> W.fuzz_pass ps
  | `Adapt ks -> W.adapt_pass ?predict ~seed ks

(** The per-layer metrics. Pass [a] runs with spans on and the machine
    trace off; every host-time metric comes from it. Pass [b] repeats it
    with the machine trace recorded and folded ([kernels], [adapt]);
    [adapt] runs a third time with the predictor off. *)
let traced args ~inputs =
  let pass ?predict () = run_pass ?predict ~seed:args.seed inputs in
  let a = pass () in
  print_self_times ();
  let layers = Spans.layers () and counts = Hashtbl.copy Spans.counts in
  let l name = Option.value ~default:Spans.no_layer (List.assoc_opt name layers) in
  let cnt name = Option.value ~default:0.0 (Hashtbl.find_opt counts name) in
  let fuzz_runs = !W.fuzz_runs and fuzz_judged = !W.fuzz_judged in
  let fuzz_skipped = !W.fuzz_skipped and adapt_detail = !W.adapt_detail in
  Spans.write (Printf.sprintf "_perfbench/spans-%s-%d.jsonl" args.workload args.seed);
  (* host seconds of the calls that run the machine *)
  let machine_s () = (Spans.layer "core").Spans.total_s +. (Spans.layer "adapt").Spans.total_s in
  let machine_a = machine_s () in
  let traced_over, fold_s =
    match inputs with
    | `Fuzz _ -> (0.0, 0.0)
    | `Kernels _ | `Adapt _ ->
      Spans.reset ();
      Fold.recording := true;
      ignore (pass () : W.pass);
      Fold.recording := false;
      print_task_fold ();
      ((machine_s () /. machine_a) -. 1.0, (Spans.layer "trace_fold").Spans.total_s)
  in
  let predict_s =
    match inputs with
    | `Adapt _ ->
      Spans.reset ();
      ignore (pass ~predict:Mssp_predict.Predict.Off () : W.pass);
      (l "adapt").Spans.total_s -. (Spans.layer "adapt").Spans.total_s
    | `Kernels _ | `Fuzz _ -> 0.0
  in
  let counter = Fold.counter in
  let miss_ratio acc miss =
    let a = counter acc in
    if a = 0 then 0.0 else float_of_int (counter miss) /. float_of_int a
  in
  let events = float_of_int (counter "sim.events_executed") in
  let per_instr_of layer ~s ~words =
    let n = cnt (layer ^ ".instrs") in
    [
      (layer ^ ".ns_per_instr", 1e9 *. per_instr s n, "ns");
      (layer ^ ".words_per_instr", per_instr words n, "words");
    ]
  in
  let host layer = per_instr_of layer ~s:(l layer).Spans.total_s ~words:(l layer).Spans.total_words in
  let machine_words = (l "core").Spans.total_words +. (l "adapt").Spans.total_words in
  let sim name unit = (name, List.assoc name a.W.sim, unit) in
  let metrics =
    [
      ("op_ms_p50", Stats.percentile 50.0 (op_norm a), "ms");
      ("op_ms_p90", Stats.percentile 90.0 (op_norm a), "ms");
      ("profile.s", (l "profile").Spans.total_s, "s");
      ("profile.words", (l "profile").Spans.total_words, "words");
      ("distill.s", (l "distill").Spans.total_s, "s");
      ("distill.words", (l "distill").Spans.total_words, "words");
      sim "distill.dynamic_ratio" "x";
      ("baseline.s", (l "baseline").Spans.total_s, "s");
    ]
    @ host "baseline" @ host "seq_machine"
    @ [ ("core.s", machine_a, "s") ]
    @ per_instr_of "core" ~s:machine_a ~words:machine_words
    @ [
        ("core.major_gcs", float_of_int ((l "core").Spans.majors + (l "adapt").Spans.majors), "count");
        sim "core.cycles" "cycles";
        sim "core.master_ratio" "x";
        sim "core.commit_ratio" "fraction";
        sim "core.squashes_per_ktask" "1/ktask";
        sim "core.recovery_share" "fraction";
        sim "core.slave_occupancy" "fraction";
        sim "core.cycle_drift_points" "count";
      ]
    @ List.map
        (fun (name, m) -> ("task." ^ name, Fold.value m, "cycles"))
        Fold.phases
    @ [
        ("task.in_flight", Fold.in_flight (), "tasks");
        ("task.count", float_of_int !Fold.forks, "count");
        ("task.squashes", float_of_int !Fold.squashes, "count");
        ( "cache.master_l1_miss_ratio",
          miss_ratio "cache.master_l1_accesses" "cache.master_l1_misses",
          "fraction" );
        ("cache.master_l1_accesses", float_of_int (counter "cache.master_l1_accesses"), "count");
        ( "cache.slaves_l1_miss_ratio",
          miss_ratio "cache.slaves_l1_accesses" "cache.slaves_l1_misses",
          "fraction" );
        ("cache.slaves_l1_accesses", float_of_int (counter "cache.slaves_l1_accesses"), "count");
        ( "cache.l2_miss_ratio",
          miss_ratio "cache.shared_l2_accesses" "cache.shared_l2_misses",
          "fraction" );
        ("cache.l2_accesses", float_of_int (counter "cache.shared_l2_accesses"), "count");
        ("sim_engine.events", events, "count");
        ("sim_engine.ns_per_event", 1e9 *. per_instr machine_a events, "ns");
        sim "predict.hit_ratio" "fraction";
        sim "predict.lookups" "count";
        ("predict.s", predict_s, "s");
        ("adapt.s", (l "adapt").Spans.total_s, "s");
      ]
    @ List.concat_map
        (fun name ->
          let s, best = Option.value ~default:(0.0, 0) (List.assoc_opt name adapt_detail) in
          [
            (Printf.sprintf "adapt.%s.s" name, s, "s");
            (Printf.sprintf "adapt.%s.best_round" name, float_of_int best, "round");
          ])
        W.adapt_kernels
    @ [
        ("fuzz.check_s", (l "fuzz").Spans.total_s, "s");
        ("fuzz.programs", float_of_int fuzz_judged, "count");
        ("fuzz.runs_per_program", per_instr (float_of_int fuzz_runs) (float_of_int fuzz_judged), "runs");
        ("fuzz.skipped", float_of_int fuzz_skipped, "count");
        ("formal.s", (l "fuzz").Spans.total_s -. (l "fuzz_no_formal").Spans.total_s, "s");
        ("trace.overhead", traced_over, "fraction");
        ("trace.events", float_of_int !Fold.events, "count");
        ("trace.fold_s", fold_s, "s");
        ("trace.stats_mismatches", float_of_int (List.length !Fold.mismatches), "count");
      ]
    @ List.map (fun name -> (name ^ ".self_s", (l name).Spans.self_s, "s")) span_layers
  in
  {
    metrics;
    attempted = a.W.attempted;
    failures = a.W.failures @ List.rev !Fold.mismatches;
  }

(* [kernels] also runs the ADPTG adaptation: its predict and adapt layers
   come from a traced [adapt] run. *)
let adapt_layer name =
  String.starts_with ~prefix:"predict." name || String.starts_with ~prefix:"adapt." name

let with_adapt_layers k a =
  {
    metrics =
      List.map
        (fun (name, v, unit) ->
          if adapt_layer name then List.find (fun (n, _, _) -> n = name) a.metrics
          else (name, v, unit))
        k.metrics;
    attempted = k.attempted + a.attempted;
    failures = k.failures @ a.failures;
  }

(* --- output ----------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result r =
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) r.failures;
  let failed = List.length r.failures in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         r.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (max 1 r.attempted) failed metrics

let () =
  unpin_environment ();
  let args = parse_args () in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%b host: nproc=%d ocaml=%s %s\n%!"
    args.workload args.seed args.seconds args.trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (seen_env ());
  (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
  (* the traced run sets up once, with spans on *)
  Spans.enabled := args.trace;
  Calib.inside := not args.trace;
  let seed = args.seed in
  (* the set-up, and how many more times to repeat it after each pass *)
  let make, reps =
    match args.workload with
    | "kernels" ->
      ((fun () -> (`Kernels (W.kernels_setup seed), Some (W.adapt_setup seed))), 40)
    | "fuzz" -> ((fun () -> (`Fuzz (W.fuzz_setup seed), None)), 1)
    | _ -> ((fun () -> (`Adapt (W.adapt_setup seed), None)), 60)
  in
  let setup_times, (inputs, adapt) = setups ~reps:1 make in
  let setup_times = ref setup_times in
  let r =
    match (args.trace, adapt) with
    | true, None -> traced args ~inputs
    | true, Some aks ->
      let k = traced args ~inputs in
      Spans.reset ();
      with_adapt_layers k (traced { args with workload = "adapt" } ~inputs:(`Adapt aks))
    | false, _ ->
      (* Set-ups repeat after every pass, so that like the passes they
         sample the host's speed through the whole run. *)
      let between () = setup_times := fst (setups ~reps make) @ !setup_times in
      let timed =
        passes ~seconds:args.seconds ~between (fun () -> run_pass ~seed inputs)
      in
      (* the ADPTG round, once and untimed: its simulated metrics and checks *)
      let adapt = Option.map (fun aks -> W.adapt_pass ~seed aks) adapt in
      end_to_end ~setup_s:(Stats.median !setup_times) ?adapt timed
  in
  print_result r
