(* mssp_sim — command-line driver for the MSSP reproduction.

   Subcommands:
     list               enumerate benchmarks
     seq                run a benchmark on the sequential baseline
     distill            distill a benchmark and show the stats/listing
     run                run a benchmark under MSSP and show statistics
     trace              run under MSSP with the event bus on; export the stream
     compare            SEQ vs MSSP: verify equivalence, report speedup
     exec               assemble and run a .s file sequentially
     formal             run the formal-model checks (safety, refinement)
     fuzz               differential fuzzing: SEQ vs MSSP grid vs formal models
     audit              resilience audit: fault surface x intensity matrix

   Examples:
     mssp_sim list
     mssp_sim compare vecsum --slaves 8
     mssp_sim run qsort --size 2000 --task-size 100 --verify-refinement
     mssp_sim distill branchy --dump
     mssp_sim exec program.s *)

open Cmdliner
module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module B = Mssp_baseline.Baseline
module W = Mssp_workload.Workload
module Trace = Mssp_trace.Trace
module Table = Mssp_metrics.Table
module Adapt = Mssp_core.Mssp_adapt

(* --- shared arguments --- *)

let bench_arg =
  let doc = "Benchmark name (see `mssp_sim list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let size_arg =
  let doc = "Input size (default: the benchmark's reference size)." in
  Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N" ~doc)

(* an int of at least 1: 0 or a negative ends in a usage error *)
let positive =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok _ ->
      Error
        (`Msg
          (Printf.sprintf "invalid value '%s', expected an integer of at \
                           least 1" s))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let slaves_arg =
  let doc = "Number of slave processors (at least 1)." in
  Arg.(value & opt positive 4 & info [ "slaves" ] ~docv:"N" ~doc)

let task_size_arg =
  let doc = "Master instructions between checkpoints (task sizing)." in
  Arg.(value & opt int Config.default.Config.task_size
       & info [ "task-size" ] ~docv:"N" ~doc)

let verify_arg =
  let doc = "Maintain the shadow SEQ machine and check jumping refinement at every commit." in
  Arg.(value & flag & info [ "verify-refinement" ] ~doc)

let no_distill_arg =
  let doc = "Disable all distiller transformations (identity master ablation)." in
  Arg.(value & flag & info [ "no-distill" ] ~doc)

let adapt_arg =
  let doc =
    "Also distill an adapted candidate (task-boundary merge to the task \
     size plus faint-write elision), run both and report the faster by \
     simulated cycles."
  in
  Arg.(value & flag & info [ "adapt" ] ~doc)

let resolve_bench name size =
  let b = W.find name in
  let size = Option.value size ~default:b.W.ref_size in
  (b, size)

(* a benchmark's program, its training profile and the distiller options *)
let load name size no_distill =
  let b, size = resolve_bench name size in
  let profile = Profile.collect (b.W.program ~size:b.W.train_size) in
  let options =
    if no_distill then Distill.identity_options else Distill.default_options
  in
  (b.W.program ~size, profile, options)

let prepare name size no_distill =
  let program, profile, options = load name size no_distill in
  (program, Distill.distill ~options program profile)

let config slaves task_size verify =
  {
    (Config.with_slaves slaves Config.default) with
    Config.task_size;
    verify_refinement = verify;
  }

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : W.benchmark) ->
        Printf.printf "%-10s (train %5d, ref %5d)  %s\n" b.W.name
          b.W.train_size b.W.ref_size b.W.description)
      (W.all @ [ W.io_bench ])
  in
  Cmd.v (Cmd.info "list" ~doc:"List available benchmarks")
    Term.(const run $ const ())

(* --- seq --- *)

let seq_cmd =
  let run name size =
    let b, size = resolve_bench name size in
    let r = B.sequential (b.W.program ~size) in
    Printf.printf "benchmark:    %s (size %d)\n" b.W.name size;
    Printf.printf "instructions: %d\n" r.B.instructions;
    Printf.printf "cycles:       %d  (CPI %.2f)\n" r.B.cycles
      (float_of_int r.B.cycles /. float_of_int (max 1 r.B.instructions));
    Printf.printf "output:       %s\n"
      (String.concat ", " (List.map string_of_int (Machine.output r.B.state)))
  in
  Cmd.v (Cmd.info "seq" ~doc:"Run a benchmark on the sequential baseline")
    Term.(const run $ bench_arg $ size_arg)

(* --- distill --- *)

let distill_cmd =
  let dump_arg =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print both program listings.")
  in
  let passes_arg =
    let doc =
      "Comma-separated pass names to run instead of the default pipeline \
       (see the registry: harden, drop-stores, repair, dead-writes, \
       boundaries, merge, faint-writes, compact). A \
       list without a layout pass gets the identity layout appended."
    in
    Arg.(value & opt (some string) None & info [ "passes" ] ~docv:"LIST" ~doc)
  in
  let dump_passes_arg =
    let doc =
      "Write one before/after disassembly diff per executed pass plus \
       pipeline.json under $(docv) (created if missing)."
    in
    Arg.(
      value & opt (some string) None & info [ "dump-passes" ] ~docv:"DIR" ~doc)
  in
  let run name size dump no_distill passes dump_passes =
    let program, profile, options = load name size no_distill in
    let passes =
      match passes with
      | None -> Distill.default_passes ()
      | Some s -> (
        let names =
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun x -> x <> "")
        in
        match Distill.resolve names with
        | Ok ps -> ps
        | Error e ->
          prerr_endline e;
          exit 2)
    in
    let d = Distill.distill ~options ~passes ~check:true program profile in
    Format.printf "%a@." Distill.pp_stats d.Distill.stats;
    Printf.printf "task entries: %s\n"
      (String.concat ", "
         (List.map (Printf.sprintf "%#x") d.Distill.task_entries));
    Format.printf "--- passes ---@.%a@." Distill.pp_steps d;
    if dump then begin
      Format.printf "@.--- original ---@.%a@." Mssp_isa.Program.pp program;
      Format.printf "--- distilled ---@.%a@." Mssp_isa.Program.pp
        d.Distill.distilled
    end;
    Option.iter
      (fun dir ->
        let files = Distill.dump ~dir d in
        Printf.printf "wrote %d pass artifact(s) under %s\n"
          (List.length files) dir)
      dump_passes;
    if not (Distill.ok d) then begin
      Format.eprintf "pass-checker: %d violation(s)@."
        (List.length d.Distill.violations);
      exit 1
    end
  in
  Cmd.v (Cmd.info "distill" ~doc:"Distill a benchmark and show statistics")
    Term.(
      const run $ bench_arg $ size_arg $ dump_arg $ no_distill_arg
      $ passes_arg $ dump_passes_arg)

(* --- run --- *)

let run_cmd =
  let trace_arg =
    Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"N"
         ~doc:"Record the structured event stream and print its first \
               $(docv) events (see `mssp_sim trace` for exports).")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS"
         ~doc:"Wall-clock guard: cooperatively interrupt the simulation \
               after $(docv) seconds (the machine stops at the next event \
               with the structured $(b,interrupted) reason; architected \
               state is the last committed boundary) and exit 124 — a \
               runaway workload becomes a structured failure, not a hung \
               job.")
  in
  let run name size slaves task_size verify no_distill trace adapt timeout =
    let program, profile, options = load name size no_distill in
    let collector = Option.map (fun _ -> Trace.recording ()) trace in
    let interrupt =
      Option.map
        (fun secs ->
          let t0 = Unix.gettimeofday () in
          fun () ->
            if Unix.gettimeofday () -. t0 > secs then Some "timeout" else None)
        timeout
    in
    let cfg =
      { (config slaves task_size verify) with
        Config.tracer = Option.map fst collector;
        interrupt;
      }
    in
    let r =
      if not adapt then M.run ~config:cfg (Distill.distill ~options program profile)
      else begin
        let a = Adapt.run ~options ~config:cfg program profile in
        Printf.printf "--- adaptation rounds ---\n";
        List.iter (fun rd -> Format.printf "%a@." Adapt.pp_round rd) a.Adapt.rounds;
        Printf.printf "best: round %d\n\n" a.Adapt.best.Adapt.index;
        a.Adapt.best.Adapt.result
      end
    in
    (match (trace, collector) with
    | Some n, Some (_, events) ->
      let evs = events () in
      Printf.printf "--- first %d machine events ---\n"
        (min n (List.length evs));
      List.iteri
        (fun i ev -> if i < n then Format.printf "%a@." Trace.pp_event ev)
        evs;
      Printf.printf "--- end of trace (%d events total) ---\n\n"
        (List.length evs)
    | _ -> ());
    Format.printf "%a@." M.pp_stats r.M.stats;
    Printf.printf "stop:             %s\n"
      (match r.M.stop with
      | M.Halted -> "halted"
      | M.Cycle_limit -> "cycle limit"
      | M.Squash_limit -> "squash limit"
      | M.Recovery_fuel -> "recovery fuel exhausted"
      | M.Interrupted why -> Printf.sprintf "interrupted (%s)" why
      | M.Wedged -> "WEDGED (bug)");
    Printf.printf "mean task size:   %.1f\n" (M.mean_task_size r);
    Printf.printf "mean live-ins:    %.1f\n" (M.mean_live_ins r);
    Printf.printf "slave occupancy:  %.2f\n" (M.slave_occupancy r ~config:cfg);
    if verify then
      Printf.printf "refinement violations: %d\n" r.M.refinement_violations;
    Printf.printf "output:           %s\n"
      (String.concat ", " (List.map string_of_int (Machine.output r.M.arch)));
    match r.M.stop with M.Interrupted _ -> exit 124 | _ -> ()
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a benchmark under MSSP")
    Term.(
      const run $ bench_arg $ size_arg $ slaves_arg $ task_size_arg
      $ verify_arg $ no_distill_arg $ trace_arg $ adapt_arg $ timeout_arg)

(* --- trace --- *)

let trace_cmd =
  let format_arg =
    let fmt =
      Arg.enum
        [
          ("text", `Text); ("jsonl", `Jsonl); ("chrome", `Chrome);
          ("summary", `Summary);
        ]
    in
    Arg.(value & opt fmt `Text & info [ "format" ] ~docv:"FMT"
         ~doc:"Output format: $(b,text) (one pretty-printed event per \
               line), $(b,jsonl) (one JSON object per line), $(b,chrome) \
               (Chrome trace_event JSON for about://tracing / Perfetto) or \
               $(b,summary) (the attribution fold as a counter table).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write to $(docv) instead of stdout.")
  in
  let ring_arg =
    Arg.(value & opt (some int) None & info [ "ring" ] ~docv:"N"
         ~doc:"Keep only the last $(docv) events (bounded ring buffer) \
               instead of the full stream.")
  in
  let bench_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH"
         ~doc:"Benchmark name (see `mssp_sim list`); omit with $(b,--from).")
  in
  let from_arg =
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"FILE"
         ~doc:"Read the stream from a JSONL export (such as a \
               $(b,--format jsonl) file or a golden trace) instead of \
               running a benchmark, and render it in the chosen format.")
  in
  let record ?stream name size slaves task_size verify no_distill ring =
    let _, d = prepare name size no_distill in
    let tracer, events, dropped =
      match (stream, ring) with
      | Some sink, _ ->
        let tr = Trace.create () in
        Trace.attach tr sink;
        (tr, (fun () -> []), fun () -> 0)
      | None, None ->
        let tr, events = Trace.recording () in
        (tr, events, fun () -> 0)
      | None, Some n ->
        let tr = Trace.create () in
        let buf = Trace.Ring.create n in
        Trace.attach tr (Trace.Ring.sink buf);
        ( tr,
          (fun () -> Trace.Ring.contents buf),
          fun () -> Trace.Ring.dropped buf )
    in
    let cfg =
      { (config slaves task_size verify) with Config.tracer = Some tracer }
    in
    let r = M.run ~config:cfg d in
    let evs = events () in
    (evs, fun s -> M.fold_check ~dropped:(dropped ()) s r.M.stats)
  in
  let read_stream file =
    match
      Trace.of_jsonl (In_channel.with_open_text file In_channel.input_all)
    with
    | Ok evs ->
      ( evs,
        fun _ ->
          Printf.sprintf "fold of %d events read from %s\n" (List.length evs)
            file )
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 2
    | exception Sys_error e ->
      prerr_endline e;
      exit 2
  in
  let run name from size slaves task_size verify no_distill format out ring =
    let oc = lazy (Option.fold ~none:stdout ~some:Out_channel.open_text out) in
    let bytes = ref 0 and streamed = ref 0 in
    let put s =
      bytes := !bytes + String.length s;
      Out_channel.output_string (Lazy.force oc) s
    in
    let put_event ev =
      put
        (if format = `Text then Format.asprintf "%a\n" Trace.pp_event ev
         else Trace.to_jsonl [ ev ])
    in
    (* A live run without a ring goes out (text, JSONL) or is folded
       (summary, chrome) as the machine emits each event, so memory
       follows the output, not the stream; a streamed run leaves no
       event list. *)
    let summary = Trace.Summary.create () in
    let chrome = Trace.Chrome.create () in
    let stream =
      let sink emit =
        Some
          (fun ev ->
            incr streamed;
            emit ev)
      in
      match (ring, format) with
      | None, (`Text | `Jsonl) -> sink put_event
      | None, `Summary -> sink (Trace.Summary.add summary)
      | None, `Chrome -> sink (Trace.Chrome.add chrome)
      | Some _, _ -> None
    in
    let evs, verdict =
      match (name, from, ring) with
      | Some name, None, _ ->
        record ?stream name size slaves task_size verify no_distill ring
      | None, Some file, None -> read_stream file
      | None, Some _, Some _ ->
        prerr_endline "trace: --ring records a run; it cannot apply to --from";
        exit 2
      | Some _, Some _, _ | None, None, _ ->
        prerr_endline "trace: give either a BENCH or --from FILE";
        exit 2
    in
    (match format with
    | `Text | `Jsonl -> List.iter put_event evs
    | `Chrome ->
      List.iter (Trace.Chrome.add chrome) evs;
      put (Mssp_trace.Tjson.to_string (Trace.Chrome.to_json chrome) ^ "\n")
    | `Summary ->
      List.iter (Trace.Summary.add summary) evs;
      put
        (Table.render ~header:[ "counter"; "value" ]
           (Trace.Summary.rows summary)
        ^ "\n" ^ verdict summary));
    match out with
    | None -> ()
    | Some file ->
      Out_channel.close (Lazy.force oc);
      Printf.printf "wrote %s (%d events, %d bytes)\n" file
        (!streamed + List.length evs)
        !bytes
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a benchmark under MSSP with the structured event bus on and \
          export the stream (text, JSONL, Chrome trace_event or an \
          attribution summary), or re-render an exported stream")
    Term.(
      const run $ bench_opt_arg $ from_arg $ size_arg $ slaves_arg
      $ task_size_arg $ verify_arg $ no_distill_arg
      $ format_arg $ out_arg $ ring_arg)

(* --- compare --- *)

let compare_cmd =
  let run name size slaves task_size no_distill =
    let program, d = prepare name size no_distill in
    let baseline = B.sequential ~also_load:[ d.Distill.distilled ] program in
    let cfg = config slaves task_size true in
    let r = M.run ~config:cfg d in
    let equal = Full.equal_observable baseline.B.state r.M.arch in
    Printf.printf "sequential cycles: %d\n" baseline.B.cycles;
    Printf.printf "mssp cycles:       %d (%d slaves)\n" r.M.stats.M.cycles slaves;
    Printf.printf "speedup:           %.2f\n"
      (B.speedup ~baseline r.M.stats.M.cycles);
    Printf.printf "tasks committed:   %d, squashes: %d\n"
      r.M.stats.M.tasks_committed r.M.stats.M.squashes;
    Printf.printf "states equal:      %b\n" equal;
    Printf.printf "refinement:        %d violations\n" r.M.refinement_violations;
    if not equal then begin
      List.iteri
        (fun i (c, v1, v2) ->
          if i < 10 then
            Printf.printf "  diff %s: seq=%d mssp=%d\n"
              (Mssp_state.Cell.show c) v1 v2)
        (Full.diff_observable baseline.B.state r.M.arch);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Verify MSSP against SEQ and report the speedup")
    Term.(
      const run $ bench_arg $ size_arg $ slaves_arg $ task_size_arg
      $ no_distill_arg)

(* --- exec --- *)

let exec_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s"
         ~doc:"SIR assembly source file.")
  in
  let fuel_arg =
    Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~docv:"N"
         ~doc:"Instruction budget.")
  in
  let run file fuel =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Mssp_asm.Parser.parse source with
    | Error e ->
      Format.eprintf "%s: %a@." file Mssp_asm.Parser.pp_error e;
      exit 1
    | Ok p ->
      let m = Machine.of_program p in
      let stop = Machine.run ~fuel m in
      Printf.printf "stop:         %s\n"
        (match stop with
        | Machine.Halted -> "halted"
        | Machine.Faulted f -> Format.asprintf "fault (%a)" Mssp_seq.Exec.pp_fault f
        | Machine.Out_of_fuel -> "out of fuel");
      Printf.printf "instructions: %d\n" m.Machine.instructions;
      Printf.printf "output:       %s\n"
        (String.concat ", "
           (List.map string_of_int (Machine.output m.Machine.state)))
  in
  Cmd.v (Cmd.info "exec" ~doc:"Assemble and run a SIR .s file sequentially")
    Term.(const run $ file_arg $ fuel_arg)

(* --- formal --- *)

let formal_cmd =
  let trials_arg =
    Arg.(value & opt int 30 & info [ "trials" ] ~docv:"N"
         ~doc:"Random instances per check.")
  in
  let run trials =
    let ok = ref true in
    for seed = 1 to trials do
      let p = Mssp_fuzz.Gen.generate ~weights:Mssp_fuzz.Gen.plain ~seed ~size:6 () in
      List.iter
        (fun { Mssp_fuzz.Oracle.point; reason } ->
          (match point with
          | "formal/lemma2" -> Printf.printf "Lemma 2 FAILED at seed %d\n" seed
          | "formal/theorem2" ->
            Printf.printf "Theorem 2 FAILED at seed %d\n" seed
          | "formal/refinement" ->
            Printf.printf "refinement FAILED at seed %d\n" seed
          | _ -> Printf.printf "%s FAILED at seed %d: %s\n" point seed reason);
          ok := false)
        (Mssp_fuzz.Oracle.formal_failures ~seed p)
    done;
    if !ok then
      Printf.printf
        "all formal checks passed over %d random programs\n\
         (Lemma 2, Theorem 2, jumping refinement)\n"
        trials
    else exit 1
  in
  Cmd.v
    (Cmd.info "formal"
       ~doc:"Check the formal-model results over random programs")
    Term.(const run $ trials_arg)

(* --- cc: MiniC --- *)

let cc_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc"
         ~doc:"MiniC source file.")
  in
  let mssp_arg =
    Arg.(value & flag & info [ "mssp" ]
         ~doc:"Also run the compiled program under MSSP and compare.")
  in
  let emit_arg =
    Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"FILE.s"
         ~doc:"Write the generated SIR assembly to a file.")
  in
  let run file mssp emit =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Mssp_minic.Codegen.compile_source source with
    | Error message ->
      Printf.eprintf "%s: %s\n" file message;
      exit 1
    | Ok p ->
      Option.iter (fun out -> Mssp_asm.Emit.save p out) emit;
      let m = Machine.run_program ~fuel:100_000_000 p in
      Printf.printf "sequential: %s, %d instructions\n"
        (match m.Machine.stopped with
        | Some Machine.Halted -> "halted"
        | Some (Machine.Faulted _) -> "FAULT"
        | _ -> "out of fuel")
        m.Machine.instructions;
      Printf.printf "output: %s\n"
        (String.concat ", "
           (List.map string_of_int (Machine.output m.Machine.state)));
      if mssp then begin
        let profile = Profile.collect ~fuel:100_000_000 p in
        let d = Distill.distill p profile in
        let baseline = B.sequential ~also_load:[ d.Distill.distilled ] p in
        let cfg = { Config.default with Config.verify_refinement = true } in
        let r = M.run ~config:cfg d in
        Printf.printf "mssp:   %d cycles vs sequential %d  (speedup %.2f)\n"
          r.M.stats.M.cycles baseline.B.cycles
          (B.speedup ~baseline r.M.stats.M.cycles);
        Printf.printf "        states equal: %b, refinement violations: %d\n"
          (Full.equal_observable baseline.B.state r.M.arch)
          r.M.refinement_violations
      end
  in
  Cmd.v
    (Cmd.info "cc" ~doc:"Compile and run a MiniC program (optionally under MSSP)")
    Term.(const run $ file_arg $ mssp_arg $ emit_arg)

(* --- fuzz --- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
         ~doc:"Campaign seed (the whole campaign is a deterministic function \
               of it).")
  in
  let count_arg =
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N"
         ~doc:"Number of random programs to judge.")
  in
  let size_arg =
    Arg.(value & opt int 0 & info [ "size" ] ~docv:"N"
         ~doc:"Shapes per generated program (0: vary per program).")
  in
  let budget_arg =
    Arg.(value & opt int 500 & info [ "budget" ] ~docv:"N"
         ~doc:"Shrinking budget: oracle evaluations per finding.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
         ~doc:"Write shrunken repros as .s files into $(docv) \
               (e.g. fuzz/corpus).")
  in
  let save_arg =
    Arg.(value & opt int 0 & info [ "save" ] ~docv:"N"
         ~doc:"Also write the first $(docv) passing programs into --out as \
               corpus seed regressions.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-finding progress.")
  in
  let trace_flag =
    Arg.(value & flag & info [ "trace" ]
         ~doc:"Re-run each shrunk witness with the event bus on, write its \
               JSONL event trail beside the repro and fold its squash \
               attribution into the repro's comment (needs --out).")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
         ~doc:"Fan the campaign across $(docv) worker domains as \
               independently seeded shards (shard w runs with seed + w); \
               any parallel finding prints its exact --jobs 1 replay line.")
  in
  let axis_arg =
    let module Driver = Mssp_fuzz.Driver in
    Arg.(value
         & vflag Driver.Standard
             [
               ( Driver.Faults,
                 info [ "faults" ]
                   ~doc:"Program x plan fuzzing: derive an always-absorbable \
                         fault plan from each program seed and judge on the \
                         fault-plan grid instead of the standard one (the \
                         invariant is that the final architected state still \
                         equals SEQ); failing witnesses shrink over both the \
                         program and the plan." );
               ( Driver.Distill,
                 info [ "distill-grid" ]
                   ~doc:"Judge each program on the distiller pass-subset grid \
                         (every pass alone, the empty pipeline, a seed-derived \
                         random subset/order, the adapted candidate) with the \
                         pass-checker on; checker violations are divergences \
                         and failing points dump their per-pass artifacts \
                         under _distill_failures/." );
             ])
  in
  let weights_arg =
    Arg.(value & opt (enum [ ("default", `Default); ("smc-heavy", `Smc_heavy) ])
           `Default
         & info [ "weights" ] ~docv:"PROFILE"
             ~doc:"Program generator shape-weight profile: $(b,default), or \
                   $(b,smc-heavy) — self-modifying code boosted to dominate, \
                   stressing the pre-decoded images and slaves' fetches of \
                   their own buffered code stores with patched words. \
                   Replay lines assume the same profile.")
  in
  let run seed count size budget out save quiet trace jobs axis weights =
    let module Driver = Mssp_fuzz.Driver in
    let module Oracle = Mssp_fuzz.Oracle in
    if trace && out = None then begin
      prerr_endline "fuzz: --trace writes its trails beside the repros; give --out";
      exit 2
    end;
    let log = if quiet then fun _ -> () else print_endline in
    let weights =
      match weights with
      | `Default -> Mssp_fuzz.Gen.default_weights
      | `Smc_heavy -> Mssp_fuzz.Gen.smc_heavy
    in
    let r =
      Driver.campaign ~seed ~count ~size ~shrink_budget:budget ?out ~save
        ~trace ~log ~jobs ~weights ~axis ()
    in
    Printf.printf
      "fuzz: %d programs (%d skipped), %d machine runs compared, %d divergence(s)\n"
      r.Driver.programs r.Driver.skipped r.Driver.runs
      (List.length r.Driver.findings);
    if r.Driver.findings <> [] then begin
      List.iter
        (fun (f : Driver.finding) ->
          Printf.printf "  seed %d: %s%s\n" f.Driver.program_seed
            (String.concat "; "
               (List.map (Format.asprintf "%a" Oracle.pp_failure)
                  f.Driver.failures))
            ((match f.Driver.repro_path with
             | Some p -> Printf.sprintf "  (repro: %s)" p
             | None -> "")
            ^
            match f.Driver.trace_path with
            | Some p -> Printf.sprintf "  (trace: %s)" p
            | None -> ""))
        r.Driver.findings;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs through SEQ, an MSSP config \
          grid and the formal models; failures are shrunk to minimal repros")
    Term.(
      const run $ seed_arg $ count_arg $ size_arg $ budget_arg $ out_arg
      $ save_arg $ quiet_arg $ trace_flag $ jobs_arg $ axis_arg $ weights_arg)

(* --- audit --- *)

let audit_cmd =
  let module Plan = Mssp_faults.Plan in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N"
         ~doc:"Fault-plan PRNG seed (the whole matrix is deterministic in \
               it).")
  in
  let intensities = [ 0.1; 0.5; 1.0 ] in
  let run name size slaves task_size seed =
    let program, d = prepare name size false in
    let baseline = B.sequential ~also_load:[ d.Distill.distilled ] program in
    let base_cfg = config slaves task_size true in
    let clean = M.run ~config:base_cfg d in
    let divergences = ref 0 in
    let cells = ref 0 in
    let cell plan =
      incr cells;
      let r = M.run ~config:{ base_cfg with Config.faults = Some plan } d in
      let survived =
        r.M.stop = M.Halted
        && Full.equal_observable baseline.B.state r.M.arch
        && r.M.refinement_violations = 0
      in
      if survived then
        Printf.sprintf "ok %4df %5.2fx" r.M.stats.M.faults_injected
          (float_of_int r.M.stats.M.cycles
          /. float_of_int (max 1 clean.M.stats.M.cycles))
      else begin
        incr divergences;
        match r.M.stop with
        | M.Halted -> "DIVERGED"
        | stop -> "DIVERGED (" ^ M.stop_string stop ^ ")"
      end
    in
    let surface_row s =
      Plan.surface_name s
      :: List.mapi
           (fun i p -> cell (Plan.make [ Plan.action s ~seed:(seed + i) ~p ]))
           intensities
    in
    let combined_row =
      "combined"
      :: List.map
           (fun p ->
             cell
               (Plan.make
                  (List.mapi
                     (fun k s -> Plan.action s ~seed:(seed + (31 * k)) ~p)
                     Plan.absorbable_surfaces)))
           intensities
    in
    let rows = List.map surface_row Plan.absorbable_surfaces @ [ combined_row ] in
    Printf.printf "resilience audit: %s (size %d), %d slaves, clean %d cycles\n"
      name
      (match size with Some s -> s | None -> (W.find name).W.ref_size)
      slaves clean.M.stats.M.cycles;
    Printf.printf
      "each cell: one fault plan at that intensity; ok = halted, state \
       equals SEQ,\nzero refinement violations (faults count, slowdown vs \
       clean)\n\n";
    print_string
      (Table.render
         ~header:("surface \\ p" :: List.map (Printf.sprintf "%.1f") intensities)
         rows);
    Printf.printf "\nsurvival: %d/%d cells absorbed\n" (!cells - !divergences)
      !cells;
    if !divergences > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Resilience audit: a fault surface x intensity matrix over one \
          benchmark; every cell must be absorbed (final state equals SEQ) \
          or the audit fails")
    Term.(
      const run $ bench_arg $ size_arg $ slaves_arg $ task_size_arg $ seed_arg)

let () =
  let doc = "Master/Slave Speculative Parallelization — reproduction driver" in
  let info = Cmd.info "mssp_sim" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ list_cmd; seq_cmd; distill_cmd; run_cmd; trace_cmd; compare_cmd;
      exec_cmd; cc_cmd; formal_cmd; fuzz_cmd; audit_cmd ]))
