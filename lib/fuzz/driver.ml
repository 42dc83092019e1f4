module Wl_util = Mssp_workload.Wl_util
module Fplan = Mssp_faults.Plan
module Summary = Mssp_trace.Trace.Summary

type axis = Standard | Faults | Distill

type finding = {
  program_seed : int;
  program : Mssp_isa.Program.t;
  shrunk : Mssp_isa.Program.t;
  plan : Fplan.t option;
  failures : Oracle.failure list;
  repro_path : string option;
  trace_path : string option;
}

type report = {
  programs : int;
  skipped : int;
  runs : int;
  findings : finding list;
}

(* a traced run's squash attribution, for repro comments *)
let attribution (s : Summary.t) =
  Printf.sprintf
    "%d committed, %d squashed (bad-prediction %d, task-failed %d, \
     master-dead %d)"
    s.commits s.squashes (Summary.squash_mismatch s)
    (Summary.squash_task_failed s) (Summary.squash_master_dead s)

(* On a distill-grid failure, dump the checked pipeline's diffable
   artifacts (per-pass disassembly diff + pipeline.json) for every
   failing pass-subset or adapted point of the shrunk witness — the
   distiller counterpart of _trace_failures/, and what CI uploads. *)
let dump_distill_artifacts ?fuel ~log shrunk grid failures =
  let dir = "_distill_failures" in
  let failed (pt : Oracle.point) =
    List.exists
      (fun (f : Oracle.failure) -> String.equal f.Oracle.point pt.Oracle.name)
      failures
  in
  let profile =
    Mssp_profile.Profile.collect ?fuel shrunk
  in
  List.iter
    (fun (pt : Oracle.point) ->
      match Oracle.checked_pipeline pt with
      | Some (Ok (passes, options)) when failed pt ->
        let d =
          Mssp_distill.Distill.distill ~check:true ~options ~passes shrunk
            profile
        in
        let sub =
          Filename.concat dir
            (String.map (fun c -> if c = '/' then '-' else c) pt.Oracle.name)
        in
        let files = Mssp_distill.Distill.dump ~dir:sub d in
        log
          (Printf.sprintf "  wrote %d pass artifact(s) under %s"
             (List.length files) sub)
      | _ -> ())
    grid

let run_serial ?grid ?fuel ?weights ~axis ~size ~shrink_budget ~out ~save
    ~trace ~log ~seed ~count () =
  let rng = Wl_util.lcg (seed lxor 0x6C078965) in
  let skipped = ref 0 in
  let runs = ref 0 in
  let saved = ref 0 in
  let findings = ref [] in
  for i = 0 to count - 1 do
    let program_seed = (rng () lxor i) land 0x3FFFFFFF in
    let sz = if size > 0 then size else 6 + (program_seed mod 19) in
    let p = Gen.generate ?weights ~seed:program_seed ~size:sz () in
    (* Every axis grid is a function of the program seed, so the
       one-line replay (seed -> program + grid) still holds: the fault
       plan of program x plan fuzzing, the distill grid's random pass
       subset. *)
    let plan0, grid =
      match axis with
      | Standard -> (None, grid)
      | Faults ->
        let plan = Gen.plan ~seed:program_seed in
        (Some plan, Some (Oracle.plan_grid ~plan ()))
      | Distill -> (None, Some (Oracle.distill_grid ~seed:program_seed ()))
    in
    match Oracle.check ?grid ?fuel ~formal_seed:program_seed p with
    | Oracle.Passed n ->
      runs := !runs + n;
      if !saved < save then
        Option.iter
          (fun dir ->
            incr saved;
            let comment =
              [
                Printf.sprintf
                  "mssp fuzz corpus seed (campaign seed %d, program seed %d)"
                  seed program_seed;
                Printf.sprintf "passed %d machine runs when generated" n;
              ]
            in
            let name = Printf.sprintf "seed%03d_s%d" i program_seed in
            let path = Corpus.save ~dir ~name ~comment p in
            log (Printf.sprintf "program %d (seed %d): saved seed %s" i
                   program_seed path))
          out
    | Oracle.Skipped reason ->
      incr skipped;
      log (Printf.sprintf "program %d (seed %d): skipped — %s" i program_seed
             reason)
    | Oracle.Failed failures ->
      log
        (Printf.sprintf "program %d (seed %d): DIVERGENCE — %s" i program_seed
           (String.concat "; "
              (List.map (Format.asprintf "%a" Oracle.pp_failure) failures)));
      let shrunk, shrunk_plan =
        match plan0 with
        | None ->
          ( Shrink.minimize ~budget:shrink_budget
              ~failing:(Oracle.failing ?grid ?fuel)
              p,
            None )
        | Some pl ->
          (* shrink over BOTH coordinates: the witness is a program x
             plan pair, and either side alone may be reducible *)
          let s, sp =
            Shrink.minimize_pair ~budget:shrink_budget
              ~failing:(fun prog c ->
                Oracle.failing ~grid:(Oracle.plan_grid ~plan:c ()) ?fuel prog)
              (p, pl)
          in
          (s, Some sp)
      in
      log
        (Printf.sprintf "  shrunk %d -> %d instructions%s"
           (Shrink.instructions p) (Shrink.instructions shrunk)
           (match (plan0, shrunk_plan) with
           | Some pl, Some sp ->
             Printf.sprintf ", plan %.1f -> %.1f" (Shrink.plan_weight pl)
               (Shrink.plan_weight sp)
           | _ -> ""));
      let grid =
        match shrunk_plan with
        | Some sp -> Some (Oracle.plan_grid ~plan:sp ())
        | None -> grid
      in
      if axis = Distill then
        Option.iter
          (fun g -> dump_distill_artifacts ?fuel ~log shrunk g failures)
          grid;
      (* with tracing on, re-run the shrunk witness under the event bus:
         the trail that explains the divergence ships with the repro *)
      let traced =
        if trace then Oracle.trace_failure ?grid ?fuel shrunk else None
      in
      let repro_path =
        Option.map
          (fun dir ->
            let attribution =
              match traced with
              | None -> []
              | Some (tpoint, events, _) ->
                [
                  Printf.sprintf "trace [%s]: %s" tpoint
                    (attribution (Summary.of_events events));
                ]
            in
            let comment =
              [
                Printf.sprintf "mssp fuzz repro (campaign seed %d, program seed %d)"
                  seed program_seed;
                Printf.sprintf "shrunk from %d to %d instructions"
                  (Shrink.instructions p) (Shrink.instructions shrunk);
              ]
              @ (match shrunk_plan with
                | None -> []
                | Some sp ->
                  [
                    Printf.sprintf "fault plan (shrunk): %s"
                      (Fplan.to_string sp);
                  ])
              @ List.map
                  (fun (f : Oracle.failure) ->
                    Printf.sprintf "diverged at [%s]: %s" f.Oracle.point
                      f.Oracle.reason)
                  failures
              @ attribution
            in
            let name = Printf.sprintf "repro_seed%d" program_seed in
            Corpus.save ~dir ~name ~comment shrunk)
          out
      in
      Option.iter (fun path -> log (Printf.sprintf "  wrote %s" path)) repro_path;
      let trace_path =
        match (traced, repro_path) with
        | Some (_, events, _), Some repro ->
          let path = Filename.remove_extension repro ^ ".trace.jsonl" in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc
                (Mssp_trace.Trace.to_jsonl events));
          log (Printf.sprintf "  wrote %s" path);
          Some path
        | _ -> None
      in
      findings :=
        {
          program_seed;
          program = p;
          shrunk;
          plan = shrunk_plan;
          failures;
          repro_path;
          trace_path;
        }
        :: !findings
  done;
  {
    programs = count;
    skipped = !skipped;
    runs = !runs;
    findings = List.rev !findings;
  }

let campaign ?grid ?fuel ?weights ?(axis = Standard) ?(size = 0)
    ?(shrink_budget = 500) ?out ?(save = 0) ?(trace = false)
    ?(log = fun _ -> ()) ?(jobs = 1) ~seed ~count () =
  if jobs <= 1 || count <= 1 then
    run_serial ?grid ?fuel ?weights ~axis ~size ~shrink_budget ~out ~save
      ~trace ~log ~seed ~count ()
  else begin
    let jobs = min jobs count in
    (* Each shard is an independent serial campaign seeded with the
       campaign seed + the shard (worker) index, so a parallel-found
       divergence replays exactly, alone, with
       `fuzz --jobs 1 --seed <seed+w> --count <shard count>` — and its
       one-line program seed means the usual single-program replay works
       too. Shard logs are buffered on the worker and emitted here in
       shard order: the output is deterministic whatever the host
       interleaving. Corpus saves go through shard 0 only, keeping the
       "first N passing programs" contract meaningful. *)
    let base = count / jobs and extra = count mod jobs in
    let shards =
      List.init jobs (fun w -> (w, base + if w < extra then 1 else 0))
    in
    let results =
      Mssp_exec.Pool.map_runs ~jobs
        (fun (w, cw) ->
          let buf = Buffer.create 256 in
          let shard_log line =
            Buffer.add_string buf line;
            Buffer.add_char buf '\n'
          in
          let r =
            run_serial ?grid ?fuel ?weights ~axis ~size ~shrink_budget ~out
              ~save:(if w = 0 then save else 0)
              ~trace ~log:shard_log ~seed:(seed + w) ~count:cw ()
          in
          (w, cw, Buffer.contents buf, r))
        shards
    in
    List.fold_left
      (fun acc (w, cw, logs, (r : report)) ->
        List.iter
          (fun line ->
            if line <> "" then log (Printf.sprintf "[shard %d] %s" w line))
          (String.split_on_char '\n' logs);
        if r.findings <> [] then
          log
            (Printf.sprintf
               "[shard %d] replay: mssp_sim fuzz%s --seed %d --count %d --jobs 1"
               w
               (match axis with
               | Standard -> ""
               | Faults -> " --faults"
               | Distill -> " --distill-grid")
               (seed + w) cw);
        {
          programs = acc.programs + r.programs;
          skipped = acc.skipped + r.skipped;
          runs = acc.runs + r.runs;
          findings = acc.findings @ r.findings;
        })
      { programs = 0; skipped = 0; runs = 0; findings = [] }
      results
  end
