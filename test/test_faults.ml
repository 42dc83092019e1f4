(* The fault-plan subsystem, end to end:
   - plan DSL: absorbability predicate, quiet one-action plans;
   - a quiet action drives the same machine as its loud twin: only its
     Fault events are missing;
   - every absorbable surface at full intensity is absorbed: the run
     halts (no watchdog needed) with final architected state equal to
     SEQ, only stats/cycles move;
   - a compiled-in-but-disabled subsystem changes nothing, nor do the
     no-effect predictor pins: cycles, stats and the full event stream
     are bit-identical, and a plan that never fires costs a fixed
     number of words however long the run;
   - QCheck edges for dual mode: fallback engages exactly at
     [dual_trigger] consecutive squashes, bursts retire at least
     [dual_burst] instructions unless the run ends inside one, and
     degraded runs still satisfy the SEQ refinement oracle. *)

module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Plan = Mssp_faults.Plan
module Trace = Mssp_trace.Trace
module Gen = Mssp_fuzz.Gen
module Oracle = Mssp_fuzz.Oracle
module Dsl = Mssp_asm.Dsl
module Instr = Mssp_isa.Instr
module W = Mssp_workload.Workload
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let distill_of p =
  let profile = Profile.collect p in
  Distill.distill p profile

let seq_reference (d : Distill.t) =
  let s = Full.create () in
  Full.load s d.Distill.original;
  Full.load ~set_entry:false s d.Distill.distilled;
  let m = Machine.of_state s in
  ignore (Machine.run m : Machine.stop);
  m

let checking_config = { Config.default with Config.verify_refinement = true }

let small_program =
  let b = Dsl.create () in
  Dsl.li b t0 200;
  Dsl.li b t1 0;
  Dsl.label b "loop";
  Dsl.alu b Instr.Add t1 t1 t0;
  Dsl.st b t1 zero 9000;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.out b t1;
  Dsl.halt b;
  Dsl.build b ()

(* a loop-carried memory cell, so checkpoints predict a memory live-in
   — the binding [Mem_bit_flip] needs to have something to flip *)
let mem_program =
  let b = Dsl.create () in
  let cell = Dsl.data_words b [ 3 ] in
  Dsl.li b t0 150;
  Dsl.label b "loop";
  Dsl.ld_addr b t1 cell;
  Dsl.alui b Instr.Add t1 t1 5;
  Dsl.st_addr b t1 cell;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.ld_addr b t1 cell;
  Dsl.out b t1;
  Dsl.halt b;
  Dsl.build b ()

let traced_run ~config d =
  let tracer, events = Trace.recording () in
  let r = M.run ~config:{ config with Config.tracer = Some tracer } d in
  (r, events ())

(* --- plan DSL --------------------------------------------------------- *)

let test_plan_dsl () =
  let a = Plan.action Plan.Live_in_corrupt ~seed:1 ~p:2.5 in
  check "p clamped" true (a.Plan.p = 1.0);
  check "not quiet" true (not a.Plan.quiet);
  check "absorbable" true
    (Plan.absorbable (Plan.make [ a ]));
  check "commit corrupt is not absorbable" true
    (not
       (Plan.absorbable
          (Plan.make [ Plan.action Plan.Commit_corrupt ~seed:1 ~p:0.1 ])));
  (match Plan.quiet Plan.Live_in_corrupt ~seed:42 ~p:0.5 with
  | { Plan.actions = [ a ] } ->
    check "quiet surface" true (a.Plan.surface = Plan.Live_in_corrupt);
    check "quiet action" true a.Plan.quiet
  | _ -> Alcotest.fail "quiet: expected one live-in action");
  check "every absorbable surface is a surface" true
    (List.for_all
       (fun s -> List.mem s Plan.all_surfaces)
       Plan.absorbable_surfaces);
  check "commit corrupt excluded from absorbable" true
    (not (List.mem Plan.Commit_corrupt Plan.absorbable_surfaces))

let same_outcome r1 r2 =
  r1.M.stats.M.cycles = r2.M.stats.M.cycles
  && r1.M.stats.M.squashes = r2.M.stats.M.squashes
  && r1.M.stats.M.faults_injected = r2.M.stats.M.faults_injected
  && r1.M.stats.M.tasks_committed = r2.M.stats.M.tasks_committed
  && Full.equal_observable r1.M.arch r2.M.arch

let test_quiet_plan_bit_identical () =
  (* a quiet action and its loud twin are the same machine: cycles,
     stats, final state all bit-equal, and the two event streams differ
     exactly by the loud run's Fault events *)
  let d = distill_of small_program in
  let run plan =
    traced_run ~config:{ checking_config with Config.faults = Some plan } d
  in
  let quiet, ev_quiet = run (Plan.quiet Plan.Live_in_corrupt ~seed:42 ~p:0.7) in
  let loud, ev_loud =
    run (Plan.make [ Plan.action Plan.Live_in_corrupt ~seed:42 ~p:0.7 ])
  in
  let is_fault = function Trace.Fault _ -> true | _ -> false in
  let ev_loud_quieted = List.filter (fun e -> not (is_fault e)) ev_loud in
  check "quiet plan == loud plan" true (same_outcome quiet loud);
  check "faults actually fired" true (quiet.M.stats.M.faults_injected > 0);
  check_int "quiet run emits no Fault event" 0
    (List.length (List.filter is_fault ev_quiet));
  check_int "loud run emits one Fault event per fault"
    loud.M.stats.M.faults_injected
    (List.length (List.filter is_fault ev_loud));
  check "otherwise identical streams" true
    (List.length ev_quiet = List.length ev_loud_quieted
    && List.for_all2 Trace.event_equal ev_quiet ev_loud_quieted)

(* --- per-surface absorption ------------------------------------------- *)

let surface_plan surface = Plan.make [ Plan.action surface ~seed:11 ~p:1.0 ]

let test_surfaces_absorbed () =
  let d = distill_of mem_program in
  let seq = seq_reference d in
  List.iter
    (fun surface ->
      let name = Plan.surface_name surface in
      let cfg =
        { checking_config with Config.faults = Some (surface_plan surface) }
      in
      let r = M.run ~config:cfg d in
      check (name ^ " halted") true (r.M.stop = M.Halted);
      check (name ^ " state equals SEQ") true
        (Full.equal_observable seq.Machine.state r.M.arch);
      check_int (name ^ " refinement") 0 r.M.refinement_violations;
      check (name ^ " fired") true (r.M.stats.M.faults_injected > 0);
      check (name ^ ": caused squashes") true (r.M.stats.M.squashes > 0))
    Plan.absorbable_surfaces

(* --- zero cost when disabled ------------------------------------------ *)

let test_disabled_plan_changes_nothing () =
  (* settings that are compiled in but can never act: a plan whose
     actions never fire (p = 0), and the no-effect predictor pins, set
     as the repo benchmark's adapt leg sets them. Cycles, stats and the
     complete event stream must be bit-identical to a default run — what
     keeps the benchmark's adapt_gain meaningful *)
  let d = distill_of small_program in
  let benign =
    Plan.make
      (List.map
         (fun s -> Plan.action s ~seed:1 ~p:0.0)
         Plan.absorbable_surfaces)
  in
  let off, ev_off = traced_run ~config:Config.default d in
  List.iter
    (fun (name, config) ->
      let on, ev_on = traced_run ~config d in
      check (name ^ ": cycles identical") true
        (off.M.stats.M.cycles = on.M.stats.M.cycles);
      check (name ^ ": stats identical") true
        (off.M.stats = on.M.stats && same_outcome off on);
      check_int (name ^ ": no faults fired") 0 on.M.stats.M.faults_injected;
      check (name ^ ": event streams identical") true
        (List.length ev_off = List.length ev_on
        && List.for_all2 Trace.event_equal ev_off ev_on))
    [
      ("disabled plan", { Config.default with Config.faults = Some benign });
      ( "predictor pins",
        {
          Config.default with
          Config.predict = Mssp_predict.Predict.Tournament;
          predict_seed = 12345;
        } );
    ]

(* The same plan's host cost: building its injector is a fixed number
   of words, and a consultation that does not fire allocates nothing, so
   the plan's extra minor words over no plan are the same for a run
   three times as long. vecsum at 4 slaves, ref size and three times it
   (854 and 2,543 spawns): an injector that allocates per consultation
   adds words with every spawn. *)
let test_disabled_plan_words () =
  let benign =
    Plan.make
      (List.map
         (fun s -> Plan.action s ~seed:1 ~p:0.0)
         Plan.absorbable_surfaces)
  in
  let cfg = Config.with_slaves 4 Config.default in
  let b = W.find "vecsum" in
  let extra size =
    let d = distill_of (b.W.program ~size) in
    let words config =
      let w0 = Gc.minor_words () in
      let r = M.run ~config d in
      (Gc.minor_words () -. w0, r)
    in
    ignore (words cfg : float * M.result);
    let off, r_off = words cfg in
    let on, r_on = words { cfg with Config.faults = Some benign } in
    check "armed p = 0 plan: stats identical, nothing fired" true
      (r_off.M.stats = r_on.M.stats && r_on.M.stats.M.faults_injected = 0);
    (on -. off, r_on.M.stats.M.tasks_spawned)
  in
  let e1, n1 = extra b.W.ref_size and e3, n3 = extra (3 * b.W.ref_size) in
  check
    (Printf.sprintf "%.0f extra words over %d spawns, %.0f over %d (equal)" e1
       n1 e3 n3)
    true
    (e1 = e3 && n3 > n1)

(* --- oracle: program x plan ------------------------------------------- *)

let test_plan_grid_absorbs () =
  (* a handful of generated program x plan pairs through the real
     oracle grid: zero divergences (the nightly fuzz leg at small scale) *)
  let checked = ref 0 in
  for seed = 1 to 8 do
    let p = Gen.generate ~seed ~size:(6 + (seed mod 8)) () in
    let plan = Gen.plan ~seed in
    check (Printf.sprintf "generated plan %d absorbable" seed) true
      (Plan.absorbable plan);
    match Oracle.check ~grid:(Oracle.plan_grid ~plan ()) p with
    | Oracle.Passed _ -> incr checked
    | Oracle.Skipped _ -> ()
    | Oracle.Failed fs ->
      Alcotest.failf "seed %d: plan not absorbed: %s" seed
        (String.concat "; "
           (List.map
              (fun (f : Oracle.failure) -> f.Oracle.point ^ ": " ^ f.Oracle.reason)
              fs))
  done;
  check "most pairs judged" true (!checked >= 5)

let test_oracle_catches_non_absorbable_plan () =
  (* fault-plan mutation smoke: a Commit_corrupt action is a machine
     bug by construction; the plan grid must flag it *)
  let plan =
    Plan.make
      [
        Plan.action Plan.Live_in_corrupt ~seed:9 ~p:0.3;
        Plan.action Plan.Commit_corrupt ~seed:3 ~p:1.0;
      ]
  in
  check "plan is not absorbable" true (not (Plan.absorbable plan));
  let rec find seed =
    if seed > 20 then Alcotest.fail "commit corruption was never caught"
    else
      let p = Gen.generate ~seed ~size:12 () in
      match Oracle.check ~grid:(Oracle.plan_grid ~plan ()) p with
      | Oracle.Failed fs ->
        check "attributed to a plan point" true
          (List.for_all
             (fun (f : Oracle.failure) ->
               f.Oracle.point = "honest-plan" || f.Oracle.point = "plan-dual-mode")
             fs)
      | Oracle.Passed _ | Oracle.Skipped _ -> find (seed + 1)
  in
  find 1

(* --- dual-mode edges (QCheck) ----------------------------------------- *)

let dual_trigger = 3
let dual_burst = 120

let degraded_config =
  {
    checking_config with
    Config.dual_mode = true;
    dual_trigger;
    dual_burst;
    master_chunk = 100_000;
    max_cycles = 100_000_000;
  }

let program_arb =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = 4 + Random.State.int st 12 in
    Gen.generate ~seed ~size ()
  in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source gen

(* squash pressure so the fallback actually trips: corrupted live-ins
   on every spawn *)
let pressure_plan = Plan.make [ Plan.action Plan.Live_in_corrupt ~seed:13 ~p:0.8 ]

let degraded_run p =
  let probe = Machine.run_program ~fuel:2_000_000 p in
  match probe.Machine.stopped with
  | Some Machine.Halted ->
    let d = distill_of p in
    let cfg = { degraded_config with Config.faults = Some pressure_plan } in
    let r, events = traced_run ~config:cfg d in
    if r.M.stop = M.Halted then Some (d, r, events) else None
  | _ -> None

let prop_burst_engages_exactly_at_trigger =
  QCheck.Test.make ~name:"dual mode: burst iff trigger consecutive squashes"
    ~count:25 program_arb (fun p ->
      match degraded_run p with
      | None -> true
      | Some (_, _, events) ->
        (* replay the fruitless-squash counter over the stream: reset on
           Commit, bump on Squash; every Recovery's burst flag must be
           exactly (counter >= trigger) *)
        let c = ref 0 in
        List.for_all
          (function
            | Trace.Commit _ ->
              c := 0;
              true
            | Trace.Squash _ ->
              incr c;
              true
            | Trace.Recovery { burst; _ } -> burst = (!c >= dual_trigger)
            | _ -> true)
          events)

let prop_burst_runs_full_length =
  QCheck.Test.make ~name:"dual mode: bursts retire >= dual_burst instructions"
    ~count:25 program_arb (fun p ->
      match degraded_run p with
      | None -> true
      | Some (_, _, events) ->
        (* a burst may fall short only by halting the program inside it,
           in which case it is the last recovery of the stream *)
        let rec go = function
          | [] -> true
          | Trace.Recovery { burst = true; instructions; _ } :: rest ->
            if instructions >= dual_burst then go rest
            else
              List.for_all
                (function
                  | Trace.Recovery _ | Trace.Commit _ -> false | _ -> true)
                rest
          | _ :: rest -> go rest
        in
        go events)

let prop_degraded_runs_refine_seq =
  QCheck.Test.make ~name:"dual mode: degraded runs satisfy the SEQ oracle"
    ~count:25 program_arb (fun p ->
      match degraded_run p with
      | None -> true
      | Some (d, r, _) ->
        let seq = seq_reference d in
        Full.equal_observable seq.Machine.state r.M.arch
        && r.M.refinement_violations = 0
        && M.total_committed r = seq.Machine.instructions)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "DSL and absorbability" `Quick test_plan_dsl;
          Alcotest.test_case "quiet plan bit-identical" `Quick
            test_quiet_plan_bit_identical;
          Alcotest.test_case "disabled plan changes nothing" `Quick
            test_disabled_plan_changes_nothing;
          Alcotest.test_case "disabled plan words do not grow with the run"
            `Quick test_disabled_plan_words;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "every absorbable surface absorbed" `Quick
            test_surfaces_absorbed;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "plan grid absorbs generated plans" `Slow
            test_plan_grid_absorbs;
          Alcotest.test_case "non-absorbable plan caught" `Quick
            test_oracle_catches_non_absorbable_plan;
        ] );
      ( "dual-mode edges",
        [
          Mssp_testkit.to_alcotest prop_burst_engages_exactly_at_trigger;
          Mssp_testkit.to_alcotest prop_burst_runs_full_length;
          Mssp_testkit.to_alcotest prop_degraded_runs_refine_seq;
        ] );
    ]
