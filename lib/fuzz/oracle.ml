module Full = Mssp_state.Full
module Fragment = Mssp_state.Fragment
module Cell = Mssp_state.Cell
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Adversary = Mssp_workload.Adversary
module Fplan = Mssp_faults.Plan

type failure = { point : string; reason : string }

type verdict =
  | Passed of int
  | Skipped of string
  | Failed of failure list

type distiller =
  | Honest
  | Aggressive
  | Identity
  | Adversaries
  | Amnesiac
  | Subset of string list
      (** run the distiller pass pipeline restricted to exactly these
          passes (in this order) with the pass-checker on: checker
          violations are oracle failures *)

type point = { name : string; distiller : distiller; config : Config.t }

let pp_failure fmt f = Format.fprintf fmt "[%s] %s" f.point f.reason

(* Every grid run keeps the shadow SEQ machine on: any commit or
   recovery that leaves architected state off the sequential trajectory
   is flagged at the step where it happens, not just at the end. *)
let base_config =
  {
    Config.default with
    Config.verify_refinement = true;
    master_chunk = 100_000;
    max_cycles = 500_000_000;
  }

let aggressive_options =
  {
    Distill.default_options with
    Distill.branch_bias_threshold = 0.7;
    min_branch_count = 2;
    promote_stable_loads = true;
    load_stability_threshold = 0.6;
    min_load_count = 2;
    store_comm_distance = 10;
    min_store_count = 2;
  }

(* Live-in soft errors the machine must absorb: verification squashes
   every corrupted task, so only squash rates move. *)
let soft_errors = Fplan.quiet Fplan.Live_in_corrupt ~seed:99 ~p:0.25

let default_grid () =
  let t = base_config.Config.timing in
  [
    { name = "honest"; distiller = Honest; config = base_config };
    {
      name = "honest-1-slave-tiny-tasks";
      distiller = Honest;
      config =
        { base_config with Config.slaves = 1; max_in_flight = 2; task_size = 5 };
    };
    {
      name = "honest-8-slaves-slow-spawn";
      distiller = Honest;
      config =
        {
          (Config.with_slaves 8 base_config) with
          Config.task_budget = 300;
          timing =
            { t with Config.spawn_latency = 60; restart_latency = 120 };
        };
    };
    {
      name = "honest-fault-injection";
      distiller = Honest;
      config = { base_config with Config.faults = Some soft_errors };
    };
    {
      name = "honest-isolated";
      distiller = Honest;
      config = { base_config with Config.isolated_slaves = true };
    };
    {
      name = "honest-control-only";
      distiller = Honest;
      config = { base_config with Config.control_only_master = true };
    };
    { name = "aggressive"; distiller = Aggressive; config = base_config };
    { name = "identity"; distiller = Identity; config = base_config };
    { name = "adversaries"; distiller = Adversaries; config = base_config };
    {
      name = "amnesiac-dual-mode";
      distiller = Amnesiac;
      config = { base_config with Config.dual_mode = true };
    };
  ]

(* --- the pass-subset axis ------------------------------------------ *)

let switchable_passes =
  [
    "harden"; "promote"; "drop-stores"; "repair"; "dead-writes"; "boundaries";
    "compact";
  ]

(* Permutation validity: [compact] consumes the working code, so it goes
   last if present; [repair] prunes what [harden] did, so it follows
   harden directly (anywhere else it is a no-op). Everything else
   commutes freely — and even "invalid" orders would be absorbed; this
   just keeps every generated point meaningful. *)
let valid_order names =
  let without n l = List.filter (fun x -> not (String.equal x n)) l in
  let body = without "repair" (without "compact" names) in
  let body =
    if not (List.mem "repair" names) then body
    else if List.mem "harden" body then
      List.concat_map
        (fun n -> if String.equal n "harden" then [ "harden"; "repair" ] else [ n ])
        body
    else body @ [ "repair" ]
  in
  body @ (if List.mem "compact" names then [ "compact" ] else [])

(* Deterministic subset + permutation from a seed (same LCG family as the
   driver's program seeds). *)
let random_subset ~seed =
  let state = ref (seed lxor 0x9E3779B9) in
  let next () =
    state := (!state * 1103515245) + 12345;
    (!state lsr 7) land 0x3FFFFFFF
  in
  let chosen = List.filter (fun _ -> next () land 1 = 1) switchable_passes in
  let keyed = List.map (fun n -> (next (), n)) chosen in
  valid_order (List.map snd (List.sort compare keyed))

(* The distill grid: honest control, the empty pipeline, every pass
   alone, and a seed-derived random subset/order — all with the
   pass-checker on, all still required to land on the SEQ state. *)
let distill_grid ~seed () =
  let subset name names =
    { name = "passes/" ^ name; distiller = Subset names; config = base_config }
  in
  ({ name = "honest"; distiller = Honest; config = base_config }
  :: subset "none" []
  :: List.map (fun n -> subset n [ n ]) switchable_passes)
  @ [ subset "random" (random_subset ~seed) ]

(* The predictor grid: honest control, every honest predictor mode (off
   included — it must behave exactly like no predictor at all), and the
   tournament under live-in fault injection, where master misses actually
   collapse the incumbent's confidence and overrides fire. Prediction is
   pure speculation guidance: every point must still land bit-identical
   on the SEQ state — only the squash rate may move. *)
let predict_grid ~seed () =
  let pt name mode cfg =
    {
      name = "predict/" ^ name;
      distiller = Honest;
      config =
        { cfg with Config.predict = mode; predict_seed = seed land 0x3FFFFFFF };
    }
  in
  ({ name = "honest"; distiller = Honest; config = base_config }
  :: List.map
       (fun m -> pt (Mssp_predict.Predict.mode_to_string m) m base_config)
       Mssp_predict.Predict.modes)
  @ [
      pt "tournament-faults" Mssp_predict.Predict.Tournament
        { base_config with Config.faults = Some soft_errors };
    ]

(* A deliberately broken pass, alone in its pipeline: the pass-checker
   must fail the point (mirrors [chaos_point] for the commit unit). *)
let broken_pass_point name =
  {
    name = "distill-broken/" ^ name;
    distiller = Subset [ name ];
    config = base_config;
  }

let chaos_point ~seed ~p =
  {
    name = "chaos-commit";
    distiller = Honest;
    config =
      {
        base_config with
        Config.faults = Some (Fplan.quiet Fplan.Commit_corrupt ~seed ~p);
      };
  }

(* Program x plan fuzzing: the plan under a plain machine, and under
   dual mode (squash pressure trips its sequential bursts). The honest
   control point rides along so a program-only divergence is attributed
   to the program, not the plan. *)
let plan_grid ~plan () =
  [
    { name = "honest"; distiller = Honest; config = base_config };
    {
      name = "honest-plan";
      distiller = Honest;
      config = { base_config with Config.faults = Some plan };
    };
    {
      name = "plan-dual-mode";
      distiller = Honest;
      config =
        { base_config with Config.faults = Some plan; dual_mode = true };
    };
  ]

(* Packages are results: a [Subset] point runs the checked pass pipeline
   and surfaces pass-checker violations as oracle failures (the package
   never reaches the machine in that case). *)
let packages p profile point :
    (string * (Distill.t, string) Result.t) list =
  match point.distiller with
  | Honest -> [ ("", Ok (Distill.distill p profile)) ]
  | Aggressive ->
    [ ("", Ok (Distill.distill ~options:aggressive_options p profile)) ]
  | Identity ->
    [ ("", Ok (Distill.distill ~options:Distill.identity_options p profile)) ]
  | Adversaries -> List.map (fun (n, d) -> ("/" ^ n, Ok d)) (Adversary.all p)
  | Amnesiac ->
    [ ("/amnesiac", Ok (Adversary.amnesiac (Distill.distill p profile))) ]
  | Subset names -> (
    match Mssp_distill.Pipeline.resolve names with
    | Error e -> [ ("", Error e) ]
    | Ok passes -> [ ("", Distill.checked ~passes p profile) ])

(* The reference run over the same image MSSP starts from: both the
   original and the (package-specific) distilled program loaded, because
   final states are compared over ALL of observable memory, distilled
   image included. *)
let seq_reference ~fuel (d : Distill.t) =
  let s = Full.create () in
  Full.load s d.Distill.original;
  Full.load ~set_entry:false s d.Distill.distilled;
  let m = Machine.of_state s in
  ignore (Machine.run ~fuel m : Machine.stop);
  m

let check_package ~fuel point subname (d : Distill.t) =
  let name = point.name ^ subname in
  let seq = seq_reference ~fuel d in
  let r = M.run ~config:point.config d in
  let fails = ref [] in
  let fail fmt =
    Printf.ksprintf (fun reason -> fails := { point = name; reason } :: !fails) fmt
  in
  (match r.M.stop with
  | M.Halted -> ()
  | M.Cycle_limit -> fail "machine stopped on the cycle limit"
  | M.Squash_limit -> fail "machine stopped on the squash limit"
  | M.Recovery_fuel -> fail "machine exhausted its recovery fuel"
  | M.Interrupted why ->
    (* no oracle point installs an interrupt hook; seeing one is a bug *)
    fail "machine interrupted (%s) with no interrupt hook armed" why
  | M.Wedged -> fail "machine wedged (event queue drained early)");
  if r.M.stop = M.Halted then begin
    (match Full.diff_observable seq.Machine.state r.M.arch with
    | [] -> ()
    | diffs ->
      let show (c, v1, v2) =
        Printf.sprintf "%s: seq=%d mssp=%d" (Cell.show c) v1 v2
      in
      let first = List.filteri (fun i _ -> i < 3) diffs in
      fail "final state diverges on %d cell(s): %s"
        (List.length diffs)
        (String.concat ", " (List.map show first)));
    if r.M.refinement_violations > 0 then
      fail "%d jumping-refinement violation(s) at commit/recovery"
        r.M.refinement_violations;
    (* stats cross-checks against the reference retirement *)
    let retired = M.total_committed r in
    if retired <> seq.Machine.instructions then
      fail
        "retired instructions inconsistent: %d committed + %d recovery <> %d \
         SEQ"
        r.M.stats.M.instructions_committed r.M.stats.M.recovery_instructions
        seq.Machine.instructions;
    let s = r.M.stats in
    if
      s.M.squashes
      <> s.M.squash_mismatch + s.M.squash_task_failed + s.M.squash_master_dead
    then
      fail "squash reasons do not sum: %d <> %d + %d + %d" s.M.squashes
        s.M.squash_mismatch s.M.squash_task_failed s.M.squash_master_dead;
    if s.M.sequential_instructions > s.M.recovery_instructions then
      fail "sequential-burst instructions (%d) exceed recovery total (%d)"
        s.M.sequential_instructions s.M.recovery_instructions;
    if s.M.tasks_committed > s.M.tasks_spawned then
      fail "more tasks committed (%d) than spawned (%d)" s.M.tasks_committed
        s.M.tasks_spawned;
    if
      point.config.Config.predict = Mssp_predict.Predict.Off
      && s.M.predict_hits + s.M.predict_misses > 0
    then
      fail "prediction outcomes recorded with the predictor off (%d hits, %d misses)"
        s.M.predict_hits s.M.predict_misses;
    if s.M.predict_hits + s.M.predict_misses > s.M.live_ins_checked then
      fail "prediction outcomes (%d) exceed live-ins checked (%d)"
        (s.M.predict_hits + s.M.predict_misses)
        s.M.live_ins_checked
  end;
  !fails

let check_entry ~fuel point (subname, pkg) =
  match pkg with
  | Error e ->
    [ { point = point.name ^ subname; reason = "pass-checker: " ^ e } ]
  | Ok d -> check_package ~fuel point subname d

(* The abstract-model layer. Fragment states replay the whole run per
   [seq] step, so [check] runs it on small programs only. *)
let formal_failures ~seed p =
  let module Seq_model = Mssp_formal.Seq_model in
  let module Abstract_task = Mssp_formal.Abstract_task in
  let module Safety = Mssp_formal.Safety in
  let module Mssp_model = Mssp_formal.Mssp_model in
  let module Refinement = Mssp_formal.Refinement in
  let fails = ref [] in
  let fail point reason = fails := { point; reason } :: !fails in
  let s0 = Seq_model.complete_of_program p in
  let t = Abstract_task.evolve_fully (Abstract_task.make s0 7) in
  if not (Fragment.equal t.Abstract_task.live_out (Seq_model.seq s0 7)) then
    fail "formal/lemma2" "evolved live-out <> seq s0 7";
  if not (Safety.safe (Abstract_task.make s0 5) s0) then
    fail "formal/theorem2" "task unsafe for its own creation state";
  (* absorbability: the statement the distiller pass-checker leans on —
     an in-order committed task chain over the original program lands
     on seq, whatever guidance chose the chain *)
  (match Mssp_formal.Absorb.check p with
  | Ok () -> ()
  | Error e -> fail "formal/absorb" e);
  let rec chain state = function
    | [] -> []
    | n :: rest ->
      Abstract_task.make state n :: chain (Seq_model.seq state n) rest
  in
  let start = Mssp_model.make ~arch:s0 (chain s0 [ 2; 3 ]) in
  let trace = Mssp_model.Search.random_run ~seed ~max_steps:40 start in
  let verdicts = Refinement.check_trace ~bound:10 trace in
  if
    List.exists
      (function Refinement.Violation -> true | _ -> false)
      verdicts
  then fail "formal/refinement" "Violation verdict on a sampled run";
  List.rev !fails

let check ?(grid = default_grid ()) ?(fuel = 5_000_000) ?(formal = true)
    ?(formal_seed = 1) p =
  let probe = Machine.run_program ~fuel p in
  match probe.Machine.stopped with
  | Some (Machine.Faulted f) ->
    Skipped (Format.asprintf "reference run faulted (%a)" Mssp_seq.Exec.pp_fault f)
  | Some Machine.Out_of_fuel | None -> Skipped "reference run out of fuel"
  | Some Machine.Halted ->
    let profile = Profile.collect ~fuel p in
    let runs = ref 0 in
    let fails =
      List.concat_map
        (fun point ->
          List.concat_map
            (fun entry ->
              incr runs;
              check_entry ~fuel point entry)
            (packages p profile point))
        grid
    in
    let fails =
      if formal && probe.Machine.instructions <= 150 then
        fails @ formal_failures ~seed:formal_seed p
      else fails
    in
    if fails = [] then Passed !runs else Failed fails

let failing ?grid ?fuel p =
  match check ?grid ?fuel ~formal:false p with
  | Failed _ -> true
  | Passed _ | Skipped _ -> false

(* Re-run the grid with the event bus on and stop at the first failing
   package: the event trail that explains a (typically already shrunk)
   witness. Deterministic, so the traced re-run fails exactly like the
   untraced one did. *)
let trace_failure ?(grid = default_grid ()) ?(fuel = 5_000_000) p =
  let probe = Machine.run_program ~fuel p in
  match probe.Machine.stopped with
  | Some (Machine.Faulted _) | Some Machine.Out_of_fuel | None -> None
  | Some Machine.Halted ->
    let profile = Profile.collect ~fuel p in
    let rec points = function
      | [] -> None
      | point :: rest ->
        let rec pkgs = function
          | [] -> points rest
          | (subname, Error e) :: _ ->
            (* no machine run to trace: the pass-checker already failed *)
            Some
              ( point.name ^ subname,
                [],
                [
                  {
                    point = point.name ^ subname;
                    reason = "pass-checker: " ^ e;
                  };
                ] )
          | (subname, Ok d) :: more -> (
            let tracer, events = Mssp_trace.Trace.recording () in
            let traced =
              {
                point with
                config = { point.config with Config.tracer = Some tracer };
              }
            in
            match check_package ~fuel traced subname d with
            | [] -> pkgs more
            | fails -> Some (point.name ^ subname, events (), fails))
        in
        pkgs (packages p profile point)
    in
    points grid
