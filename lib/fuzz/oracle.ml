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
  | Adapted
      (** the default passes with feedback for the point's task size
          (the adaptation loop's round 1), pass-checker on *)

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
    "harden"; "drop-stores"; "repair"; "dead-writes"; "boundaries"; "compact";
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
   alone, a seed-derived random subset/order and the adapted candidate
   — all with the pass-checker on, all still required to land on the
   SEQ state. *)
let distill_grid ~seed () =
  let subset name names =
    { name = "passes/" ^ name; distiller = Subset names; config = base_config }
  in
  ({ name = "honest"; distiller = Honest; config = base_config }
  :: subset "none" []
  :: List.map (fun n -> subset n [ n ]) switchable_passes)
  @ [
      subset "random" (random_subset ~seed);
      { name = "adapted"; distiller = Adapted; config = base_config };
    ]

(* The pipeline and options of a point that runs the checked pass
   pipeline; [None] for the other distillers. *)
let checked_pipeline point =
  match point.distiller with
  | Subset names ->
    Some
      (Result.map
         (fun ps -> (ps, Distill.default_options))
         (Distill.resolve names))
  | Adapted ->
    let feedback =
      Some { Distill.fb_target_size = point.config.Config.task_size }
    in
    Some
      (Ok (Distill.default_passes (), { Distill.default_options with feedback }))
  | Honest | Aggressive | Identity | Adversaries | Amnesiac -> None

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

(* Packages are results: a [Subset] or [Adapted] point runs the checked
   pass pipeline and surfaces pass-checker violations as oracle failures
   (the package never reaches the machine in that case). [honest] is the
   program's one default package, shared by every point that needs it:
   the machine and [Adversary.amnesiac] only read a package. *)
let packages ~honest p profile point :
    (string * (Distill.t, string) Result.t) list =
  match point.distiller with
  | Honest -> [ ("", Ok (Lazy.force honest)) ]
  | Aggressive ->
    [ ("", Ok (Distill.distill ~options:aggressive_options p profile)) ]
  | Identity ->
    [ ("", Ok (Distill.distill ~options:Distill.identity_options p profile)) ]
  | Adversaries -> List.map (fun (n, d) -> ("/" ^ n, Ok d)) (Adversary.all p)
  | Amnesiac -> [ ("/amnesiac", Ok (Adversary.amnesiac (Lazy.force honest))) ]
  | Subset _ | Adapted -> (
    match checked_pipeline point with
    | None -> []
    | Some (Error e) -> [ ("", Error e) ]
    | Some (Ok (passes, options)) ->
      let d = Distill.distill ~options ~passes ~check:true p profile in
      if Distill.ok d then [ ("", Ok d) ]
      else [ ("", Error (Mssp_distill.Check.show d.Distill.violations)) ])

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

let check_package ~(seq : Machine.t) point name (d : Distill.t) =
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
  end;
  !fails

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

(* The one walk over a grid: probe the program, profile it, distil the
   honest package lazily, then judge every point's packages in grid
   order. The SEQ reference depends only on the package, so it runs once
   per distinct package: the six [Honest] points share one. Untraced
   ([trace = false]) it judges every package; traced, each run carries a
   recording tracer and the walk stops at the first failing package.
   [Ok (SEQ instructions, runs, failures, first failing package's
   (name, events, failures) when traced)]; [Error] is the skip reason. *)
let walk ~trace ~grid ~fuel p =
  let probe = Machine.run_program ~fuel p in
  match probe.Machine.stopped with
  | Some (Machine.Faulted f) ->
    Error (Format.asprintf "reference run faulted (%a)" Mssp_seq.Exec.pp_fault f)
  | Some Machine.Out_of_fuel | None -> Error "reference run out of fuel"
  | Some Machine.Halted ->
    let profile = Profile.collect ~fuel p in
    let honest = lazy (Distill.distill p profile) in
    let references = ref [] in
    let reference d =
      match List.assq_opt d !references with
      | Some seq -> seq
      | None ->
        let seq = seq_reference ~fuel d in
        references := (d, seq) :: !references;
        seq
    in
    let runs = ref 0 and fails = ref [] in
    let rec points = function
      | [] -> None
      | point :: rest -> entries point rest (packages ~honest p profile point)
    and entries point rest = function
      | [] -> points rest
      | (subname, pkg) :: more -> (
        incr runs;
        let name = point.name ^ subname in
        match pkg with
        | Error e ->
          let f = [ { point = name; reason = "pass-checker: " ^ e } ] in
          (* no machine run to trace: the pass-checker already failed *)
          if trace then Some (name, [], f)
          else begin
            fails := f :: !fails;
            entries point rest more
          end
        | Ok d when not trace ->
          fails := check_package ~seq:(reference d) point name d :: !fails;
          entries point rest more
        | Ok d -> (
          let tracer, events = Mssp_trace.Trace.recording () in
          let traced =
            { point with config = { point.config with Config.tracer = Some tracer } }
          in
          match check_package ~seq:(reference d) traced name d with
          | [] -> entries point rest more
          | f -> Some (name, events (), f)))
    in
    let trail = points grid in
    Ok (probe.Machine.instructions, !runs, List.concat (List.rev !fails), trail)

let check ?(grid = default_grid ()) ?(fuel = 5_000_000) ?(formal = true)
    ?(formal_seed = 1) p =
  match walk ~trace:false ~grid ~fuel p with
  | Error why -> Skipped why
  | Ok (instructions, runs, fails, _) ->
    let fails =
      if formal && instructions <= 150 then
        fails @ formal_failures ~seed:formal_seed p
      else fails
    in
    if fails = [] then Passed runs else Failed fails

let failing ?grid ?fuel p =
  match check ?grid ?fuel ~formal:false p with
  | Failed _ -> true
  | Passed _ | Skipped _ -> false

(* Deterministic, so the traced walk fails exactly like the untraced one
   did: the event trail that explains a (typically already shrunk)
   witness. *)
let trace_failure ?(grid = default_grid ()) ?(fuel = 5_000_000) p =
  match walk ~trace:true ~grid ~fuel p with
  | Ok (_, _, _, trail) -> trail
  | Error _ -> None
