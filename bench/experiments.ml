(** The evaluation: one function per paper table/figure (see DESIGN.md's
    experiment index and EXPERIMENTS.md for paper-vs-measured). Every
    experiment re-verifies end-state equivalence with SEQ before
    printing performance numbers. *)

open Harness
module Adversary = Mssp_workload.Adversary
module Gen = Mssp_fuzz.Gen
module Fragment = Mssp_state.Fragment
module Cell = Mssp_state.Cell
module Seq_model = Mssp_formal.Seq_model
module Abstract_task = Mssp_formal.Abstract_task
module Safety = Mssp_formal.Safety
module Mssp_model = Mssp_formal.Mssp_model
module Refinement = Mssp_formal.Refinement
module Frag_exec = Mssp_seq.Frag_exec
module Adapt = Mssp_core.Mssp_adapt

let suite () = List.map (fun b -> prepare b) W.all

(* regroup a flat [checked_runs] result list back into the per-row
   shape an experiment's table wants *)
let rec chunk k = function
  | [] -> []
  | l ->
    let rec take n = function
      | x :: tl when n > 0 ->
        let hd, rest = take (n - 1) tl in
        (x :: hd, rest)
      | rest -> ([], rest)
    in
    let hd, rest = take k l in
    hd :: chunk k rest

(* --- E1: MSSP speedup over the sequential baseline ------------------- *)

let e1_slave_counts = [ 1; 2; 4; 8 ]

(* the full E1 grid — every benchmark at every slave count — as
   (prepared, config) points for [checked_runs]; POOLG times this same
   grid at two host job counts *)
let e1_points prepared =
  List.concat_map
    (fun p -> List.map (fun n -> (p, with_slaves n)) e1_slave_counts)
    prepared

let e1 () =
  section "E1  Speedup over sequential baseline (MICRO'02 headline figure)";
  let prepared = suite () in
  let slave_counts = e1_slave_counts in
  let runs = chunk (List.length slave_counts) (checked_runs (e1_points prepared)) in
  let results =
    List.map2
      (fun p rs -> (p, List.map (fun r -> speedup p r) rs))
      prepared runs
  in
  print_table
    ~header:([ "benchmark" ] @ List.map (fun n -> Printf.sprintf "%d slaves" n) slave_counts)
    (List.map
       (fun (p, speedups) -> p.bench.W.name :: List.map f2 speedups)
       results
    @ [
        "geomean"
        :: List.mapi
             (fun i _ ->
               f2 (Stats.geomean (List.map (fun (_, s) -> List.nth s i) results)))
             slave_counts;
      ]);
  let geo8 =
    Stats.geomean (List.map (fun (_, s) -> List.nth s 3) results)
  in
  note "paper shape: geomean speedup in the 1.2-1.7 band at 8 processors,";
  note "rising with slave count and saturating once the master is the";
  note "bottleneck. measured geomean at 8 slaves: %s" (f2 geo8)

(* --- E2: distillation effectiveness ---------------------------------- *)

let e2 () =
  section "E2  Distillation: static and dynamic reduction";
  let prepared = suite () in
  let runs = checked_runs (List.map (fun p -> (p, Config.default)) prepared) in
  let rows =
    List.map2
      (fun p r ->
        let s = p.distilled.Distill.stats in
        (* measured dynamic ratio: original instructions retired per
           master instruction executed *)
        let measured =
          float_of_int (M.total_committed r)
          /. float_of_int (max 1 r.M.stats.M.master_instructions)
        in
        [
          p.bench.W.name;
          fi s.Distill.original_static;
          fi s.Distill.distilled_static;
          f2 (Distill.static_ratio s);
          f2 (Distill.dynamic_ratio s);
          f2 measured;
          fi s.Distill.branches_hardened;
          fi s.Distill.stores_removed;
          fi s.Distill.dead_writes_removed;
        ])
      prepared runs
  in
  print_table
    ~header:
      [
        "benchmark"; "stat orig"; "stat dist"; "stat x"; "est dyn x";
        "meas dyn x"; "hardened"; "st rm"; "dw rm";
      ]
    rows;
  note "paper shape: distilled programs run a sizable factor shorter";
  note "dynamically (the paper reports ~2x on SPEC); the reduction comes";
  note "from branch hardening plus the dead/non-communicating code it";
  note "exposes. training/reference input mismatch keeps ratios honest."

(* --- E3: task-size sensitivity --------------------------------------- *)

let e3 () =
  section "E3  Speedup vs task size (knob: master instructions/checkpoint)";
  let names = [ "vecsum"; "branchy"; "qsort" ] in
  let prepared = List.map (fun n -> prepare (W.find n)) names in
  let sizes = [ 10; 25; 50; 100; 200; 400 ] in
  let cfg_of ts = { (with_slaves 8) with Config.task_size = ts } in
  let grid =
    checked_runs
      (List.concat_map
         (fun ts -> List.map (fun p -> (p, cfg_of ts)) prepared)
         sizes)
  in
  let rows =
    List.map2
      (fun ts runs ->
        let speedups = List.map2 (fun p r -> speedup p r) prepared runs in
        let mean_task = Stats.mean (List.map M.mean_task_size runs) in
        fi ts :: f2 (Stats.geomean speedups) :: f2 mean_task
        :: List.map f2 speedups)
      sizes
      (chunk (List.length prepared) grid)
  in
  print_table
    ~header:([ "task size"; "geomean"; "mean instrs" ] @ names)
    rows;
  note "paper shape: an interior optimum — tiny tasks drown in spawn and";
  note "verify overhead, huge tasks lose pipelining and pay more per";
  note "squash. the geomean column should rise then fall (or flatten)."

(* --- E4: distillation aggressiveness vs squashes --------------------- *)

let e4 () =
  section "E4  Aggressiveness sweep: bias threshold vs squashes and speedup";
  let names = [ "branchy"; "hashbuild"; "strmatch" ] in
  let settings =
    [
      ("off", 2.0);
      ("0.999", 0.999);
      ("0.98", 0.98);
      ("0.90", 0.90);
      ("0.80", 0.80);
    ]
  in
  let rows =
    List.map
      (fun (label, threshold) ->
        let options =
          {
            Distill.default_options with
            Distill.branch_bias_threshold = threshold;
          }
        in
        let prepared = List.map (fun n -> prepare ~options (W.find n)) names in
        let runs =
          checked_runs (List.map (fun p -> (p, with_slaves 4)) prepared)
        in
        let geo = Stats.geomean (List.map2 (fun p r -> speedup p r) prepared runs) in
        let squash_rate = Stats.mean (List.map M.squash_rate runs) in
        let dyn =
          Stats.geomean
            (List.map
               (fun p -> Distill.dynamic_ratio p.distilled.Distill.stats)
               prepared)
        in
        [ label; f2 dyn; f2 (1000.0 *. squash_rate); f2 geo ])
      settings
  in
  print_table ~header:[ "hardening"; "dyn ratio"; "squash/1k"; "speedup" ] rows;
  note "paper shape: more aggressive distillation shortens the master's";
  note "program (dyn ratio up) but mispredicts more (squash rate up);";
  note "speedup peaks at an interior setting. correctness never moves.";
  note "(verified against SEQ at every setting above.)"

(* --- E5: latency sensitivity ----------------------------------------- *)

let e5 () =
  section "E5  Sensitivity to spawn/verify/commit latency";
  let names = [ "vecsum"; "qsort"; "treesum" ] in
  let prepared = List.map (fun n -> prepare (W.find n)) names in
  let sweeps = [ 1; 10; 50; 100; 200 ] in
  let cfg_of lat =
    let timing =
      {
        Config.default_timing with
        Config.spawn_latency = lat;
        verify_base = lat / 2;
        commit_base = lat / 2;
        restart_latency = lat;
      }
    in
    { (with_slaves 8) with Config.timing = timing }
  in
  let grid =
    checked_runs
      (List.concat_map
         (fun lat -> List.map (fun p -> (p, cfg_of lat)) prepared)
         sweeps)
  in
  let rows =
    List.map2
      (fun lat runs ->
        let speedups = List.map2 (fun p r -> speedup p r) prepared runs in
        fi lat :: f2 (Stats.geomean speedups) :: List.map f2 speedups)
      sweeps
      (chunk (List.length prepared) grid)
  in
  print_table ~header:([ "latency"; "geomean" ] @ names) rows;
  note "paper shape: MSSP tolerates checkpoint/commit latency well — it";
  note "is off the critical path while the master stays ahead — so the";
  note "curve degrades gently rather than collapsing."

(* --- E6: task population and live-ins -------------------------------- *)

let e6 () =
  section "E6  Task population: sizes, live-ins, utilization";
  let cfg = with_slaves 4 in
  let prepared = suite () in
  let runs = checked_runs (List.map (fun p -> (p, cfg)) prepared) in
  let rows =
    List.map2
      (fun p r ->
        let sizes = Stats.of_ints r.M.stats.M.task_sizes in
        [
          p.bench.W.name;
          fi r.M.stats.M.tasks_committed;
          fi r.M.stats.M.squashes;
          f2 (M.mean_task_size r);
          f2 (Stats.median sizes);
          f2 (M.mean_live_ins r);
          f2 (M.slave_occupancy r ~config:cfg);
          f2
            (float_of_int r.M.stats.M.recovery_instructions
            /. float_of_int (max 1 (M.total_committed r)));
        ])
      prepared runs
  in
  print_table
    ~header:
      [
        "benchmark"; "tasks"; "squashes"; "mean size"; "median"; "live-ins";
        "occupancy"; "rec frac";
      ]
    rows;
  note "paper shape: tasks of tens-to-hundreds of instructions with a few";
  note "dozen live-ins each; squashes rare; most retirement flows through";
  note "tasks (rec frac near 0) except where I/O or hard control flow";
  note "forces recovery.";
  (* the distribution figure, for one regular and one irregular code *)
  List.iter
    (fun name ->
      let p = prepare (W.find name) in
      let r = checked_run ~config:(with_slaves 4) p in
      let sizes = Stats.of_ints r.M.stats.M.task_sizes in
      Printf.printf "\n  committed task-size distribution, %s:\n" name;
      print_string
        (Table.render_series ~x_label:"size bin" ~y_label:"tasks"
           (List.map
              (fun (lo, hi, count) ->
                (Printf.sprintf "%.0f-%.0f" lo hi, float_of_int count))
              (Stats.histogram ~bins:8 sizes))))
    [ "vecsum"; "qsort" ]

(* --- E7: commit-order independence (companion Lemma 1 / Thm 1) ------- *)

let e7 () =
  section "E7  Commit order affects efficiency, never correctness (Lemma 1/Thm 1)";
  let trials = 40 in
  let full_commits = ref 0 in
  let partial_commits = ref 0 in
  let wrong_states = ref 0 in
  for seed = 1 to trials do
    let p = Gen.generate ~weights:Gen.plain ~seed ~size:8 () in
    let s0 = Seq_model.complete_of_program p in
    (* a chain of consecutive tasks + one junk task *)
    let lens = [ 2; 3; 2 ] in
    let rec chain state = function
      | [] -> []
      | n :: rest -> Abstract_task.make state n :: chain (Seq_model.seq state n) rest
    in
    let junk =
      {
        Abstract_task.live_in = Fragment.of_list [ (Cell.Pc, -1) ];
        n = 1;
        live_out = Fragment.of_list [ (Cell.Pc, -1) ];
        k = 1;
      }
    in
    let tasks = junk :: chain s0 lens in
    let start = Mssp_model.make ~arch:s0 tasks in
    let trace = Mssp_model.Search.random_run ~seed:(seed * 31) ~max_steps:60 start in
    let final = List.nth trace (List.length trace - 1) in
    (* final arch must be seq(s0, k) for some k *)
    let arch = final.Mssp_model.arch in
    let rec is_seq_state s k =
      if k > 10 then false
      else if Fragment.equal s arch then true
      else is_seq_state (Seq_model.next s) (k + 1)
    in
    if not (is_seq_state s0 0) then incr wrong_states
    else if Fragment.equal arch (Seq_model.seq s0 7) then incr full_commits
    else incr partial_commits
  done;
  print_table
    ~header:[ "outcome"; "count" ]
    [
      [ "committed the whole safe chain"; fi !full_commits ];
      [ "partial commit (discarded rest)"; fi !partial_commits ];
      [ "non-SEQ final state"; fi !wrong_states ];
    ];
  note "paper claim: every MSSP execution lands on a SEQ state; a poor";
  note "commit order can only shorten how far it gets. non-SEQ final";
  note "states measured: %d (must be 0)." !wrong_states;
  if !wrong_states > 0 then failwith "E7: correctness violation"

(* --- E8: Theorem 2 instances ------------------------------------------ *)

let e8 () =
  section "E8  Consistency + completeness => task safety (Theorem 2)";
  let trials = 60 in
  let premise_and_safe = ref 0 in
  let premise_not_safe = ref 0 in
  let corrupted_caught = ref 0 in
  let corrupted_missed = ref 0 in
  for seed = 1 to trials do
    let p = Gen.generate ~weights:Gen.plain ~seed ~size:6 () in
    let s = Seq_model.complete_of_program p in
    let n = 3 + (seed mod 12) in
    let s_mid = Seq_model.seq s (seed mod 5) in
    (* minimal live-in: cells read over the n steps *)
    let needed =
      let rec go frag k acc =
        if k = 0 then acc
        else
          match (Frag_exec.reads1 frag, Frag_exec.next frag) with
          | Ok reads, Ok frag' -> go frag' (k - 1) (Cell.Set.union acc reads)
          | _, Error _ | Error _, _ -> acc
      in
      go s_mid n Cell.Set.empty
    in
    let li =
      Cell.Set.fold
        (fun c acc ->
          match Fragment.find_opt c s_mid with
          | Some v -> Fragment.add c v acc
          | None -> acc)
        needed Fragment.empty
    in
    let t = Abstract_task.make li n in
    if Safety.consistent_and_complete t s_mid then
      if Safety.safe t s_mid then incr premise_and_safe else incr premise_not_safe;
    (* corrupt a consumed live-in (pc always is one) *)
    let bad = Abstract_task.make (Fragment.add Cell.Pc (-99) li) n in
    if Safety.consistent_and_complete bad s_mid then incr corrupted_missed
    else incr corrupted_caught
  done;
  print_table
    ~header:[ "case"; "count" ]
    [
      [ "premises hold and task is safe"; fi !premise_and_safe ];
      [ "premises hold but task UNSAFE (Thm 2 violation)"; fi !premise_not_safe ];
      [ "corrupted live-in rejected by the checks"; fi !corrupted_caught ];
      [ "corrupted live-in accepted (check failure)"; fi !corrupted_missed ];
    ];
  if !premise_not_safe > 0 then failwith "E8: Theorem 2 violation";
  if !corrupted_missed > 0 then failwith "E8: verification check missed corruption";
  note "Theorem 2 held on every instance: the two hardware-feasible";
  note "checks (live-ins consistent with architected state; prediction";
  note "complete for the task's length) imply safety."

(* --- E9: jumping refinement ------------------------------------------ *)

let e9 () =
  section "E9  Jumping refinement: MSSP projects onto SEQ (Definition 1)";
  (* machine level: the shadow checker re-verifies every commit *)
  let machine_rows =
    let cfg = { (with_slaves 4) with Config.verify_refinement = true } in
    let prepared = suite () in
    let runs = checked_runs (List.map (fun p -> (p, cfg)) prepared) in
    List.map2
      (fun p r ->
        [
          p.bench.W.name;
          fi r.M.stats.M.tasks_committed;
          fi r.M.stats.M.recovery_segments;
          fi r.M.refinement_violations;
        ])
      prepared runs
  in
  print_table
    ~header:[ "benchmark"; "jumps (commits)"; "recoveries"; "violations" ]
    machine_rows;
  (* abstract level: classify sampled runs *)
  let energy = ref 0 and jumps = ref 0 and violations = ref 0 in
  for seed = 1 to 30 do
    let p = Gen.generate ~weights:Gen.plain ~seed ~size:6 () in
    let s0 = Seq_model.complete_of_program p in
    let rec chain state = function
      | [] -> []
      | n :: rest -> Abstract_task.make state n :: chain (Seq_model.seq state n) rest
    in
    let start = Mssp_model.make ~arch:s0 (chain s0 [ 2; 3 ]) in
    let trace = Mssp_model.Search.random_run ~seed ~max_steps:50 start in
    List.iter
      (function
        | Refinement.Energy -> incr energy
        | Refinement.Jump _ -> incr jumps
        | Refinement.Violation -> incr violations)
      (Refinement.check_trace ~bound:12 trace)
  done;
  print_table
    ~header:[ "abstract-model steps"; "count" ]
    [
      [ "energy-accumulating (ψ unchanged)"; fi !energy ];
      [ "jumping (ψ advances by #t)"; fi !jumps ];
      [ "violations"; fi !violations ];
    ];
  if !violations > 0 then failwith "E9: refinement violation";
  note "every machine commit and every abstract transition projected";
  note "onto a SEQ transition sequence: MSSP is a jumping ψ-refinement";
  note "of the sequential model."

(* --- E10: adversarial masters ----------------------------------------- *)

let e10 () =
  section "E10  Correctness is independent of the master (decoupling)";
  let names = [ "vecsum"; "branchy"; "qsort" ] in
  let rows =
    List.concat_map
      (fun name ->
        let bench = W.find name in
        let p = prepare ~scale:0.5 bench in
        let honest = checked_run ~config:(with_slaves 4) p in
        let honest_speedup = speedup p honest in
        List.map
          (fun (adv_name, d) ->
            let cfg =
              {
                (with_slaves 4) with
                Config.master_chunk = 100_000;
                verify_refinement = true;
              }
            in
            let r = M.run ~config:cfg d in
            (* reference with THIS adversary's distilled image in memory,
               so the memory images are comparable *)
            let reference =
              B.sequential ~also_load:[ d.Distill.distilled ] p.program
            in
            let ok =
              r.M.stop = M.Halted
              && Mssp_state.Full.equal_observable reference.B.state r.M.arch
              && r.M.refinement_violations = 0
            in
            if not ok then failwith ("E10: " ^ name ^ "/" ^ adv_name ^ " broke correctness");
            [
              name;
              adv_name;
              "yes";
              f2 (speedup p r);
              f2 honest_speedup;
            ])
          (Adversary.all p.program))
      names
  in
  print_table
    ~header:[ "benchmark"; "master"; "correct?"; "speedup"; "honest speedup" ]
    rows;
  note "paper claim (the point of the paradigm): garbage, lying, dead or";
  note "spinning masters change only performance — never the final state.";
  note "verified against SEQ for every cell of every run above."

(* --- E11: ablation ----------------------------------------------------- *)

let e11 () =
  section "E11  Where the speedup comes from: ablation";
  let cfg = with_slaves 8 in
  let pairs =
    List.map
      (fun b -> (prepare b, prepare ~options:Distill.identity_options b))
      W.all
  in
  let runs =
    chunk 2
      (checked_runs
         (List.concat_map
            (fun (full, nodistill) -> [ (full, cfg); (nodistill, cfg) ])
            pairs))
  in
  let rows =
    List.map2
      (fun (full, nodistill) rs ->
        let r_full, r_nod =
          match rs with [ a; b ] -> (a, b) | _ -> assert false
        in
        let oracle = B.oracle_parallel ~slaves:8 full.program in
        [
          full.bench.W.name;
          f2 (speedup full r_full);
          f2 (speedup nodistill r_nod);
          f2 (B.speedup ~baseline:full.baseline oracle.B.cycles);
        ])
      pairs runs
  in
  print_table
    ~header:[ "benchmark"; "MSSP"; "no-distill master"; "oracle parallel" ]
    rows;
  note "paper shape: without distillation the master replays the whole";
  note "program and speedup collapses toward (or below) 1 — distillation";
  note "is what buys the master its lead. the oracle column is the";
  note "perfect-prediction ceiling a limit study would report."

(* --- E12: non-idempotent I/O ------------------------------------------ *)

let e12 () =
  section "E12  Memory-mapped I/O forces non-speculative execution (paper §7)";
  let p = prepare W.io_bench in
  let cfg = { (with_slaves 4) with Config.verify_refinement = true } in
  let r = checked_run ~config:cfg p in
  (* I/O region byte-for-byte identical to SEQ *)
  let io_ok = ref true in
  for i = 0 to 15 do
    let a = Mssp_isa.Layout.io_base + i in
    if Full.get_mem p.baseline.B.state a <> Full.get_mem r.M.arch a then
      io_ok := false
  done;
  print_table
    ~header:[ "metric"; "value" ]
    [
      [ "I/O region identical to SEQ"; (if !io_ok then "yes" else "NO") ];
      [ "refinement violations"; fi r.M.refinement_violations ];
      [ "I/O-refusal squashes"; fi r.M.stats.M.squash_task_failed ];
      [ "recovery instructions"; fi r.M.stats.M.recovery_instructions ];
      [ "speedup"; f2 (speedup p r) ];
    ];
  if not !io_ok then failwith "E12: I/O region diverged";
  note "speculative tasks refuse to touch the I/O region; each access";
  note "re-executes in program order during non-speculative recovery, so";
  note "device writes happen exactly once, in order — at a speedup cost";
  note "on I/O-dense phases (the paper's §7 task-boundary discipline)."

(* --- E13: dual-mode fallback (forward-progress floor) ----------------- *)

let e13 () =
  section "E13  Dual-mode fallback: the >=1x floor under hopeless masters";
  let names = [ "vecsum"; "branchy"; "qsort" ] in
  let rows =
    List.concat_map
      (fun name ->
        let p = prepare ~scale:0.5 (W.find name) in
        let masters =
          [
            ("honest", p.distilled);
            ("amnesiac", Adversary.amnesiac p.distilled);
            ("garbage", Adversary.garbage p.program);
          ]
        in
        List.map
          (fun (mname, d) ->
            let base_cfg =
              { (with_slaves 4) with Config.master_chunk = 100_000 }
            in
            let run cfg =
              let r = M.run ~config:cfg d in
              let reference =
                B.sequential ~also_load:[ d.Distill.distilled ] p.program
              in
              if
                (not (r.M.stop = M.Halted))
                || not (Full.equal_observable reference.B.state r.M.arch)
              then failwith ("E13: " ^ name ^ "/" ^ mname ^ " broke correctness");
              r
            in
            let off = run base_cfg in
            let on =
              run { base_cfg with Config.dual_mode = true; dual_trigger = 2 }
            in
            [
              name;
              mname;
              f2 (speedup p off);
              f2 (speedup p on);
              fi on.M.stats.M.sequential_bursts;
            ])
          masters)
      names
  in
  print_table
    ~header:[ "benchmark"; "master"; "dual off"; "dual on"; "bursts" ]
    rows;
  note "paper mechanism: the real machine can revert to plain sequential";
  note "execution at any time, bounding the damage a useless master can";
  note "do. dual-on should never lose to dual-off under the hostile";
  note "masters, while honest masters never trip the fallback (0 bursts)."

(* --- E14: soft errors in the speculative domain ----------------------- *)

let e14 () =
  section "E14  Fault injection: corrupted checkpoints cannot corrupt state";
  let p = prepare ~scale:0.5 (W.find "branchy") in
  let rates = [ 0.0; 0.05; 0.2; 0.5; 1.0 ] in
  let cfg_of rate =
    {
      (with_slaves 4) with
      Config.faults =
        (if rate > 0.0 then
           Some (Mssp_faults.Plan.quiet Live_in_corrupt ~seed:42 ~p:rate)
         else None);
    }
  in
  let runs = checked_runs (List.map (fun rate -> (p, cfg_of rate)) rates) in
  let rows =
    List.map2
      (fun rate r ->
        [
          Printf.sprintf "%.2f" rate;
          fi r.M.stats.M.faults_injected;
          fi r.M.stats.M.squashes;
          f2 (speedup p r);
          "yes";
        ])
      rates runs
  in
  print_table
    ~header:[ "fault rate"; "injected"; "squashes"; "speedup"; "correct?" ]
    rows;
  note "every checkpoint corruption is absorbed by verification: squash";
  note "rates climb with the fault rate and speedup decays toward the";
  note "sequential floor, but architected state never moves — the same";
  note "mechanism that tolerates a wrong distiller tolerates soft errors";
  note "anywhere in the speculative domain.";
  note "(note: a corrupted live-in the task never reads is harmless and";
  note "commits normally — verification checks exactly what was consumed.)"

(* --- E15: value prediction vs pure control speculation ---------------- *)

let e15 () =
  section "E15  Why the master predicts values: MSSP vs control-only TLS";
  let cfg = with_slaves 4 in
  let prepared = suite () in
  let runs =
    chunk 2
      (checked_runs
         (List.concat_map
            (fun p ->
              [ (p, cfg); (p, { cfg with Config.control_only_master = true }) ])
            prepared))
  in
  let rows =
    List.map2
      (fun p rs ->
        let mssp, tls =
          match rs with [ a; b ] -> (a, b) | _ -> assert false
        in
        [
          p.bench.W.name;
          f2 (speedup p mssp);
          f2 (speedup p tls);
          f2 (1000.0 *. M.squash_rate mssp);
          f2 (1000.0 *. M.squash_rate tls);
        ])
      prepared runs
  in
  print_table
    ~header:
      [ "benchmark"; "MSSP"; "control-only"; "sq/1k MSSP"; "sq/1k ctrl" ]
    rows;
  note "checkpoints stripped to a bare start PC model plain task-level";
  note "speculation (Multiscalar-style control speculation, no value";
  note "forwarding): every inter-task register/memory dependence on an";
  note "in-flight value reads stale architected state and squashes.";
  note "MSSP's value prediction is what makes the tasks independent —";
  note "the paradigm's argument against control-only TLS, reproduced."

(* --- E16: many simple cores vs one wide core --------------------------- *)

let e16 () =
  section "E16  The CMP argument: MSSP on simple cores vs one wide OoO core";
  let prepared = suite () in
  let runs =
    checked_runs (List.map (fun p -> (p, with_slaves 8)) prepared)
  in
  let rows =
    List.map2
      (fun p mssp ->
        let w2 = B.ilp_limit ~width:2 p.program in
        let w4 = B.ilp_limit ~width:4 p.program in
        let w8 = B.ilp_limit ~width:8 p.program in
        let sp c = B.speedup ~baseline:p.baseline c in
        [
          p.bench.W.name;
          f2 (speedup p mssp);
          f2 (sp w2.B.cycles);
          f2 (sp w4.B.cycles);
          f2 (sp w8.B.cycles);
        ])
      prepared runs
  in
  print_table
    ~header:
      [
        "benchmark"; "MSSP (8 simple)"; "ILP-limit w2"; "ILP-limit w4";
        "ILP-limit w8";
      ]
    rows;
  note "the right-hand columns are a Wall-style ILP *limit study*: perfect";
  note "branch prediction, perfect memory disambiguation, unbounded MLP —";
  note "an upper bound no buildable core reaches, and its returns flatten";
  note "w4 -> w8 on dependence-bound code. MSSP mines task-level";
  note "parallelism orthogonal to ILP from simple, verifiable cores; in";
  note "the paper's machine every core is itself superscalar, so the two";
  note "effects compose — the limit columns bound the per-core factor."

(* --- E17: in-flight window sensitivity ---------------------------------- *)

let e17 () =
  section "E17  Checkpoint window: how far ahead may the master run?";
  let names = [ "vecsum"; "branchy"; "qsort" ] in
  let prepared = List.map (fun n -> prepare (W.find n)) names in
  let windows = [ 1; 2; 4; 8; 16; 32 ] in
  let cfg_of window = { (with_slaves 4) with Config.max_in_flight = window } in
  let grid =
    checked_runs
      (List.concat_map
         (fun window -> List.map (fun p -> (p, cfg_of window)) prepared)
         windows)
  in
  let rows =
    List.map2
      (fun window runs ->
        let speedups = List.map2 (fun p r -> speedup p r) prepared runs in
        let discarded =
          List.fold_left (fun a r -> a + r.M.stats.M.tasks_discarded) 0 runs
        in
        fi window :: f2 (Stats.geomean speedups) :: fi discarded
        :: List.map f2 speedups)
      windows
      (chunk (List.length prepared) grid)
  in
  print_table
    ~header:([ "window"; "geomean"; "discarded" ] @ names)
    rows;
  note "paper shape: a window of 1 serializes master and slave (the task";
  note "cannot start until its end boundary is known); throughput grows";
  note "until the window covers spawn/commit latency and the slave pool,";
  note "then flattens — but a deeper window also discards more work per";
  note "squash, so there is no benefit past a few times the slave count."

(* --- E18: distiller pass ablation ------------------------------------ *)

let e18 () =
  section "E18  Pass ablation: what each distiller pass buys";
  let resolve names =
    match Distill.resolve names with
    | Ok ps -> ps
    | Error e -> failwith e
  in
  let full = Distill.names (Distill.default_passes ()) in
  let names = [ "vecsum"; "branchy"; "treesum"; "qsort" ] in
  let benches = List.map W.find names in
  (* drop one rewrite pass at a time; removing harden takes repair with
     it (repair only un-hardens), and compact stays so static sizes are
     comparable *)
  let ablations =
    [
      ("full", full);
      ("-harden", List.filter (fun n -> n <> "harden" && n <> "repair") full);
      ("-drop-stores", List.filter (fun n -> n <> "drop-stores") full);
      ("-dead-writes", List.filter (fun n -> n <> "dead-writes") full);
      ("-boundaries", List.filter (fun n -> n <> "boundaries") full);
      ("none", [ "compact" ]);
    ]
  in
  let prepared =
    List.map
      (fun (_, subset) ->
        List.map (fun b -> prepare ~passes:(resolve subset) b) benches)
      ablations
  in
  let runs =
    chunk (List.length benches)
      (checked_runs
         (List.concat_map
            (fun ps -> List.map (fun p -> (p, with_slaves 4)) ps)
            prepared))
  in
  let rows =
    List.map2
      (fun ((label, _), ps) rs ->
        let speedups = List.map2 (fun p r -> speedup p r) ps rs in
        let dyn =
          Stats.geomean
            (List.map
               (fun p -> Distill.dynamic_ratio p.distilled.Distill.stats)
               ps)
        in
        label :: f2 (Stats.geomean speedups) :: f2 dyn
        :: List.map f2 speedups)
      (List.combine ablations prepared)
      runs
  in
  print_table ~header:([ "pipeline"; "geomean"; "dyn ratio" ] @ names) rows;
  note "every ablated package is re-verified against SEQ before its";
  note "numbers print (absorbability: a weaker distiller only costs";
  note "speed). Boundaries are load-bearing — one entry fork means one";
  note "giant task and pure overhead; hardening and store removal";
  note "shorten the master's dynamic path; 'none' is slower than SEQ."

(* --- E19: adaptive distillation from squash feedback ------------------ *)

(* One adaptation loop for a kernel: distill statically, run, then
   re-distill [rounds] times from each run's squash attribution and keep
   the cheapest round. Every round executes a DIFFERENT distilled image,
   so each is verified against a SEQ baseline loading that round's image
   (final states are compared over all of observable memory). *)
let adapt_bench ?(rounds = 1) name slaves =
  let b = W.find name in
  let train = b.W.program ~size:b.W.train_size in
  let program = b.W.program ~size:b.W.ref_size in
  let profile = Profile.collect train in
  let a = Adapt.run ~rounds ~config:(with_slaves slaves) program profile in
  List.iter
    (fun (rd : Adapt.round) ->
      if rd.Adapt.result.M.stop <> M.Halted then
        failwith
          (Printf.sprintf "%s: adaptation round %d did not halt cleanly" name
             rd.Adapt.index);
      let bl =
        B.sequential ~also_load:[ rd.Adapt.distilled.Distill.distilled ]
          program
      in
      if not (Full.equal_observable bl.B.state rd.Adapt.result.M.arch) then
        failwith
          (Printf.sprintf "%s: adaptation round %d diverges from SEQ" name
             rd.Adapt.index))
    a.Adapt.rounds;
  a

let e19_kernels = [ "vecsum"; "fir"; "strmatch"; "rle"; "treesum"; "dijkstra" ]

let e19 () =
  section "E19  Adaptive distillation: squash feedback";
  let rows =
    List.map
      (fun name ->
        let cell slaves =
          let a = adapt_bench name slaves in
          let s = Adapt.round_cycles (List.hd a.Adapt.rounds) in
          let c = Adapt.round_cycles a.Adapt.best in
          (a, s, c)
        in
        let _, s4, c4 = cell 4 in
        let a8, s8, c8 = cell 8 in
        [
          name;
          string_of_int s4;
          string_of_int c4;
          f2 (float_of_int s4 /. float_of_int c4);
          string_of_int s8;
          string_of_int c8;
          f2 (float_of_int s8 /. float_of_int c8);
          string_of_int a8.Adapt.best.Adapt.index;
        ])
      e19_kernels
  in
  print_table
    ~header:
      [
        "bench"; "static@4"; "adapt@4"; "x@4"; "static@8"; "adapt@8"; "x@8";
        "round";
      ]
    rows;
  note "static = round 0 (one distillation);";
  note "adapt = best round after re-distilling from squash attribution";
  note "(task split/merge + faint-write elision). Every round is";
  note "re-verified against SEQ: adaptation only moves cycles."

(* --- E1s: reduced-scale E1 for perf smoke runs ----------------------- *)

(* E1 at a quarter of the reference inputs and a single slave count:
   the same prepare -> checked_run -> speedup pipeline (so a perf
   regression anywhere in the simulator core shows up in its wall
   clock), small enough for `make perf-smoke`. Not run by default. *)
let e1s () =
  section "E1s  Reduced-scale speedup smoke (fast variant of E1)";
  let prepared = List.map (fun b -> prepare ~scale:0.25 b) W.all in
  let runs =
    checked_runs (List.map (fun p -> (p, with_slaves 8)) prepared)
  in
  let results = List.map2 (fun p r -> (p, speedup p r)) prepared runs in
  print_table
    ~header:[ "benchmark"; "8 slaves" ]
    (List.map (fun (p, s) -> [ p.bench.W.name; f2 s ]) results);
  note "quarter-size inputs; geomean at 8 slaves: %s"
    (f2 (Stats.geomean (List.map snd results)))

(* --- Guards: one A/B check each (bench/guard.ml) ----------------------

   Every guard is a row of EXPERIMENTS.md's guard table: a baseline leg
   a, a candidate leg b, a bound on their wall-clock ratio and the gate
   that decides whether the bound is enforced on this host. Simulated
   cycles must be bit-identical across a and b on every host. *)

module V = Mssp_metrics.Guard

(* a wall-clock bound is only decidable where the clock can resolve it:
   at least 2 cores, and a baseline that agrees with itself to within
   [noise] *)
let quiet noise = V.Quiet { cores = 2; noise }

(* one MSSP run as a guard leg; verified against SEQ, outside the clock *)
let leg ?(label = "") ?(check = ignore) p config () =
  let r = run ~config p in
  fun () ->
    assert_correct p r;
    check r;
    [
      ( Printf.sprintf "%s@%d%s" p.bench.W.name config.Config.slaves label,
        r.M.stats.M.cycles );
    ]

(* TRACEG: a bounded ring sink costs at most 2%. Both legs build every
   event and fold it into the machine's stats, so the ratio prices the
   sink delivery alone. 3x the reference input keeps a run near 100 ms,
   well above timer noise. *)
let traceg () =
  section "TRACEG  Tracing-overhead guard: no sink vs ring sink";
  let module Trace = Mssp_trace.Trace in
  let p = prepare ~scale:3.0 (W.find "vecsum") in
  let cfg = with_slaves 4 in
  let ring () =
    let tr = Trace.create () in
    Trace.attach tr (Trace.Ring.sink (Trace.Ring.create 4096));
    leg p { cfg with Config.tracer = Some tr } ()
  in
  Guard.run ~reps:9 ~bound:(V.At_most 1.02) ~gate:(quiet 0.02) "TRACEG"
    ("no sink", leg p cfg) ("ring sink", ring)

(* FAULTG: the same contract for the fault injector. The benign plan has
   one action per absorbable value surface, every probability zero, so
   the injector is consulted on every spawn but never fires. *)
let faultg () =
  section "FAULTG  Fault-subsystem guard: no plan vs benign armed plan";
  let module Plan = Mssp_faults.Plan in
  let p = prepare ~scale:3.0 (W.find "vecsum") in
  let cfg = with_slaves 4 in
  let benign =
    Plan.make
      (List.map
         (fun s -> Plan.action s ~seed:1 ~p:0.0)
         Plan.absorbable_surfaces)
  in
  let check r =
    if r.M.stats.M.faults_injected <> 0 then
      failwith "FAULTG: a p = 0 action fired"
  in
  Guard.run ~reps:9 ~bound:(V.At_most 1.02) ~gate:(quiet 0.02) "FAULTG"
    ("no plan", leg p cfg)
    ("benign plan", leg ~check p { cfg with Config.faults = Some benign })

(* POOLG: fanning the quarter-scale E1 grid across 4 worker domains
   costs at most 0.6x the serial wall clock. Only a host with 4 cores
   can show that; smaller hosts report the ratio. The serial SEQ checks
   are part of the grid's wall clock, as they are in E1. *)
let poolg () =
  section "POOLG  Host-pool guard: E1 grid, serial vs 4 worker domains";
  let points = e1_points (List.map (fun b -> prepare ~scale:0.25 b) W.all) in
  let grid jobs () =
    let rs =
      Mssp_exec.Pool.map_runs ~jobs (fun (p, config) -> run ~config p) points
    in
    let cycles =
      List.map2
        (fun (p, config) r ->
          assert_correct p r;
          ( Printf.sprintf "%s@%d" p.bench.W.name config.Config.slaves,
            r.M.stats.M.cycles ))
        points rs
    in
    fun () -> cycles
  in
  Guard.run ~reps:2 ~bound:(V.At_most 0.60) ~gate:(V.Min_cores 4) "POOLG"
    ("serial", grid 1) ("4 jobs", grid 4)

(* ADPTG: the adaptation loop keeps paying for itself. Over the
   kernels below at 8 slaves the geomean of static over adaptive
   cycles stays >= 1.15x. Deterministic cycles, so always
   enforced; best-of-rounds makes < 1x impossible, so the bound polices
   the win, not safety. *)
let adptg_kernels = [ "fir"; "rle"; "treesum"; "dijkstra" ]

let adptg () =
  section "ADPTG  Adaptation guard: the feedback loop keeps its speedup";
  let kernels =
    List.map
      (fun name ->
        let a = adapt_bench name 8 in
        let s = Adapt.round_cycles (List.hd a.Adapt.rounds) in
        let c = Adapt.round_cycles a.Adapt.best in
        note "%-10s static %8d  adaptive %8d  (%.3fx, round %d)" name s c
          (float_of_int s /. float_of_int c)
          a.Adapt.best.Adapt.index;
        (name, s, c))
      adptg_kernels
  in
  let geomean =
    Stats.geomean
      (List.map (fun (_, s, c) -> float_of_int s /. float_of_int c) kernels)
  in
  Guard.deterministic ~bound:(V.At_least 1.15) ~ratio:geomean "ADPTG"
    ("static", "adaptive")
    (List.concat_map
       (fun (name, s, c) -> [ (name ^ " static", s); (name ^ " adaptive", c) ])
       kernels)

let all : (string * (unit -> unit)) list =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E17", e17); ("E18", e18); ("E19", e19);
  ]

(* opt-in experiments: run only when named on the command line, never
   part of the default everything sweep *)
let extras : (string * (unit -> unit)) list =
  [
    ("E1s", e1s); ("TRACEG", traceg); ("FAULTG", faultg); ("POOLG", poolg);
    ("ADPTG", adptg);
  ]
