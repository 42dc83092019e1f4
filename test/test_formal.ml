(* Executable checks of the companion paper's formal results:
   Lemma 2 (task evolution), Definition 6/7 (safety and commit),
   Theorem 2 (consistency + completeness => safety), Lemma 1 / Theorem 1
   (safe sets, commit-order independence, discard), and jumping
   refinement (Definition 1) over sampled runs of the abstract machine. *)

module Fragment = Mssp_state.Fragment
module Cell = Mssp_state.Cell
module Frag_exec = Mssp_seq.Frag_exec
module Seq_model = Mssp_formal.Seq_model
module Abstract_task = Mssp_formal.Abstract_task
module Safety = Mssp_formal.Safety
module Mssp_model = Mssp_formal.Mssp_model
module Refinement = Mssp_formal.Refinement
module Rewrite = Mssp_formal.Rewrite
module Gen = Mssp_fuzz.Gen
module Dsl = Mssp_asm.Dsl
module Instr = Mssp_isa.Instr
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- a toy system for the Rewrite substrate --- *)

module Counter = struct
  type state = int

  let equal = Int.equal
  let pp = Format.pp_print_int
  let transitions n = if n >= 5 then [] else [ n + 1; n + 2 ]
end

module Counter_search = Rewrite.Make (Counter)

let test_rewrite_substrate () =
  let r = Counter_search.reachable 0 in
  check "0..6 reachable" true (List.sort compare r = [ 0; 1; 2; 3; 4; 5; 6 ]);
  check "can reach 6" true (Counter_search.can_reach 0 (fun n -> n = 6));
  check "cannot reach 7" false (Counter_search.can_reach 0 (fun n -> n = 7));
  check "finals" true
    (List.sort compare (Counter_search.final_states 0) = [ 5; 6 ]);
  check "trace ok" true (Counter_search.is_trace [ 0; 2; 3; 5 ]);
  check "trace bad" false (Counter_search.is_trace [ 0; 3 ]);
  let run = Counter_search.random_run ~seed:42 ~max_steps:100 0 in
  check "random run is a trace" true (Counter_search.is_trace run);
  check "random run maximal" true
    (match List.rev run with last :: _ -> last >= 5 | [] -> false)

(* --- a concrete program for the models --- *)

let loop_program =
  let b = Dsl.create () in
  Dsl.li b t0 6;
  Dsl.li b t1 0;
  Dsl.label b "loop";
  Dsl.alu b Instr.Add t1 t1 t0;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.st b t1 gp 0;
  Dsl.halt b;
  Dsl.build b ()

let s0 = Seq_model.complete_of_program loop_program

(* cells needed to execute n steps from a fragment *)
let needed_cells frag n =
  let rec go frag k acc =
    if k = 0 then acc
    else
      match (Frag_exec.reads1 frag, Frag_exec.next frag) with
      | Ok reads, Ok frag' -> go frag' (k - 1) (Cell.Set.union acc reads)
      | _, Error _ | Error _, _ -> acc
  in
  go frag n Cell.Set.empty

(* minimal consistent live-in for the n steps starting at [state] *)
let minimal_live_in state n =
  Cell.Set.fold
    (fun c acc ->
      match Fragment.find_opt c state with
      | Some v -> Fragment.add c v acc
      | None -> acc)
    (needed_cells state n) Fragment.empty

(* a chain of tasks covering consecutive ranges of the execution *)
let task_chain lens =
  let rec go state = function
    | [] -> []
    | n :: rest ->
      Abstract_task.make (minimal_live_in state n) n
      :: go (Seq_model.seq state n) rest
  in
  go s0 lens

(* --- Lemma 2: task evolution computes seq on the live-ins --- *)

let test_lemma2_evolution () =
  let t = Abstract_task.make s0 5 in
  check "fresh task: out = in, k = 0" true
    (Fragment.equal t.Abstract_task.live_out s0 && t.Abstract_task.k = 0);
  let t' = Abstract_task.evolve_fully t in
  check "k = n" true (Abstract_task.is_complete t');
  check "Lemma 2: live_out = seq(live_in, n)" true
    (Fragment.equal t'.Abstract_task.live_out (Seq_model.seq s0 5));
  (* evolution is a fixed point at completion *)
  check "evolve at completion = id" true
    (Abstract_task.equal (Abstract_task.evolve t') t')

let prop_lemma2_random_programs =
  QCheck.Test.make ~name:"Lemma 2 on random programs" ~count:30
    QCheck.(pair small_nat (int_bound 20))
    (fun (seed, n) ->
      let p = Gen.generate ~weights:Gen.plain ~seed ~size:5 () in
      let s = Seq_model.complete_of_program p in
      let t = Abstract_task.evolve_fully (Abstract_task.make s n) in
      Fragment.equal t.Abstract_task.live_out (Seq_model.seq s n))

(* --- Definition 6/7: safety and commit --- *)

let test_full_state_task_safe () =
  let t = Abstract_task.make s0 4 in
  check "safe for own state" true (Safety.safe t s0);
  check "commit = seq" true
    (Fragment.equal (Safety.commit t s0) (Seq_model.seq s0 4))

let test_safety_is_state_dependent () =
  (* a task built from a later point is not safe for the initial state *)
  match task_chain [ 3; 3 ] with
  | [ t1; t2 ] ->
    check "t1 safe for s0" true (Safety.safe t1 s0);
    check "t2 unsafe for s0" false (Safety.safe t2 s0);
    (* committing t1 establishes t2's safety *)
    let s1 = Safety.commit t1 s0 in
    check "t2 safe after t1" true (Safety.safe t2 s1)
  | _ -> Alcotest.fail "chain construction"

(* --- Theorem 2: consistency + completeness => safety --- *)

let test_theorem2_minimal_live_ins () =
  List.iter
    (fun n ->
      let li = minimal_live_in s0 n in
      let t = Abstract_task.make li n in
      check "premises hold" true (Safety.consistent_and_complete t s0);
      check
        (Printf.sprintf "Theorem 2 at n=%d" n)
        true (Safety.safe t s0))
    [ 0; 1; 3; 7; 15 ]

let prop_theorem2_random =
  QCheck.Test.make ~name:"Theorem 2 on random programs" ~count:30
    QCheck.(pair small_nat (int_bound 25))
    (fun (seed, n) ->
      let p = Gen.generate ~weights:Gen.plain ~seed ~size:6 () in
      let s = Seq_model.complete_of_program p in
      let li = minimal_live_in s n in
      let t = Abstract_task.make li n in
      QCheck.assume (Safety.consistent_and_complete t s);
      Safety.safe t s)

let test_inconsistent_live_in_unsafe () =
  (* corrupt a live-in the task genuinely consumes (the loop counter
     mid-loop — at the start it is immediately overwritten and a
     corruption there would be harmlessly masked): the premises fail and
     so does safety — the squash case *)
  let s_mid = Seq_model.seq s0 2 in
  let li = minimal_live_in s_mid 3 in
  check "counter is a live-in mid-loop" true (Fragment.mem (Cell.Reg t0) li);
  let corrupted = Fragment.add (Cell.Reg t0) 9999 li in
  let t = Abstract_task.make corrupted 3 in
  check "premise violated" false (Safety.consistent_and_complete t s_mid);
  check "and indeed unsafe" false (Safety.safe t s_mid)

let test_masked_corruption_is_still_safe () =
  (* corrupting a live-in that the first instruction overwrites is
     masked: verification would reject it (inconsistent), but the commit
     would in fact have been harmless — safety is about outcomes, the
     two checks are merely sufficient *)
  let li = Fragment.add (Cell.Reg t0) 9999 (minimal_live_in s0 2) in
  let t = Abstract_task.make li 2 in
  check "premise violated" false (Safety.consistent_and_complete t s0);
  check "yet safe (kill masks it)" true (Safety.safe t s0)

let test_incomplete_live_in_detected () =
  let s_mid = Seq_model.seq s0 2 in
  let li = Fragment.remove (Cell.Reg t0) (minimal_live_in s_mid 3) in
  let t = Abstract_task.make li 3 in
  check "not n-complete" false (Safety.consistent_and_complete t s_mid)

(* --- §4.3: safe task sets and enumerations --- *)

let test_set_safe_finds_enumeration () =
  let tasks = task_chain [ 2; 3; 4 ] in
  (* scrambled order: a safe enumeration exists and is found *)
  let scrambled = [ List.nth tasks 2; List.nth tasks 0; List.nth tasks 1 ] in
  match Safety.set_safe scrambled s0 with
  | Some enumeration ->
    check_int "all three" 3 (List.length enumeration);
    (* first element of any safe enumeration must be safe for s0 *)
    check "head safe" true (Safety.safe (List.hd enumeration) s0)
  | None -> Alcotest.fail "safe enumeration not found"

let test_set_safe_rejects_broken_set () =
  match task_chain [ 2; 3 ] with
  | [ _; t2 ] -> check "no enumeration" true (Safety.set_safe [ t2 ] s0 = None)
  | _ -> Alcotest.fail "chain construction"

(* --- the abstract machine: Lemma 1, Theorem 1, discard --- *)

let junk_task =
  (* complete but never safe: its live-outs are wrong for any state the
     program can be in *)
  {
    Abstract_task.live_in = Fragment.of_list [ (Cell.Pc, 0); (Cell.mem 0, 12345) ];
    n = 1;
    live_out = Fragment.of_list [ (Cell.Reg t0, -1); (Cell.Pc, -1) ];
    k = 1;
  }

let test_lemma1_machine_reaches_seq () =
  let tasks = task_chain [ 2; 2; 2 ] in
  let start = Mssp_model.make ~arch:s0 tasks in
  let target = Seq_model.seq s0 6 in
  check "mssp(S, tau) =>* seq(S, #tau)" true
    (Mssp_model.Search.can_reach ~bound:60 start (fun s ->
         s.Mssp_model.tasks = [] && Fragment.equal s.Mssp_model.arch target))

let test_theorem1_with_unsafe_members () =
  let tasks = junk_task :: task_chain [ 2; 2 ] in
  let start = Mssp_model.make ~arch:s0 tasks in
  let target = Seq_model.seq s0 4 in
  (* the machine can still commit the safe subset and discard the junk *)
  check "reaches seq(S,#safe) with empty set" true
    (Mssp_model.Search.can_reach ~bound:60 start (fun s ->
         s.Mssp_model.tasks = [] && Fragment.equal s.Mssp_model.arch target))

let test_greedy_run_commits_chain () =
  let tasks = task_chain [ 2; 3; 2 ] in
  let final = Mssp_model.run_greedy (Mssp_model.make ~arch:s0 tasks) in
  check "greedy = seq" true (Fragment.equal final (Seq_model.seq s0 7))

let test_commit_order_affects_efficiency_not_correctness () =
  (* two overlapping prefix tasks: both safe for s0; committing either
     renders the other unsafe — every outcome is still a SEQ state *)
  let ta = Abstract_task.make (minimal_live_in s0 2) 2 in
  let tb = Abstract_task.make (minimal_live_in s0 4) 4 in
  let start = Mssp_model.make ~arch:s0 [ ta; tb ] in
  let finals = Mssp_model.Search.final_states ~bound:40 start in
  check "some final state exists" true (finals <> []);
  let seq2 = Seq_model.seq s0 2 and seq4 = Seq_model.seq s0 4 in
  List.iter
    (fun (s : Mssp_model.state) ->
      check "final arch is a SEQ state" true
        (Fragment.equal s.Mssp_model.arch seq2
        || Fragment.equal s.Mssp_model.arch seq4))
    finals;
  (* both outcomes are genuinely reachable: order chooses efficiency *)
  check "short outcome reachable" true
    (List.exists (fun s -> Fragment.equal s.Mssp_model.arch seq2) finals);
  check "long outcome reachable" true
    (List.exists (fun s -> Fragment.equal s.Mssp_model.arch seq4) finals)

(* --- §7: non-idempotent I/O in the abstract model --- *)

let test_io_task_commits_only_alone () =
  (* an I/O program: store the accumulator to a device register *)
  let io_program =
    let b = Dsl.create () in
    Dsl.li b t0 7;
    Dsl.li b t1 Mssp_isa.Layout.io_base;
    Dsl.st b t0 t1 0;
    Dsl.alui b Instr.Add t0 t0 1;
    Dsl.halt b;
    Dsl.build b ()
  in
  let s = Seq_model.complete_of_program io_program in
  let io_task = Abstract_task.evolve_fully (Abstract_task.make s 3) in
  check "touches io" true (Mssp_model.touches_io io_task);
  check "safe" true (Safety.safe io_task s);
  (* alongside another (incomplete) task it may not commit *)
  let other = Abstract_task.make (Seq_model.seq s 3) 1 in
  let crowded = Mssp_model.make ~arch:s [ io_task; other ] in
  check "blocked while speculative work is in flight" true
    (List.for_all
       (fun (t, _) -> not (Mssp_model.touches_io t))
       (Mssp_model.commit_candidates crowded));
  (* alone, it commits and jumps as usual *)
  let alone = Mssp_model.make ~arch:s [ io_task ] in
  (match Mssp_model.commit_candidates alone with
  | [ (_, s') ] ->
    check "commit = seq" true
      (Fragment.equal s'.Mssp_model.arch (Seq_model.seq s 3))
  | _ -> Alcotest.fail "io task should commit when alone");
  (* and the machine still drains correctly: the other task evolves,
     then (being unsafe for the pre-io state until the io task commits)
     the whole run remains a refinement *)
  let trace = Mssp_model.Search.random_run ~seed:5 ~max_steps:30 crowded in
  check "still a refinement" true (Refinement.is_refinement_trace ~bound:10 trace)

let test_non_io_tasks_unaffected () =
  let tasks = task_chain [ 2; 2 ] in
  check "no io in ordinary tasks" true
    (List.for_all (fun t -> not (Mssp_model.touches_io t)) tasks)

(* --- bounded model checking: an invariant over the REACHABLE SET --- *)

let test_invariant_arch_always_seq_state () =
  (* every state reachable from (s0, chain) — under ANY interleaving of
     evolves/commits/discards — has an architected fragment equal to
     seq(s0, k) for some k: the machine cannot even pass through a
     non-sequential state. This is the Maude `search` use-case. *)
  let tasks = task_chain [ 2; 2 ] in
  let start = Mssp_model.make ~arch:s0 tasks in
  let reachable = Mssp_model.Search.reachable ~bound:40 start in
  check "non-trivial state space" true (List.length reachable > 10);
  let is_seq_state arch =
    let rec go s k =
      k <= 5
      && (Fragment.equal s arch || go (Seq_model.next s) (k + 1))
    in
    go s0 0
  in
  List.iter
    (fun (s : Mssp_model.state) ->
      check "arch is a SEQ state" true (is_seq_state s.Mssp_model.arch))
    reachable

(* --- jumping refinement --- *)

let test_refinement_classification () =
  let tasks = task_chain [ 2; 3 ] in
  let start = Mssp_model.make ~arch:s0 tasks in
  let trace = Mssp_model.Search.random_run ~seed:7 ~max_steps:50 start in
  check "trace valid" true (Mssp_model.Search.is_trace trace);
  let verdicts = Refinement.check_trace ~bound:10 trace in
  check "is refinement" true
    (List.for_all (function Refinement.Violation -> false | _ -> true) verdicts);
  (* evolves accumulate energy; commits jump by exactly #t *)
  let jumps = List.filter_map (function Refinement.Jump k -> Some k | _ -> None) verdicts in
  check "jumps are task sizes" true
    (List.sort compare jumps = [ 2; 3 ]
    || (* a discard-ending run may drop the tail task *)
    jumps = [ 2 ] || jumps = [ 3 ])

let prop_refinement_random_runs =
  QCheck.Test.make ~name:"jumping refinement over sampled runs" ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (seed, shape) ->
      let lens = [ 1 + (shape mod 3); 2; 1 + (shape mod 4) ] in
      let tasks = task_chain lens in
      let start = Mssp_model.make ~arch:s0 tasks in
      let trace = Mssp_model.Search.random_run ~seed ~max_steps:80 start in
      Refinement.is_refinement_trace ~bound:20 trace)

let test_refinement_detects_violation () =
  (* a fabricated transition whose ψ change is not a SEQ sequence *)
  let bad_after = Fragment.add (Cell.Reg t0) 424242 s0 in
  check "violation flagged" true
    (Refinement.classify ~before:s0 ~after:bad_after ~bound:10
    = Refinement.Violation)

(* --- iteration 1: uninterpreted tasks and the stuttering refinement --- *)

module Iteration1 = Mssp_formal.Iteration1

let test_iter1_commit_advances_seq () =
  let t = Iteration1.of_abstract (Abstract_task.make s0 4) in
  check "count" true (Iteration1.count t = 4);
  check "safe for own state" true (Iteration1.is_safe t s0);
  let start = Iteration1.make ~arch:s0 [ t ] in
  let finals = Iteration1.Search.final_states ~bound:5 start in
  check "one final" true (List.length finals = 1);
  check "final = seq(s0,4)" true
    (Fragment.equal (List.hd finals).Iteration1.arch (Seq_model.seq s0 4))

let test_iter1_oracle_tasks () =
  (* a task with an arbitrary oracle: never safe -> always discarded *)
  let never = Iteration1.oracle_task ~label:"never" ~count:3 ~safe:(fun _ -> false) in
  let start = Iteration1.make ~arch:s0 [ never ] in
  let finals = Iteration1.Search.final_states ~bound:5 start in
  List.iter
    (fun (f : Iteration1.state) ->
      check "discarded without committing" true
        (f.Iteration1.tasks = [] && Fragment.equal f.Iteration1.arch s0))
    finals;
  (* an always-safe oracle commits regardless of content: this is the
     "black box master" degree of freedom — and why, at this level,
     safety must be a *premise*, not a theorem *)
  let always = Iteration1.oracle_task ~label:"always" ~count:2 ~safe:(fun _ -> true) in
  let start = Iteration1.make ~arch:s0 [ always ] in
  check "oracle commit jumps 2" true
    (Iteration1.Search.can_reach ~bound:5 start (fun f ->
         f.Iteration1.tasks = []
         && Fragment.equal f.Iteration1.arch (Seq_model.seq s0 2)))

let test_iter2_stuttering_refines_iter1 () =
  let tasks = task_chain [ 2; 3 ] in
  let start = Mssp_model.make ~arch:s0 tasks in
  List.iter
    (fun seed ->
      let trace = Mssp_model.Search.random_run ~seed ~max_steps:60 start in
      check
        (Printf.sprintf "trace %d refines" seed)
        true
        (Iteration1.refines_iteration1 trace))
    [ 1; 2; 3; 4; 5 ]

let prop_iter2_refines_iter1_random =
  QCheck.Test.make ~name:"iteration 2 stutter-refines iteration 1" ~count:20
    QCheck.(pair small_nat small_nat)
    (fun (pseed, rseed) ->
      let p = Gen.generate ~weights:Gen.plain ~seed:pseed ~size:5 () in
      let s = Seq_model.complete_of_program p in
      let rec chain state = function
        | [] -> []
        | n :: rest ->
          Abstract_task.make state n :: chain (Seq_model.seq state n) rest
      in
      let start = Mssp_model.make ~arch:s (chain s [ 2; 2 ]) in
      let trace = Mssp_model.Search.random_run ~seed:rseed ~max_steps:40 start in
      Iteration1.refines_iteration1 trace)

(* --- SEQ determinism (§6.2) --- *)

let prop_seq_determinism =
  QCheck.Test.make ~name:"consistent states stay consistent under seq"
    ~count:30
    QCheck.(pair small_nat (int_bound 15))
    (fun (seed, n) ->
      let p = Gen.generate ~weights:Gen.plain ~seed ~size:5 () in
      let s2 = Seq_model.complete_of_program p in
      let s1 = minimal_live_in s2 n in
      Seq_model.deterministic s1 s2 ~n)

(* --- absorbability: the distiller pass-checker's formal entry point --- *)

module Absorb = Mssp_formal.Absorb

let test_absorb_holds () =
  (* a committed in-order task chain lands on seq whatever cut lengths
     guidance chose — on the crafted loop and on synthetic programs *)
  (match Absorb.check loop_program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "loop program not absorbable: %s" e);
  check "odd cut lengths too" true
    (Absorb.holds ~lengths:[ 1; 7; 2 ] loop_program);
  List.iter
    (fun seed ->
      let p = Gen.generate ~weights:Gen.plain ~seed ~size:6 () in
      match Absorb.check p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d not absorbable: %s" seed e)
    [ 1; 2; 3 ]

let test_absorb_rejects_bad_lengths () =
  let p = Gen.generate ~weights:Gen.plain ~seed:1 ~size:4 () in
  List.iter
    (fun lengths ->
      match Absorb.check ~lengths p with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "non-positive cut length accepted")
    [ [ 0 ]; [ 3; -1 ] ]

let () =
  Alcotest.run "formal"
    [
      ("rewrite", [ Alcotest.test_case "substrate" `Quick test_rewrite_substrate ]);
      ( "iteration2",
        [
          Alcotest.test_case "Lemma 2" `Quick test_lemma2_evolution;
          Mssp_testkit.to_alcotest prop_lemma2_random_programs;
          Alcotest.test_case "full-state safety" `Quick test_full_state_task_safe;
          Alcotest.test_case "safety is state-dependent" `Quick
            test_safety_is_state_dependent;
        ] );
      ( "iteration3",
        [
          Alcotest.test_case "Theorem 2 minimal live-ins" `Quick
            test_theorem2_minimal_live_ins;
          Mssp_testkit.to_alcotest prop_theorem2_random;
          Alcotest.test_case "inconsistency breaks safety" `Quick
            test_inconsistent_live_in_unsafe;
          Alcotest.test_case "masked corruption stays safe" `Quick
            test_masked_corruption_is_still_safe;
          Alcotest.test_case "incompleteness detected" `Quick
            test_incomplete_live_in_detected;
        ] );
      ( "task sets",
        [
          Alcotest.test_case "safe enumeration" `Quick test_set_safe_finds_enumeration;
          Alcotest.test_case "broken set" `Quick test_set_safe_rejects_broken_set;
          Alcotest.test_case "Lemma 1" `Quick test_lemma1_machine_reaches_seq;
          Alcotest.test_case "Theorem 1" `Quick test_theorem1_with_unsafe_members;
          Alcotest.test_case "greedy run" `Quick test_greedy_run_commits_chain;
          Alcotest.test_case "order = efficiency only" `Quick
            test_commit_order_affects_efficiency_not_correctness;
        ] );
      ( "iteration1",
        [
          Alcotest.test_case "commit advances seq" `Quick
            test_iter1_commit_advances_seq;
          Alcotest.test_case "oracle tasks" `Quick test_iter1_oracle_tasks;
          Alcotest.test_case "stuttering refinement" `Quick
            test_iter2_stuttering_refines_iter1;
          Mssp_testkit.to_alcotest prop_iter2_refines_iter1_random;
        ] );
      ( "absorbability",
        [
          Alcotest.test_case "committed chains land on seq" `Quick
            test_absorb_holds;
          Alcotest.test_case "rejects non-positive cut lengths" `Quick
            test_absorb_rejects_bad_lengths;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "io commits only alone (§7)" `Quick
            test_io_task_commits_only_alone;
          Alcotest.test_case "non-io unaffected" `Quick test_non_io_tasks_unaffected;
          Alcotest.test_case "reachable-set invariant" `Quick
            test_invariant_arch_always_seq_state;
          Alcotest.test_case "classification" `Quick test_refinement_classification;
          Mssp_testkit.to_alcotest prop_refinement_random_runs;
          Alcotest.test_case "violation detection" `Quick
            test_refinement_detects_violation;
          Mssp_testkit.to_alcotest prop_seq_determinism;
        ] );
    ]
