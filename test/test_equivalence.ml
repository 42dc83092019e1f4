(* The paradigm's central claim, property-checked end to end: for ANY
   program and ANY distilled code — honest, adversarial or random
   garbage — the MSSP machine's final architected state equals the
   sequential machine's, and every commit is a jumping-refinement step
   (shadow-checked inside the machine). Performance may vary; correctness
   may not. *)

module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Gen = Mssp_fuzz.Gen
module Adversary = Mssp_workload.Adversary
module Fshrink = Mssp_fuzz.Shrink

let check = Alcotest.(check bool)

(* Program-valued arbitrary: failures print as assembly source and
   shrink structurally (nop-out ranges, truncate, drop data) with the
   fuzz shrinker, instead of just wiggling a (seed, size) pair. *)
let program_arb ?(weights = Gen.plain) ~min_size ~max_size () =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = min_size + Random.State.int st (max_size - min_size + 1) in
    Gen.generate ~weights ~seed ~size ()
  in
  let shrink p yield = List.iter yield (Fshrink.candidates p) in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source ~shrink gen

let seq_reference (d : Distill.t) =
  let s = Full.create () in
  Full.load s d.Distill.original;
  Full.load ~set_entry:false s d.Distill.distilled;
  let m = Machine.of_state s in
  ignore (Machine.run ~fuel:5_000_000 m : Machine.stop);
  m

let config =
  {
    Config.default with
    Config.verify_refinement = true;
    Config.master_chunk = 100_000;
    Config.max_cycles = 500_000_000;
  }

let equivalent ?(config = config) d =
  let seq = seq_reference d in
  match seq.Machine.stopped with
  | Some Machine.Halted ->
    let r = M.run ~config d in
    r.M.stop = M.Halted
    && Full.equal_observable seq.Machine.state r.M.arch
    && r.M.refinement_violations = 0
  | Some (Machine.Faulted _) | Some Machine.Out_of_fuel | None ->
    true (* programs that don't halt cleanly are out of scope here *)

let honest_distill p =
  let profile = Profile.collect ~fuel:2_000_000 p in
  Distill.distill p profile

(* random programs under the honest distiller *)
let prop_random_programs_honest =
  QCheck.Test.make ~name:"random program, honest distiller" ~count:40
    (program_arb ~min_size:5 ~max_size:25 ())
    (fun p -> equivalent (honest_distill p))

(* fuzz-generator programs (paged-span edges, straddles, early halts)
   under the honest distiller *)
let prop_fuzz_programs_honest =
  QCheck.Test.make ~name:"fuzz-generator program, honest distiller" ~count:25
    (program_arb ~weights:Gen.default_weights ~min_size:4 ~max_size:16 ())
    (fun p -> equivalent (honest_distill p))

(* random programs under aggressive distillation options *)
let prop_random_programs_aggressive =
  QCheck.Test.make ~name:"random program, aggressive distiller" ~count:25
    (program_arb ~min_size:5 ~max_size:20 ())
    (fun p ->
      let profile = Profile.collect ~fuel:2_000_000 p in
      let options =
        {
          Distill.default_options with
          Distill.branch_bias_threshold = 0.7;
          min_branch_count = 2;
          store_comm_distance = 10;
          min_store_count = 2;
        }
      in
      equivalent (Distill.distill ~options p profile))

(* random programs under every adversarial master *)
let prop_random_programs_adversarial =
  QCheck.Test.make ~name:"random program, adversarial masters" ~count:15
    (program_arb ~min_size:5 ~max_size:15 ())
    (fun p -> List.for_all (fun (_, d) -> equivalent d) (Adversary.all p))

(* random garbage distilled code with random seeds *)
let prop_garbage_masters =
  QCheck.Test.make ~name:"garbage distilled code" ~count:25
    QCheck.(pair (program_arb ~min_size:8 ~max_size:14 ()) small_nat)
    (fun (p, gseed) -> equivalent (Adversary.garbage ~seed:gseed p))

(* random machine configurations on a fixed program *)
let prop_random_configs =
  QCheck.Test.make ~name:"random machine configurations" ~count:25
    QCheck.(quad (int_range 1 8) (int_range 1 16) (int_range 5 200) (int_range 20 2000))
    (fun (slaves, window, task_size, budget) ->
      let p = Gen.generate ~weights:Gen.plain ~seed:77 ~size:20 () in
      let cfg =
        {
          config with
          Config.slaves;
          max_in_flight = window;
          task_size;
          task_budget = budget;
        }
      in
      equivalent ~config:cfg (honest_distill p))

(* isolated-slave (abstract-model) machine mode *)
let prop_isolated_mode =
  QCheck.Test.make ~name:"isolated slaves" ~count:15
    (program_arb ~min_size:5 ~max_size:15 ())
    (fun p ->
      let cfg = { config with Config.isolated_slaves = true } in
      equivalent ~config:cfg (honest_distill p))

(* the full benchmark suite at reference size, honest distiller — the
   headline equivalence *)
let test_benchmark_suite_ref_size () =
  List.iter
    (fun (b : Mssp_workload.Workload.benchmark) ->
      let p = b.Mssp_workload.Workload.program ~size:b.Mssp_workload.Workload.ref_size in
      check b.Mssp_workload.Workload.name true (equivalent (honest_distill p)))
    (Mssp_workload.Workload.io_bench :: Mssp_workload.Workload.all)

let () =
  Alcotest.run "equivalence"
    [
      ( "properties",
        [
          Mssp_testkit.to_alcotest prop_random_programs_honest;
          Mssp_testkit.to_alcotest prop_fuzz_programs_honest;
          Mssp_testkit.to_alcotest prop_random_programs_aggressive;
          Mssp_testkit.to_alcotest prop_random_programs_adversarial;
          Mssp_testkit.to_alcotest prop_garbage_masters;
          Mssp_testkit.to_alcotest prop_random_configs;
          Mssp_testkit.to_alcotest prop_isolated_mode;
        ] );
      ( "suite",
        [
          Alcotest.test_case "benchmarks at ref size" `Slow
            test_benchmark_suite_ref_size;
        ] );
    ]
