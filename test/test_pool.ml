(* The inter-run driver's two contracts, pinned by test:
   - the library itself: [map_runs] is [List.map] — order preserved at
     every job count, the lowest-index exception re-raised, nesting
     safe, and no helper domain outliving its call;
   - bit-identical determinism: a simulation run on a helper domain
     produces the same cycles, stats record, final architected state,
     event stream and attribution summary as one run on the calling
     domain — on a fixed benchmark and on random fuzz-generated
     programs. The fuzz driver's shard seeding is pinned the same way:
     a --jobs 2 campaign equals the merge of its two --jobs 1 shard
     replays. *)

module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module W = Mssp_workload.Workload
module Trace = Mssp_trace.Trace
module Gen = Mssp_fuzz.Gen
module Driver = Mssp_fuzz.Driver
module Pool = Mssp_exec.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the library itself ---------------------------------------------- *)

let test_exceptions_propagate () =
  let f i = if i = 3 || i = 7 then failwith (string_of_int i) else i in
  match Pool.map_runs ~jobs:4 f (List.init 10 Fun.id) with
  | exception Failure m -> check "lowest-index exception wins" true (m = "3")
  | _ -> Alcotest.fail "expected an item's exception to re-raise"

let test_map_runs_order () =
  let f x = (3 * x) + 1 in
  List.iter
    (fun (jobs, n) ->
      let xs = List.init n Fun.id in
      check
        (Printf.sprintf "order preserved (jobs %d, %d items)" jobs n)
        true
        (Pool.map_runs ~jobs f xs = List.map f xs))
    [ (4, 37); (5, 5); (8, 3) ]

(* [jobs <= 1] is [List.map]: same results, and [f] applied on the
   calling domain in item order *)
let test_serial_is_list_map () =
  List.iter
    (fun jobs ->
      let seen = ref [] in
      let f x =
        seen := x :: !seen;
        (x * x, Domain.self ())
      in
      let xs = List.init 9 Fun.id in
      let got = Pool.map_runs ~jobs f xs in
      check "results" true
        (List.map fst got = List.map (fun x -> x * x) xs);
      check "on the calling domain" true
        (List.for_all (fun (_, d) -> d = Domain.self ()) got);
      check "in item order" true (List.rev !seen = xs))
    [ 1; 0; -3 ]

(* every helper is joined before [map_runs] returns: 300 calls of up to
   9 domains each would pass OCaml's 128-domain cap if helpers leaked *)
let test_no_leaked_domains () =
  for i = 1 to 300 do
    let xs = List.init 8 (fun k -> k + i) in
    if Pool.map_runs ~jobs:8 succ xs <> List.map succ xs then
      Alcotest.failf "call %d: wrong results" i
  done

(* nested calls: helpers of the outer call start inner calls of their
   own; every one is joined before its caller returns *)
let test_nested_map_runs () =
  let inner x = Pool.map_runs ~jobs:2 (fun y -> x + y) [ 1; 2; 3 ] in
  check "nested map_runs" true
    (Pool.map_runs ~jobs:2 inner [ 10; 20; 30; 40 ]
    = List.map inner [ 10; 20; 30; 40 ])

(* --- machine determinism: helper domain == calling domain ------------ *)

let distill_bench name ~size ~train =
  let b = W.find name in
  let program = b.W.program ~size in
  let profile = Profile.collect (b.W.program ~size:train) in
  Distill.distill program profile

let run_recorded config d =
  let tracer, events = Trace.recording () in
  let r = M.run ~config:{ config with Config.tracer = Some tracer } d in
  (events (), r)

(* the same run on the calling domain, then 4 copies on helper domains *)
let serial_and_pooled config d =
  ( run_recorded config d,
    Pool.map_runs ~jobs:4 (fun () -> run_recorded config d) [ (); (); (); () ]
  )

let base4 = Config.with_slaves 4 Config.default

let same_run name (ev0, r0) (ev4, r4) =
  check_int (name ^ ": cycles") r0.M.stats.M.cycles r4.M.stats.M.cycles;
  check (name ^ ": whole stats record") true (r0.M.stats = r4.M.stats);
  check (name ^ ": stop reason") true (r0.M.stop = r4.M.stop);
  check (name ^ ": final architected state") true
    (Full.equal_observable r0.M.arch r4.M.arch);
  check_int (name ^ ": event count") (List.length ev0) (List.length ev4);
  check (name ^ ": event stream") true (List.for_all2 Trace.event_equal ev0 ev4);
  let s0 = Trace.Summary.of_events ev0 and s4 = Trace.Summary.of_events ev4 in
  check_int (name ^ ": summary commits") s0.Trace.Summary.commits
    s4.Trace.Summary.commits;
  check_int (name ^ ": summary squashes") s0.Trace.Summary.squashes
    s4.Trace.Summary.squashes

let test_vecsum_identical () =
  let d = distill_bench "vecsum" ~size:160 ~train:40 in
  let serial, pooled =
    serial_and_pooled { base4 with Config.task_size = 20 } d
  in
  List.iter (same_run "vecsum" serial) pooled

let program_arb ~min_size ~max_size =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = min_size + Random.State.int st (max_size - min_size + 1) in
    Gen.generate ~seed ~size ()
  in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source gen

let qc_config = { base4 with Config.max_cycles = 100_000_000 }

let prop_pool_identical =
  QCheck.Test.make ~name:"pool: 4 workers bit-identical to serial" ~count:25
    (program_arb ~min_size:5 ~max_size:20)
    (fun p ->
      let probe = Machine.run_program ~fuel:2_000_000 p in
      match probe.Machine.stopped with
      | Some Machine.Halted ->
        let profile = Profile.collect ~fuel:2_000_000 p in
        let d = Distill.distill p profile in
        let (ev0, r0), pooled = serial_and_pooled qc_config d in
        List.for_all
          (fun (ev4, r4) ->
            r0.M.stats = r4.M.stats
            && r0.M.stop = r4.M.stop
            && Full.equal_observable r0.M.arch r4.M.arch
            && List.length ev0 = List.length ev4
            && List.for_all2 Trace.event_equal ev0 ev4)
          pooled
      | _ -> true)

(* --- fuzz sharding: a parallel campaign is its shard replays ---------- *)

let test_fuzz_shards_replayable () =
  let parallel = Driver.campaign ~jobs:2 ~seed:7 ~count:6 () in
  let shard0 = Driver.campaign ~seed:7 ~count:3 () in
  let shard1 = Driver.campaign ~seed:8 ~count:3 () in
  check_int "programs" (shard0.Driver.programs + shard1.Driver.programs)
    parallel.Driver.programs;
  check_int "skipped" (shard0.Driver.skipped + shard1.Driver.skipped)
    parallel.Driver.skipped;
  check_int "runs" (shard0.Driver.runs + shard1.Driver.runs)
    parallel.Driver.runs;
  check_int "findings"
    (List.length shard0.Driver.findings + List.length shard1.Driver.findings)
    (List.length parallel.Driver.findings)

let () =
  Alcotest.run "exec"
    [
      ( "library",
        [
          Alcotest.test_case "exceptions propagate" `Quick
            test_exceptions_propagate;
          Alcotest.test_case "map_runs preserves order" `Quick
            test_map_runs_order;
          Alcotest.test_case "jobs <= 1 is List.map" `Quick
            test_serial_is_list_map;
          Alcotest.test_case "300 calls leak no domain" `Quick
            test_no_leaked_domains;
          Alcotest.test_case "nested map_runs (helping await)" `Quick
            test_nested_map_runs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "vecsum: pooled == serial" `Quick
            test_vecsum_identical;
          Mssp_testkit.to_alcotest prop_pool_identical;
        ] );
      ( "fuzz sharding",
        [
          Alcotest.test_case "jobs 2 == its two jobs-1 shard replays" `Quick
            test_fuzz_shards_replayable;
        ] );
    ]
