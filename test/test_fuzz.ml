(* The differential fuzzing subsystem, turned on itself:
   - the committed corpus replays clean through the full oracle on every
     [dune runtest];
   - the generator is deterministic and actually produces the
     paged-span-edge traffic it advertises;
   - the shrinker is well-founded (every candidate strictly smaller);
   - a machine with a DELIBERATELY broken verify/commit unit
     ([Oracle.chaos_point], a quiet [Commit_corrupt] fault plan) is
     caught by the oracle and shrunk to a tiny repro — the mutation
     smoke test that proves the oracle has teeth. *)

module Gen = Mssp_fuzz.Gen
module Oracle = Mssp_fuzz.Oracle
module Shrink = Mssp_fuzz.Shrink
module Corpus = Mssp_fuzz.Corpus
module Driver = Mssp_fuzz.Driver
module Program = Mssp_isa.Program
module Instr = Mssp_isa.Instr
module Machine = Mssp_seq.Machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* under [dune runtest] the cwd is [_build/default/test] and the corpus
   is a sibling; under [dune exec] from the project root it is below us *)
let corpus_dir =
  if Sys.file_exists "../fuzz/corpus" then "../fuzz/corpus" else "fuzz/corpus"

let paged_span = 4096 * 4096

let pp_failures fs =
  String.concat "; "
    (List.map
       (fun (f : Oracle.failure) ->
         Printf.sprintf "[%s] %s" f.Oracle.point f.Oracle.reason)
       fs)

let test_corpus_replays () =
  let files = Corpus.files corpus_dir in
  check "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      match Corpus.load path with
      | Error e -> Alcotest.failf "%s: parse error: %s" path e
      | Ok p -> (
        match Oracle.check p with
        | Oracle.Passed _ -> ()
        | Oracle.Skipped reason ->
          Alcotest.failf "%s: reference run no longer halts: %s" path reason
        | Oracle.Failed fs ->
          Alcotest.failf "%s: DIVERGED: %s" path (pp_failures fs)))
    files

(* the three weight profiles every caller draws from *)
let profiles =
  [
    ("default", Gen.default_weights);
    ("smc-heavy", Gen.smc_heavy);
    ("plain", Gen.plain);
  ]

let test_gen_deterministic profiles () =
  List.iter
    (fun (name, weights) ->
      let p1 = Gen.generate ~weights ~seed:42 ~size:12 () in
      let p2 = Gen.generate ~weights ~seed:42 ~size:12 () in
      check (name ^ ": same seed, same code") true
        (p1.Program.code = p2.Program.code);
      check (name ^ ": same seed, same data") true
        (p1.Program.data = p2.Program.data);
      let p3 = Gen.generate ~weights ~seed:43 ~size:12 () in
      check (name ^ ": different seed, different code") true
        (p3.Program.code <> p1.Program.code))
    profiles

let test_gen_terminates () =
  List.iter
    (fun (name, weights) ->
      List.iter
        (fun seed ->
          let p = Gen.generate ~weights ~seed ~size:20 () in
          let stopped = (Machine.run_program ~fuel:1_000_000 p).Machine.stopped in
          check (Printf.sprintf "%s seed %d halts or faults" name seed) true
            (stopped <> None && stopped <> Some Machine.Out_of_fuel))
        [ 0; 1; 2; 3; 4; 5; 42; 1337 ])
    profiles

(* The default and smc-heavy streams are what replay lines, the
   committed corpus seeds and perfbench's fuzz set-up regenerate from a
   seed: pin a digest of a few programs of each, so a change to the
   generator that moves them is deliberate. *)
let test_gen_pinned () =
  let digest weights seeds =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map
               (fun seed ->
                 Mssp_asm.Emit.program_to_source
                   (Gen.generate ~weights ~seed ~size:(6 + (seed mod 19)) ()))
               seeds)))
  in
  Alcotest.(check string) "default stream" "45f221c97cb67655dd004e68eb5f3da8"
    (digest Gen.default_weights [ 1; 7; 42; 1337 ]);
  Alcotest.(check string) "smc-heavy stream" "f71133a04c440190de2c4f1a9df280b1"
    (digest Gen.smc_heavy [ 3; 9; 100 ])

let test_gen_hits_overflow_addresses () =
  (* with far_mem shapes requested, the program must carry addresses at
     or beyond the paged span (or negative), i.e. overflow-table traffic *)
  let weights = { Gen.default_weights with Gen.far_mem = 60 } in
  let p = Gen.generate ~weights ~seed:5 ~size:20 () in
  let has_far =
    Array.exists
      (function
        | Instr.Li (_, v) -> v < 0 || v >= paged_span
        | _ -> false)
      p.Program.code
  in
  check "generates overflow-table addresses" true has_far

let test_shrink_well_founded () =
  let p = Gen.generate ~seed:9 ~size:15 () in
  let w = Shrink.weight p in
  let cands = Shrink.candidates p in
  check "has candidates" true (cands <> []);
  List.iter
    (fun q -> check "candidate strictly smaller" true (Shrink.weight q < w))
    cands

(* every campaign axis runs clean on the sound machine *)
let test_campaign_smoke axis () =
  let r = Driver.campaign ~axis ~seed:7 ~count:3 () in
  check_int "no findings on the sound machine" 0 (List.length r.Driver.findings);
  check "grid actually ran" true (r.Driver.runs > 0)

(* [save] counts saved programs, not iterations: with a fuel so small
   that early programs are skipped, exactly [save] passing programs are
   still written *)
let test_campaign_saves () =
  let dir = Filename.temp_file "mssp_fuzz_save" "" in
  Sys.remove dir;
  let r = Driver.campaign ~fuel:200 ~out:dir ~save:3 ~seed:1 ~count:12 ()
  in
  let files = Corpus.files dir in
  check "early programs were skipped" true (r.Driver.skipped > 0);
  check_int "exactly three seeds saved" 3 (List.length files);
  List.iter Sys.remove files;
  Sys.rmdir dir

(* the mutation smoke test: a broken commit unit must be caught, and the
   witness must shrink to a handful of instructions.  Crucially the test
   asserts the FAILURE SIGNATURE of the shrunk witness — a corrupted
   commit shows up as state divergence or a refinement violation at the
   chaos-commit grid point — not merely that the oracle fired; a shrink
   that wandered onto an unrelated failure would be caught here. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let chaos_signature (fs : Oracle.failure list) =
  fs <> []
  && List.for_all (fun (f : Oracle.failure) -> f.Oracle.point = "chaos-commit") fs
  && List.exists
       (fun (f : Oracle.failure) ->
         contains f.Oracle.reason "final state diverges"
         || contains f.Oracle.reason "jumping-refinement violation")
       fs

(* shrink against the signature, not bare failure: the minimized witness
   must still exhibit a corrupted commit, not just any divergence *)
let chaos_failing grid p =
  match Oracle.check ~formal:false ~grid p with
  | Oracle.Failed fs -> chaos_signature fs
  | Oracle.Passed _ | Oracle.Skipped _ -> false

let test_broken_commit_caught_and_shrunk () =
  let grid = [ Oracle.chaos_point ~seed:3 ~p:1.0 ] in
  let rec find seed =
    if seed > 20 then Alcotest.fail "chaos commit was never caught"
    else
      let p = Gen.generate ~seed ~size:10 () in
      if chaos_failing grid p then p else find (seed + 1)
  in
  let p = find 1 in
  let shrunk = Shrink.minimize ~budget:800 ~failing:(chaos_failing grid) p in
  let shrunk_failures =
    match Oracle.check ~formal:false ~grid shrunk with
    | Oracle.Failed fs -> fs
    | Oracle.Passed _ -> Alcotest.fail "shrunk witness no longer failing"
    | Oracle.Skipped r -> Alcotest.failf "shrunk witness skipped: %s" r
  in
  check
    (Printf.sprintf "shrunk witness carries the chaos-commit signature (%s)"
       (pp_failures shrunk_failures))
    true
    (chaos_signature shrunk_failures);
  let n = Shrink.instructions shrunk in
  check (Printf.sprintf "shrunk to <= 10 instructions (got %d)" n) true
    (n <= 10);
  (* the traced replay agrees: the machine committed work before (or
     while) diverging, and the event stream closes with a halt *)
  (match Oracle.trace_failure ~grid shrunk with
  | None -> Alcotest.fail "traced replay of the shrunk witness found no failure"
  | Some (tpoint, events, _) ->
    check "traced replay fails at the chaos point" true
      (contains tpoint "chaos-commit");
    let module Trace = Mssp_trace.Trace in
    let s = Trace.Summary.of_events events in
    check "traced replay committed at least one task" true
      (s.Trace.Summary.commits > 0);
    check "event stream ends in a halt" true
      (List.exists (function Trace.Halt _ -> true | _ -> false) events));
  (* the repro pipeline round-trips: save, reload, still failing *)
  let dir = Filename.temp_file "mssp_fuzz" "" in
  Sys.remove dir;
  let path =
    Corpus.save ~dir ~name:"chaos_repro"
      ~comment:[ "mutation smoke test witness" ] shrunk
  in
  (match Corpus.load path with
  | Error e -> Alcotest.failf "repro did not re-parse: %s" e
  | Ok p' -> check "reloaded repro still failing" true (Oracle.failing ~grid p'));
  Sys.remove path;
  Sys.rmdir dir

(* a finding ships the standard trail: the shrunk repro, its JSONL
   event trail beside it, and a comment line with the trace's squash
   attribution and predictor outcomes *)
let test_traced_finding () =
  let dir = Filename.temp_file "mssp_fuzz_trace" "" in
  Sys.remove dir;
  let grid = [ Oracle.chaos_point ~seed:3 ~p:1.0 ] in
  let r =
    Driver.campaign ~grid ~size:10 ~shrink_budget:50 ~out:dir ~trace:true
      ~seed:1 ~count:3 ()
  in
  check "the broken commit unit was caught" true (r.Driver.findings <> []);
  let read path = In_channel.with_open_text path In_channel.input_all in
  List.iter
    (fun (f : Driver.finding) ->
      match (f.Driver.repro_path, f.Driver.trace_path) with
      | Some repro, Some trail ->
        check "repro comment carries the trace's predictor outcomes" true
          (contains (read repro) "trace [chaos-commit]: "
          && contains (read repro) "hits /");
        check "non-empty trail beside the repro" true
          (Filename.dirname trail = dir && read trail <> "")
      | _ -> Alcotest.fail "finding without a repro and a trail")
    r.Driver.findings;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* --- the pass-subset axis ------------------------------------------ *)

(* the distill grid (honest control + empty pipeline + every pass alone
   + a random valid subset) agrees with SEQ on generated programs *)
let test_distill_grid_clean () =
  let rec go seed checked =
    if checked >= 3 || seed > 20 then
      check "distill grid judged at least 3 programs" true (checked >= 3)
    else
      let p = Gen.generate ~seed ~size:10 () in
      let grid = Oracle.distill_grid ~seed () in
      match Oracle.check ~formal:false ~grid p with
      | Oracle.Passed n ->
        check "every grid point ran" true (n >= List.length grid);
        go (seed + 1) (checked + 1)
      | Oracle.Skipped _ -> go (seed + 1) checked
      | Oracle.Failed fs ->
        Alcotest.failf "seed %d: distill grid diverged: %s" seed
          (pp_failures fs)
  in
  go 1 0

(* the random-subset point is a deterministic function of its seed, so
   campaign findings replay from the one-line seed *)
let test_random_subset_deterministic () =
  List.iter
    (fun seed ->
      let s1 = Oracle.random_subset ~seed in
      let s2 = Oracle.random_subset ~seed in
      check "same seed, same subset" true (s1 = s2);
      List.iter
        (fun n -> check "subset draws from the registry" true
            (List.mem n Oracle.switchable_passes))
        s1;
      check "order is valid" true (Oracle.valid_order s1 = s1))
    [ 0; 1; 7; 42; 1000 ]

(* a deliberately broken pass must be rejected by the pass-checker at
   the oracle level — the distiller's mutation smoke test. The material
   (biased branches, communicating stores, a fork-carrying layout) is
   searched for among generated programs, mirroring chaos-commit. *)
let pass_checker_signature bad (fs : Oracle.failure list) =
  fs <> []
  && List.for_all
       (fun (f : Oracle.failure) ->
         contains f.Oracle.point bad && contains f.Oracle.reason "pass-checker")
       fs

let test_broken_pass_caught_by_oracle () =
  List.iter
    (fun bad ->
      let grid = [ Oracle.broken_pass_point bad ] in
      let rec find seed =
        if seed > 40 then
          Alcotest.failf "%s was never caught in 40 generated programs" bad
        else
          match Oracle.check ~formal:false ~grid (Gen.generate ~seed ~size:12 ()) with
          | Oracle.Failed fs when pass_checker_signature bad fs -> ()
          | Oracle.Failed fs ->
            Alcotest.failf "%s: failure without the pass-checker signature: %s"
              bad (pp_failures fs)
          | Oracle.Passed _ | Oracle.Skipped _ -> find (seed + 1)
      in
      find 1)
    [ "broken-harden"; "broken-stores"; "broken-forks" ]

let () =
  Alcotest.run "fuzz"
    [
      ( "corpus",
        [ Alcotest.test_case "replays clean" `Quick test_corpus_replays ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick
            (test_gen_deterministic
               [
                 ("default", Gen.default_weights);
                 ("smc-heavy", Gen.smc_heavy);
               ]);
          Alcotest.test_case "plain deterministic" `Quick
            (test_gen_deterministic [ ("plain", Gen.plain) ]);
          Alcotest.test_case "terminates" `Quick test_gen_terminates;
          Alcotest.test_case "pinned streams" `Quick test_gen_pinned;
          Alcotest.test_case "overflow addresses" `Quick
            test_gen_hits_overflow_addresses;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "well-founded" `Quick test_shrink_well_founded;
        ] );
      ( "driver",
        [
          Alcotest.test_case "campaign smoke" `Quick
            (test_campaign_smoke Driver.Standard);
          Alcotest.test_case "campaign smoke faults" `Quick
            (test_campaign_smoke Driver.Faults);
          Alcotest.test_case "campaign smoke distill" `Quick
            (test_campaign_smoke Driver.Distill);
          Alcotest.test_case "campaign smoke predict" `Quick
            (test_campaign_smoke Driver.Predict);
          Alcotest.test_case "save counts saved programs" `Quick
            test_campaign_saves;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "broken commit caught and shrunk" `Quick
            test_broken_commit_caught_and_shrunk;
          Alcotest.test_case "broken pass caught by the oracle" `Quick
            test_broken_pass_caught_by_oracle;
          Alcotest.test_case "traced finding ships its trail" `Quick
            test_traced_finding;
        ] );
      ( "distill grid",
        [
          Alcotest.test_case "grid clean on generated programs" `Quick
            test_distill_grid_clean;
          Alcotest.test_case "random subset deterministic" `Quick
            test_random_subset_deterministic;
        ] );
    ]
