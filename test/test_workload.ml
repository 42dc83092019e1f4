(* Tests for the benchmark suite and generators: programs run, halt,
   produce size-dependent deterministic output; adversarial packages are
   well-formed. *)

module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Program = Mssp_isa.Program
module W = Mssp_workload.Workload
module Gen = Mssp_fuzz.Gen
module Adversary = Mssp_workload.Adversary

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_registry () =
  check_int "thirteen benchmarks" 13 (List.length W.all);
  check "find" true ((W.find "vecsum").W.name = "vecsum");
  check "find io" true ((W.find "io_ticker").W.name = "io_ticker");
  Alcotest.check_raises "unknown"
    (Invalid_argument "Workload.find: unknown benchmark \"nope\"") (fun () ->
      ignore (W.find "nope" : W.benchmark));
  check "names" true (List.length W.names = 13)

let run_bench (b : W.benchmark) size =
  let m = Machine.run_program ~fuel:50_000_000 (b.W.program ~size) in
  check (b.W.name ^ " halts") true (m.Machine.stopped = Some Machine.Halted);
  m

let test_all_run_and_halt () =
  List.iter
    (fun (b : W.benchmark) ->
      let m = run_bench b b.W.train_size in
      check (b.W.name ^ " outputs") true (Machine.output m.Machine.state <> []))
    (W.io_bench :: W.all)

let test_deterministic_images () =
  List.iter
    (fun (b : W.benchmark) ->
      let p1 = b.W.program ~size:50 and p2 = b.W.program ~size:50 in
      check (b.W.name ^ " same code") true (p1.Program.code = p2.Program.code);
      check (b.W.name ^ " same data") true (p1.Program.data = p2.Program.data))
    W.all

let test_output_scales () =
  (* more input, different (and more) work: dynamic count grows *)
  List.iter
    (fun (b : W.benchmark) ->
      let small = run_bench b b.W.train_size in
      let large = run_bench b (b.W.train_size * 2) in
      check
        (b.W.name ^ " work scales")
        true
        (large.Machine.instructions > small.Machine.instructions))
    W.all

let test_qsort_actually_sorts () =
  let p = (W.find "qsort").W.program ~size:80 in
  let m = Machine.run_program p in
  (* array base is the first data address *)
  let base = Mssp_isa.Layout.data_base in
  let sorted = ref true in
  for i = 0 to 78 do
    if Full.get_mem m.Machine.state (base + i) > Full.get_mem m.Machine.state (base + i + 1)
    then sorted := false
  done;
  check "sorted in place" true !sorted

let test_hashbuild_hit_counts () =
  let p = (W.find "hashbuild").W.program ~size:100 in
  let m = Machine.run_program p in
  (* n present keys hit; n absent (even) keys miss, so hits = n *)
  check "hits = n" true (Machine.output m.Machine.state = [ 100 ])

let test_strmatch_finds_planted () =
  let p = (W.find "strmatch").W.program ~size:600 in
  let m = Machine.run_program p in
  match Machine.output m.Machine.state with
  | [ count ] -> check "matches found" true (count >= 600 / 97)
  | _ -> Alcotest.fail "single output expected"

let test_io_ticker_writes_io () =
  let p = W.io_bench.W.program ~size:320 in
  let m = Machine.run_program p in
  let nonzero = ref 0 in
  for i = 0 to 15 do
    if Full.get_mem m.Machine.state (Mssp_isa.Layout.io_base + i) <> 0 then incr nonzero
  done;
  check_int "all ticks written" 16 !nonzero

(* --- adversaries --- *)

let test_adversary_packages () =
  let p = Gen.generate ~weights:Gen.plain ~seed:3 ~size:10 () in
  List.iter
    (fun (name, d) ->
      check (name ^ " original kept") true (d.Mssp_distill.Distill.original == p);
      check (name ^ " entry mapped") true
        (Hashtbl.mem d.Mssp_distill.Distill.entry_map p.Program.entry);
      check (name ^ " entry is boundary") true
        (d.Mssp_distill.Distill.task_entries = [ p.Program.entry ]))
    (Adversary.all p)

let () =
  Alcotest.run "workload"
    [
      ( "suite",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "all run and halt" `Quick test_all_run_and_halt;
          Alcotest.test_case "deterministic images" `Quick test_deterministic_images;
          Alcotest.test_case "work scales" `Quick test_output_scales;
          Alcotest.test_case "qsort sorts" `Quick test_qsort_actually_sorts;
          Alcotest.test_case "hashbuild hits" `Quick test_hashbuild_hit_counts;
          Alcotest.test_case "strmatch plants" `Quick test_strmatch_finds_planted;
          Alcotest.test_case "io ticker" `Quick test_io_ticker_writes_io;
        ] );
      ( "generators",
        [
          Alcotest.test_case "adversary packages" `Quick test_adversary_packages;
        ] );
    ]
