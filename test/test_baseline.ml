(* Tests for the baseline machines. *)

module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Machine = Mssp_seq.Machine
module Exec = Mssp_seq.Exec
module Cache = Mssp_cache.Cache
module Hierarchy = Mssp_cache.Cache.Hierarchy
module Gen = Mssp_fuzz.Gen
module W = Mssp_workload.Workload
module B = Mssp_baseline.Baseline
module Config = Mssp_core.Mssp_config
module Dsl = Mssp_asm.Dsl
module Instr = Mssp_isa.Instr
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let loop n =
  let b = Dsl.create () in
  Dsl.li b t0 n;
  Dsl.label b "loop";
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.out b t0;
  Dsl.halt b;
  Dsl.build b ()

let test_sequential_counts () =
  let r = B.sequential (loop 100) in
  check "halts" true (r.B.stop = Machine.Halted);
  check_int "instructions" (1 + 200 + 1) r.B.instructions;
  (* at least base cost per instruction, plus fetch costs *)
  check "cycles >= 2x instructions" true (r.B.cycles >= 2 * r.B.instructions);
  check "final state has output" true (Machine.output r.B.state = [ 0 ])

let test_sequential_also_load () =
  let extra = Mssp_isa.Program.make ~base:Mssp_isa.Layout.distilled_base [| Instr.Nop |] in
  let r = B.sequential ~also_load:[ extra ] (loop 5) in
  check "extra image present" true
    (Mssp_isa.Instr.decode (Full.get_mem r.B.state Mssp_isa.Layout.distilled_base)
    = Some Instr.Nop)

let test_sequential_fuel () =
  let b = Dsl.create () in
  Dsl.label b "spin";
  Dsl.jmp b "spin";
  let r = B.sequential ~fuel:50 (Dsl.build b ()) in
  check "out of fuel" true (r.B.stop = Machine.Out_of_fuel);
  check_int "counted" 50 r.B.instructions

let test_oracle_faster_with_more_slaves () =
  let p = loop 2000 in
  let o1 = B.oracle_parallel ~slaves:1 p in
  let o4 = B.oracle_parallel ~slaves:4 p in
  let o8 = B.oracle_parallel ~slaves:8 p in
  check "halts" true (o4.B.stop = Machine.Halted);
  check "4 slaves beat 1" true (o4.B.cycles < o1.B.cycles);
  check "8 slaves beat 4" true (o8.B.cycles < o4.B.cycles);
  check "same instruction count" true (o1.B.instructions = o8.B.instructions)

let test_oracle_bounded_by_commit_serialization () =
  (* even with many slaves, per-task commit cost serializes *)
  let p = loop 2000 in
  let o = B.oracle_parallel ~slaves:64 ~task_size:100 p in
  let tasks = (o.B.instructions + 99) / 100 in
  let t = Config.default_timing in
  check "cycles >= commit chain" true
    (o.B.cycles >= tasks * (t.Config.verify_base + t.Config.commit_base))

let test_oracle_validates_slaves () =
  check "rejects zero slaves" true
    (try
       ignore (B.oracle_parallel ~slaves:0 (loop 5) : B.result);
       false
     with Invalid_argument _ -> true)

let test_speedup_helper () =
  let base = B.sequential (loop 100) in
  check "speedup 2x" true (B.speedup ~baseline:base (base.B.cycles / 2) >= 2.0);
  check "speedup 1x" true (abs_float (B.speedup ~baseline:base base.B.cycles -. 1.0) < 0.01)

let test_oracle_beats_sequential () =
  let p = loop 5000 in
  let base = B.sequential p in
  let o = B.oracle_parallel ~slaves:8 p in
  check "oracle faster than sequential" true (o.B.cycles < base.B.cycles)

(* --- the timed step ----------------------------------------------------- *)

(* The oracle: the closure-based timed step the baselines ran before
   [Exec.timed_step] — [Exec.step] with callbacks that charge every
   memory cell to the hierarchy as it is read or written. Returns the
   access cycles, or the stop. *)
let oracle_step cache ~stores state =
  let cost = ref 0 in
  let read c =
    (match c with
    | Cell.Mem a -> cost := !cost + Hierarchy.access cache a
    | Cell.Pc | Cell.Reg _ -> ());
    Some (Full.get state c)
  in
  let write c v =
    (match c with
    | Cell.Mem a ->
      cost := !cost + Hierarchy.access cache a;
      stores := (a, v) :: !stores
    | Cell.Pc | Cell.Reg _ -> ());
    Full.set state c v
  in
  match Exec.step ~read ~write with
  | Exec.Stepped -> Ok !cost
  | Exec.Halted -> Error Machine.Halted
  | Exec.Fault f -> Error (Machine.Faulted f)
  | Exec.Missing _ -> assert false

let direct_step cache ~stores state =
  let on_store a v = stores := (a, v) :: !stores in
  let c = Exec.timed_step ~on_store cache state in
  if c <> Exec.timed_stopped then Ok c
  else
    let pc = Full.pc state in
    let word = Full.get_mem state pc in
    match Instr.decode word with
    | Some Instr.Halt -> Error Machine.Halted
    | Some _ | None -> Error (Machine.Faulted (Exec.Undecodable { pc; word }))

(* Run a stepper from a fresh load of [p] for at most [fuel] steps over
   a hierarchy built from [l1]/[l2]; everything observable comes back. *)
let drive step ~l1 ~l2 ~fuel p =
  let state = Full.create () in
  Full.load state p;
  let cache = Hierarchy.make ~l1 ~l2 () in
  let stores = ref [] in
  let rec go cycles n =
    if n = fuel then (cycles, n, None)
    else
      match step cache ~stores state with
      | Ok c -> go (cycles + c) (n + 1)
      | Error stop -> (cycles, n, Some stop)
  in
  let cycles, retired, stop = go 0 0 in
  let stats s = (s.Cache.accesses, s.Cache.misses) in
  ( (cycles, retired, stop, List.rev !stores),
    (stats (Hierarchy.l1_stats cache), stats (Hierarchy.l2_stats cache)),
    state )

(* Cache shapes: the defaults, and a one-word direct-mapped L1 over a
   two-line L2 — there an access hits only when it repeats the previous
   address, so equal stats pin down the charged-address sequence far
   more tightly than the default geometry does. *)
let geometries =
  [
    (Cache.config (), Cache.config ~sets:1024 ~ways:8 ());
    ( Cache.config ~sets:1 ~ways:1 ~line_words:1 (),
      Cache.config ~sets:2 ~ways:1 ~line_words:1 () );
  ]

let same_timed_run ~fuel p =
  List.for_all
    (fun (l1, l2) ->
      let r_new, s_new, st_new = drive direct_step ~l1 ~l2 ~fuel p in
      let r_old, s_old, st_old = drive oracle_step ~l1 ~l2 ~fuel p in
      r_new = r_old && s_new = s_old && Full.equal_observable st_new st_old)
    geometries

let program_arb ?(weights = Gen.default_weights) ~min_size ~max_size () =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = min_size + Random.State.int st (max_size - min_size + 1) in
    Gen.generate ~weights ~seed ~size ()
  in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source gen

let prop_timed_fuzz =
  QCheck.Test.make ~name:"fuzz program: timed step = closure-charged step"
    ~count:80
    (program_arb ~min_size:4 ~max_size:20 ())
    (same_timed_run ~fuel:5_000)

let prop_timed_smc =
  QCheck.Test.make ~name:"SMC-heavy program: timed step = closure-charged step"
    ~count:40
    (program_arb ~weights:Gen.smc_heavy ~min_size:4 ~max_size:16 ())
    (same_timed_run ~fuel:5_000)

let test_timed_kernels () =
  List.iter
    (fun b ->
      check (b.W.name ^ ": timed step = closure-charged step") true
        (same_timed_run ~fuel:5_000_000 (b.W.program ~size:b.W.ref_size)))
    W.all

(* the stop paths: [Halt] and an undecodable word are charged their
   fetch and leave the state alone, exactly as before *)
let test_timed_stops () =
  check "halt" true (same_timed_run ~fuel:1_000 (loop 5));
  (* jump into the data segment, whose word is not an instruction *)
  let b = Dsl.create () in
  let junk = Dsl.data_words b [ -1 ] in
  Dsl.li b t0 junk;
  Dsl.jr b t0;
  let p = Dsl.build b () in
  let (_, _, stop, _), _, _ =
    drive direct_step ~l1:(Cache.config ()) ~l2:(Cache.config ()) ~fuel:10 p
  in
  check "faults" true
    (match stop with Some (Machine.Faulted _) -> true | _ -> false);
  check "garbage word" true (same_timed_run ~fuel:10 p)

(* --- ILP limit --- *)

(* independent adds: width should scale almost linearly *)
let parallel_adds n =
  let b = Dsl.create () in
  Dsl.li b t0 n;
  Dsl.label b "loop";
  (* four independent accumulators *)
  Dsl.alui b Instr.Add t1 t1 1;
  Dsl.alui b Instr.Add t2 t2 1;
  Dsl.alui b Instr.Add t3 t3 1;
  Dsl.alui b Instr.Add t4 t4 1;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.halt b;
  Dsl.build b ()

(* a serial dependence chain: width cannot help *)
let serial_chain n =
  let b = Dsl.create () in
  Dsl.li b t0 n;
  Dsl.li b t1 1;
  Dsl.label b "loop";
  Dsl.alui b Instr.Mul t1 t1 3;
  Dsl.alui b Instr.Add t1 t1 1;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.halt b;
  Dsl.build b ()

let test_ilp_width_scales_parallel_code () =
  let p = parallel_adds 2000 in
  let w1 = B.ilp_limit ~width:1 p in
  let w4 = B.ilp_limit ~width:4 p in
  check "halts" true (w4.B.stop = Machine.Halted);
  check "same instruction count" true (w1.B.instructions = w4.B.instructions);
  (* 4-wide at least 2.5x the 1-wide on independent work *)
  check "width scales" true
    (float_of_int w1.B.cycles /. float_of_int w4.B.cycles > 2.5)

let test_ilp_serial_chain_resists_width () =
  let p = serial_chain 2000 in
  let w1 = B.ilp_limit ~width:1 p in
  let w8 = B.ilp_limit ~width:8 p in
  (* the mul->add chain is 2 cycles/iteration no matter the width *)
  check "chain binds" true
    (float_of_int w1.B.cycles /. float_of_int w8.B.cycles < 2.5)

let test_ilp_loads_pay_cache () =
  (* pointer chasing pays the memory hierarchy even at infinite width *)
  let p = (Mssp_workload.Workload.find "listwalk").Mssp_workload.Workload.program ~size:300 in
  let r = B.ilp_limit ~width:8 p in
  check "halts" true (r.B.stop = Machine.Halted);
  check "slower than 1 IPC ideal" true (r.B.cycles > r.B.instructions / 8)

let test_ilp_window_bounds () =
  let p = parallel_adds 2000 in
  let small = B.ilp_limit ~width:8 ~window:8 p in
  let large = B.ilp_limit ~width:8 ~window:512 p in
  check "bigger window never slower" true (large.B.cycles <= small.B.cycles)

let () =
  Alcotest.run "baseline"
    [
      ( "sequential",
        [
          Alcotest.test_case "counts" `Quick test_sequential_counts;
          Alcotest.test_case "also_load" `Quick test_sequential_also_load;
          Alcotest.test_case "fuel" `Quick test_sequential_fuel;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "scales with slaves" `Quick
            test_oracle_faster_with_more_slaves;
          Alcotest.test_case "commit serialization" `Quick
            test_oracle_bounded_by_commit_serialization;
          Alcotest.test_case "validates" `Quick test_oracle_validates_slaves;
          Alcotest.test_case "speedup helper" `Quick test_speedup_helper;
          Alcotest.test_case "beats sequential" `Quick test_oracle_beats_sequential;
        ] );
      ( "timed step",
        [
          Alcotest.test_case "stop paths" `Quick test_timed_stops;
          Alcotest.test_case "13 kernels" `Quick test_timed_kernels;
          Mssp_testkit.to_alcotest prop_timed_fuzz;
          Mssp_testkit.to_alcotest prop_timed_smc;
        ] );
      ( "ilp limit",
        [
          Alcotest.test_case "width scales parallel code" `Quick
            test_ilp_width_scales_parallel_code;
          Alcotest.test_case "serial chain resists" `Quick
            test_ilp_serial_chain_resists_width;
          Alcotest.test_case "loads pay cache" `Quick test_ilp_loads_pay_cache;
          Alcotest.test_case "window bounds" `Quick test_ilp_window_bounds;
        ] );
    ]
