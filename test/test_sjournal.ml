(* The block-aware slave journal's bit-identity contract, tested
   differentially: a task body run with [Task.run ~block_journal:true]
   must match the single-step reference exactly — status, retirement
   count, the write buffer, the [on_access] sequence, and above all the
   first-read journal in content *and order* (the verification unit
   replays it in serial first-read order; squash attribution and
   predictor training key on that order). Hand-written shapes cover
   blocks, boundaries, budgets, SMC self-patching (within a run and
   across runs of one block cache), I/O latching and faults; QCheck
   covers fuzz programs with the SMC shape boosted; and full-machine
   legs pin the six kernels, a squash-forcing fault plan, code that a
   commit or a recovery segment rewrites, and fuzz programs with the
   block journal on and off, down to the cycle and the event stream. *)

module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Layout = Mssp_isa.Layout
module Machine = Mssp_seq.Machine
module Task = Mssp_task.Task
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module W = Mssp_workload.Workload
module Trace = Mssp_trace.Trace
module Gen = Mssp_fuzz.Gen
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- task-level differential ------------------------------------------ *)

let load_arch p =
  let s = Full.create () in
  Full.load s p;
  s

(* run one task body, collecting everything a caller can observe *)
let run_task ~block_journal ?engine ?(budget = 5_000) ?end_pc
    ?(end_occurrence = 1) ?(live_in = Fragment.empty) arch (p : Program.t) =
  let t =
    Task.make ~id:0 ~start_pc:p.Program.entry ~end_pc ~end_occurrence ~budget
      ~live_in
  in
  let acc = ref [] in
  let status =
    Task.run
      ~on_access:(fun c -> acc := c :: !acc)
      ~block_journal ?engine t (Task.Fallback arch)
  in
  (status, t, List.rev !acc)

let journal_list iter t =
  let l = ref [] in
  iter (fun c v -> l := (c, v) :: !l) t;
  List.rev !l

(* the whole observable surface, compared in order *)
let same_task ?budget ?end_pc ?end_occurrence ?live_in p =
  let arch = load_arch p in
  let s_on, t_on, a_on =
    run_task ~block_journal:true ?budget ?end_pc ?end_occurrence ?live_in arch
      p
  in
  let s_off, t_off, a_off =
    run_task ~block_journal:false ?budget ?end_pc ?end_occurrence ?live_in
      arch p
  in
  s_on = s_off
  && t_on.Task.executed = t_off.Task.executed
  && journal_list Task.iter_reads t_on = journal_list Task.iter_reads t_off
  && journal_list Task.iter_writes t_on = journal_list Task.iter_writes t_off
  && a_on = a_off

let assert_same_task ?budget ?end_pc ?end_occurrence ?live_in p =
  check "block journal = single-step" true
    (same_task ?budget ?end_pc ?end_occurrence ?live_in p)

(* --- hand-written shapes ---------------------------------------------- *)

let straightline =
  let b = Dsl.create () in
  Dsl.li b t0 50;
  Dsl.li b t1 0;
  Dsl.label b "head";
  for _ = 1 to 16 do
    Dsl.alui b Instr.Add t1 t1 3
  done;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "head";
  Dsl.halt b;
  Dsl.build b ()

let test_straightline () = assert_same_task straightline

let memory_traffic =
  let b = Dsl.create () in
  let buf = Dsl.alloc b 32 in
  Dsl.li b t0 31;
  Dsl.label b "fill";
  Dsl.alu b Instr.Add t1 t0 t0;
  Dsl.st b t1 t0 buf;
  Dsl.ld b t2 t0 buf;
  Dsl.out b t2;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Ge t0 zero "fill";
  Dsl.halt b;
  Dsl.build b ()

let test_memory_traffic () = assert_same_task memory_traffic

let test_calls_and_indirect () =
  let b = Dsl.create () in
  Dsl.label b "main";
  Dsl.jmp b "start";
  Dsl.label b "leaf";
  Dsl.alui b Instr.Mul t0 t0 7;
  Dsl.ret b;
  Dsl.label b "start";
  Dsl.li b t0 3;
  Dsl.call b "leaf";
  Dsl.call b "leaf";
  Dsl.la b t3 "leaf";
  Dsl.jalr b ra t3;
  Dsl.out b t0;
  Dsl.halt b;
  assert_same_task (Dsl.build ~entry:"main" b ())

(* the boundary lands mid-block: end_pc is the loop header, and the task
   completes on the third arrival — the block executor must stop at the
   same retirement as the interpreter, not at its block's end *)
let test_boundary_occurrence () =
  let p = straightline in
  let head = p.Program.entry + 2 in
  assert_same_task ~end_pc:head ~end_occurrence:3 p

(* every budget from 0 to past completion: budget exhaustion must cut a
   block short at exactly the interpreter's instruction *)
let test_budget_sweep () =
  for budget = 0 to 40 do
    check
      (Printf.sprintf "budget %d" budget)
      true
      (same_task ~budget memory_traffic)
  done

(* a task that patches its own body through the write buffer. The first
   store rewrites the very next word; in the loop, trip 1 executes the
   original word and trip 2 the patched one. Each store lands in the
   span of the block being executed, so the executor leaves the block
   after it; the next dispatch finds the span shadowed by the write
   buffer and single-steps it, so the patched fetch resolves from the
   buffer — all invisible against single-step. *)
let test_smc_self_patch () =
  let b = Dsl.create () in
  Dsl.li b s5 2;
  Dsl.li b t2 0;
  Dsl.la b s6 "ahead";
  Dsl.li b s7 (Instr.encode (Instr.Alui (Instr.Add, t2, t2, 100)));
  Dsl.st b s7 s6 0;
  Dsl.label b "ahead";
  Dsl.nop b;
  Dsl.label b "smc";
  Dsl.label b "patch";
  Dsl.nop b;
  Dsl.la b s6 "patch";
  Dsl.li b s7 (Instr.encode (Instr.Alui (Instr.Add, t2, t2, 7)));
  Dsl.st b s7 s6 0;
  Dsl.alui b Instr.Sub s5 s5 1;
  Dsl.br b Instr.Gt s5 zero "smc";
  Dsl.out b t2;
  Dsl.halt b;
  let p = Dsl.build b () in
  assert_same_task p;
  (* and both patched words really ran: t2 = 100 + 7 in the write
     buffer *)
  let arch = load_arch p in
  let _, t, _ = run_task ~block_journal:true arch p in
  check "patched words executed" true
    (Mssp_task.Journal.find t.Task.writes (Cell.Reg t2) = Some 107)

(* one block cache serves two task runs over one architected state, and
   between them a word inside a cached block changes with no report to
   the cache (as a commit or a recovery segment changes it in the
   machine). The second run must execute the new word: its first
   dispatch of the block checks the block's words against [arch]. *)
let test_smc_between_runs () =
  let b = Dsl.create () in
  Dsl.li b t2 0;
  Dsl.label b "patch";
  Dsl.alui b Instr.Add t2 t2 2;
  Dsl.out b t2;
  Dsl.halt b;
  let p = Dsl.build b () in
  let arch = load_arch p in
  let engine = Task.block_cache () in
  let _, t1, _ = run_task ~block_journal:true ~engine arch p in
  check "first run: t2 = 2" true
    (Mssp_task.Journal.find t1.Task.writes (Cell.Reg t2) = Some 2);
  Full.set_mem arch
    (List.assoc "patch" p.Program.symbols)
    (Instr.encode (Instr.Alui (Instr.Add, t2, t2, 8)));
  let s_on, t_on, a_on = run_task ~block_journal:true ~engine arch p in
  let s_off, t_off, a_off = run_task ~block_journal:false arch p in
  check "second run: t2 = 8" true
    (Mssp_task.Journal.find t_on.Task.writes (Cell.Reg t2) = Some 8);
  check "same status" true (s_on = s_off);
  check "same writes" true
    (journal_list Task.iter_writes t_on = journal_list Task.iter_writes t_off);
  check "same reads" true
    (journal_list Task.iter_reads t_on = journal_list Task.iter_reads t_off);
  check "same accesses" true (a_on = a_off)

(* speculative I/O: the latch semantics (instruction completes into the
   write buffer, then the task fails without retiring it) must be
   identical, including the recorded I/O cell and the access sequence *)
let test_io_latch () =
  let shapes =
    [
      (* store into the I/O region *)
      (fun b ->
        Dsl.li b t0 9;
        Dsl.li b t1 Layout.io_base;
        Dsl.st b t0 t1 0;
        Dsl.halt b);
      (* load from the I/O region *)
      (fun b ->
        Dsl.li b t1 Layout.io_base;
        Dsl.ld b t0 t1 4;
        Dsl.halt b);
    ]
  in
  List.iteri
    (fun i shape ->
      let b = Dsl.create () in
      shape b;
      let p = Dsl.build b () in
      check (Printf.sprintf "io shape %d" i) true (same_task p);
      let arch = load_arch p in
      let s, _, _ = run_task ~block_journal:true arch p in
      match s with
      | Task.Failed (Task.Io_speculative _) -> ()
      | _ -> Alcotest.fail "expected an I/O refusal")
    shapes

(* an undecodable word mid-body: the block builder refuses the region
   there, the single-step rung probes it, and the fault must carry the
   same pc and leave the same journals as the interpreter *)
let test_fault_parity () =
  let b = Dsl.create () in
  Dsl.li b t0 5;
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.alui b Instr.Add t1 t1 1;
  Dsl.halt b;
  let p = Dsl.build b () in
  let arch = load_arch p in
  Full.set_mem arch (p.Program.entry + 2) (-0x7EADBEEF);
  let s_on, t_on, a_on = run_task ~block_journal:true arch p in
  let s_off, t_off, a_off = run_task ~block_journal:false arch p in
  check "same status" true (s_on = s_off);
  (match s_on with
  | Task.Failed (Task.Fault (Mssp_seq.Exec.Undecodable { pc; _ })) ->
    check_int "fault pc" (p.Program.entry + 2) pc
  | _ -> Alcotest.fail "expected Undecodable fault");
  check_int "same executed" t_off.Task.executed t_on.Task.executed;
  check "same reads" true
    (journal_list Task.iter_reads t_on = journal_list Task.iter_reads t_off);
  check "same accesses" true (a_on = a_off)

(* --- property tests: fuzz programs, SMC boosted ------------------------ *)

let program_arb ?(weights = Gen.default_weights) ~min_size ~max_size () =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = min_size + Random.State.int st (max_size - min_size + 1) in
    Gen.generate ~weights ~seed ~size ()
  in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source gen

let prop_fuzz_task =
  QCheck.Test.make
    ~name:"fuzz task body: block journal = single-step (reads in order)"
    ~count:60
    (program_arb ~min_size:4 ~max_size:20 ())
    (fun p -> same_task ~budget:2_000 p)

let smc_heavy = Gen.smc_heavy

let prop_smc_task =
  QCheck.Test.make
    ~name:"SMC-heavy task body: block journal = single-step" ~count:40
    (program_arb ~weights:smc_heavy ~min_size:4 ~max_size:16 ())
    (fun p -> same_task ~budget:2_000 p)

(* --- full machine: kernels, fault shapes, and fuzz programs ------------ *)

let six_kernels =
  [ "vecsum"; "listwalk"; "branchy"; "qsort"; "hashbuild"; "matmul" ]

let distill_bench name ~size ~train =
  let b = W.find name in
  let program = b.W.program ~size in
  let profile = Profile.collect (b.W.program ~size:train) in
  Distill.distill program profile

let base4 = Config.with_slaves 4 Config.default

let run_recorded ~block_journal config d =
  let tracer, events = Trace.recording () in
  let r =
    M.run
      ~config:
        {
          config with
          Config.tracer = Some tracer;
          slave_block_journal = block_journal;
        }
      d
  in
  (events (), r)

let same_machine_run name (ev_on, r_on) (ev_off, r_off) =
  check_int (name ^ ": cycles") r_off.M.stats.M.cycles r_on.M.stats.M.cycles;
  check (name ^ ": whole stats record") true (r_off.M.stats = r_on.M.stats);
  check (name ^ ": stop reason") true (r_off.M.stop = r_on.M.stop);
  check (name ^ ": final architected state") true
    (Full.equal_observable r_off.M.arch r_on.M.arch);
  check_int (name ^ ": event count") (List.length ev_off) (List.length ev_on);
  check (name ^ ": event stream") true
    (List.for_all2 Trace.event_equal ev_off ev_on)

let test_kernels_identical () =
  List.iter
    (fun name ->
      let b = W.find name in
      let d =
        distill_bench name ~size:b.W.train_size
          ~train:(max 8 (b.W.train_size / 4))
      in
      let cfg = { base4 with Config.task_size = 20 } in
      same_machine_run name
        (run_recorded ~block_journal:true cfg d)
        (run_recorded ~block_journal:false cfg d))
    six_kernels

(* squash-forcing fault plan: every squash replays the staged first-read
   stream against architected state, and attribution picks the first
   mismatching cell in journal order — so this leg fails if staging
   ever reorders the stream *)
let test_fault_shape_identical () =
  let module Plan = Mssp_faults.Plan in
  let d = distill_bench "vecsum" ~size:160 ~train:40 in
  let stormy = Plan.make [ Plan.action Plan.Live_in_corrupt ~seed:11 ~p:0.25 ] in
  let cfg =
    { base4 with Config.task_size = 20; Config.faults = Some stormy }
  in
  let ev_on, r_on = run_recorded ~block_journal:true cfg d in
  let ev_off, r_off = run_recorded ~block_journal:false cfg d in
  check "squashes happened" true (r_on.M.stats.M.squashes > 0);
  same_machine_run "vecsum+faults" (ev_on, r_on) (ev_off, r_off)

(* Code rewritten between task runs of one slave. Every trip stores a
   value that the patch site computes into a buffer nobody reads (so the
   master's stale copy of the site never mispredicts a live-in), and
   trip [patch_trip] rewrites the site. With [~via_io] that trip first
   touches the I/O region, so its task fails and the rewrite lands in
   architected state from the recovery segment; otherwise from a commit.
   Later tasks dispatch the site from a block cached before the rewrite:
   the block must be rebuilt, or the stale word becomes a mismatching
   first-read and a squash the single-step run does not have. *)
let rewritten_loop ~via_io =
  let trips = 60 and patch_trip = 30 in
  let b = Dsl.create () in
  let buf = Dsl.alloc b trips in
  Dsl.li b s5 trips;
  Dsl.la b s6 "patch";
  Dsl.li b s7 (Instr.encode (Instr.Li (t4, 2)));
  Dsl.label b "loop";
  Dsl.label b "patch";
  Dsl.li b t4 1;
  Dsl.st b t4 s5 buf;
  Dsl.li b t3 patch_trip;
  Dsl.br b Instr.Ne s5 t3 "next";
  if via_io then begin
    Dsl.li b t3 Layout.io_base;
    Dsl.ld b t3 t3 0
  end;
  Dsl.st b s7 s6 0;
  Dsl.label b "next";
  Dsl.alui b Instr.Sub s5 s5 1;
  Dsl.br b Instr.Gt s5 zero "loop";
  Dsl.halt b;
  (Dsl.build b (), buf, patch_trip)

let test_rewrite_between_tasks ~via_io () =
  let p, buf, patch_trip = rewritten_loop ~via_io in
  let profile = Profile.collect p in
  let d = Distill.distill p profile in
  let cfg = { base4 with Config.task_size = 8 } in
  let ((_, r_on) as on) = run_recorded ~block_journal:true cfg d in
  let off = run_recorded ~block_journal:false cfg d in
  (* the I/O touch fails exactly the rewriting trip's task *)
  check_int "tasks failed" (if via_io then 1 else 0)
    r_on.M.stats.M.squash_task_failed;
  check "the rewrite took effect" true
    (Full.get_mem r_on.M.arch (buf + 1) = 2
    && Full.get_mem r_on.M.arch (buf + patch_trip + 1) = 1);
  same_machine_run
    (if via_io then "rewrite by recovery" else "rewrite by commit")
    on off

(* block journal {on,off} on fuzz programs: both runs bit-identical —
   the verification-time first-read stream (what squash attribution,
   stats and the event stream are derived from) is independent of the
   engine choice *)
let qc_config = { base4 with Config.max_cycles = 100_000_000 }

let prop_block_journal_identical =
  QCheck.Test.make
    ~name:"fuzz machine: block journal on/off bit-identical"
    ~count:20
    (program_arb ~min_size:5 ~max_size:20 ())
    (fun p ->
      let probe = Machine.run_program ~fuel:2_000_000 p in
      match probe.Machine.stopped with
      | Some Machine.Halted ->
        let profile = Profile.collect ~fuel:2_000_000 p in
        let d = Distill.distill p profile in
        let ev_ref, r_ref = run_recorded ~block_journal:false qc_config d in
        let ev, r = run_recorded ~block_journal:true qc_config d in
        r.M.stats = r_ref.M.stats
        && r.M.stop = r_ref.M.stop
        && Full.equal_observable r.M.arch r_ref.M.arch
        && List.length ev = List.length ev_ref
        && List.for_all2 Trace.event_equal ev ev_ref
      | _ -> true)

let () =
  Alcotest.run "sjournal"
    [
      ( "differential",
        [
          Alcotest.test_case "straight-line" `Quick test_straightline;
          Alcotest.test_case "memory traffic" `Quick test_memory_traffic;
          Alcotest.test_case "calls and indirect jumps" `Quick
            test_calls_and_indirect;
          Alcotest.test_case "boundary occurrence mid-block" `Quick
            test_boundary_occurrence;
          Alcotest.test_case "budget sweep" `Quick test_budget_sweep;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "SMC self-patch leaves the block" `Quick
            test_smc_self_patch;
          Alcotest.test_case "SMC between runs of one cache" `Quick
            test_smc_between_runs;
          Alcotest.test_case "speculative I/O latch" `Quick test_io_latch;
          Alcotest.test_case "fault parity" `Quick test_fault_parity;
        ] );
      ( "properties",
        [
          Mssp_testkit.to_alcotest prop_fuzz_task;
          Mssp_testkit.to_alcotest prop_smc_task;
        ] );
      ( "machine",
        [
          Alcotest.test_case "six kernels: block journal == single-step"
            `Quick test_kernels_identical;
          Alcotest.test_case "fault shape: squash replay identical" `Quick
            test_fault_shape_identical;
          Alcotest.test_case "code rewritten by a commit" `Quick
            (test_rewrite_between_tasks ~via_io:false);
          Alcotest.test_case "code rewritten by a recovery segment" `Quick
            (test_rewrite_between_tasks ~via_io:true);
          Mssp_testkit.to_alcotest prop_block_journal_identical;
        ] );
    ]
