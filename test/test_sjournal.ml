(* The slave journal step against the specification, differentially: a
   task body run with [Task.run] must match a spec slave — a single-step
   loop of [Exec.step] whose read and write callbacks resolve write
   buffer, then live-in, then view, exactly as [Task]'s contract states
   — in status, retirement count, write buffer, [on_access] sequence,
   and above all the first-read journal in content *and order* (the
   verification unit replays it in serial first-read order; squash
   attribution keys on that order). [Task.run] decodes through the
   program's pre-decoded image, as the machine's slaves do; the spec
   slave decodes every word afresh. Hand-written shapes cover loops,
   boundaries, budgets, self-patching code, code rewritten between
   runs, I/O latching, faults and isolated-view misses; QCheck covers
   generated programs (default and SMC-heavy weights) on both views;
   and two machine legs pin code that a commit or a recovery segment
   rewrites between a slave's tasks against SEQ. *)

module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Live_in = Mssp_state.Live_in
module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Layout = Mssp_isa.Layout
module Reg = Mssp_isa.Reg
module Exec = Mssp_seq.Exec
module Machine = Mssp_seq.Machine
module Task = Mssp_task.Task
module Journal = Mssp_task.Journal
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Gen = Mssp_fuzz.Gen
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the spec slave ------------------------------------------------------

   [Exec.step] over callbacks into the task's journals: reads resolve
   write buffer -> live-in -> view and record their first value, writes
   land in the write buffer, every memory touch is reported, and the
   first I/O touch of an instruction is latched and fails the task once
   the instruction has completed into the write buffer. *)

let spec_run ~on_access (t : Task.t) view =
  let io = ref None in
  let touch a =
    if Layout.is_io a && !io = None then io := Some (Cell.mem a);
    on_access a
  in
  (* the live-in as the partial state it binds, independent of its
     register mask and memory bounds *)
  let live_in =
    let li = Live_in.to_fragment t.Task.live_in in
    fun c -> Fragment.find_opt c li
  in
  let resolve c =
    match Journal.find t.Task.writes c with
    | Some _ as r -> r
    | None ->
      let r =
        match live_in c with
        | Some _ as r -> r
        | None -> (
          match (view, c) with
          | Task.Fallback arch, _ -> Some (Full.get arch c)
          | Task.Isolated, Cell.Mem _ -> Some 0
          | Task.Isolated, (Cell.Pc | Cell.Reg _) -> None)
      in
      (match r with
      | Some v when not (Journal.mem t.Task.reads c) ->
        Journal.set t.Task.reads c v
      | Some _ | None -> ());
      r
  in
  let read c =
    (match c with Cell.Mem a -> touch a | Cell.Pc | Cell.Reg _ -> ());
    resolve c
  in
  let write c v =
    (match c with Cell.Mem a -> touch a | Cell.Pc | Cell.Reg _ -> ());
    Journal.set t.Task.writes c v
  in
  let rec go () =
    if t.Task.executed >= t.Task.budget then Task.Failed Task.Budget_exhausted
    else begin
      io := None;
      let outcome = Exec.step ~read ~write in
      match (!io, outcome) with
      | Some c, _ -> Task.Failed (Task.Io_speculative c)
      | None, Exec.Stepped -> (
        t.Task.executed <- t.Task.executed + 1;
        match (t.Task.end_pc, Journal.pc t.Task.writes) with
        | Some e, Some pc when pc = e ->
          t.Task.end_seen <- t.Task.end_seen + 1;
          if t.Task.end_seen >= t.Task.end_occurrence then
            Task.Complete Task.Reached_boundary
          else go ()
        | _ -> go ())
      | None, Exec.Halted -> Task.Complete Task.Program_halted
      | None, Exec.Fault f -> Task.Failed (Task.Fault f)
      | None, Exec.Missing c -> Task.Failed (Task.Missing_cell c)
    end
  in
  let status = go () in
  t.Task.status <- status;
  status

(* --- the differential ---------------------------------------------------- *)

let load_arch p =
  let s = Full.create () in
  Full.load s p;
  s

let journal_list iter t =
  let l = ref [] in
  iter (fun c v -> l := (c, v) :: !l) t;
  List.rev !l

(* one task body on one executor, with everything a caller can observe:
   status, retirements, first-reads and writes in journal order, and
   the memory touches in order *)
let observe ~spec ?(budget = 5_000) ?end_pc ?(end_occurrence = 1)
    ?(live_in = Fragment.empty) ?start_pc view (p : Program.t) =
  let start_pc = Option.value start_pc ~default:p.Program.entry in
  let decode =
    if spec then Mssp_seq.Exec.default_decode
    else Program.image_decoder [ Program.decode_all p ]
  in
  let t =
    Task.make ~id:0 ~start_pc ~end_pc ~end_occurrence ~budget
      ~live_in:(Live_in.of_fragment live_in) ~decode
      ~reads:(Journal.create ()) ~writes:(Journal.create ())
  in
  let acc = ref [] in
  let on_access a = acc := a :: !acc in
  let status =
    if spec then spec_run ~on_access t view else Task.run ~on_access t view
  in
  ( status,
    t.Task.executed,
    journal_list Task.iter_reads t,
    journal_list Task.iter_writes t,
    List.rev !acc )

let same_task ?budget ?end_pc ?end_occurrence ?live_in ?start_pc ?view p =
  let view =
    match view with Some v -> v | None -> Task.Fallback (load_arch p)
  in
  observe ~spec:false ?budget ?end_pc ?end_occurrence ?live_in ?start_pc view p
  = observe ~spec:true ?budget ?end_pc ?end_occurrence ?live_in ?start_pc view
      p

let assert_same_task ?budget ?end_pc ?end_occurrence ?live_in ?start_pc ?view
    p =
  check "slave step = spec slave" true
    (same_task ?budget ?end_pc ?end_occurrence ?live_in ?start_pc ?view p)

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

(* the boundary is the loop header, inside a straight-line region, and
   the task completes on its third arrival: the same retirement as the
   spec slave *)
let test_boundary_occurrence () =
  let p = straightline in
  let head = p.Program.entry + 2 in
  assert_same_task ~end_pc:head ~end_occurrence:3 p

(* every budget from 0 to past completion: budget exhaustion must stop
   at exactly the spec slave's instruction *)
let test_budget_sweep () =
  for budget = 0 to 40 do
    check
      (Printf.sprintf "budget %d" budget)
      true
      (same_task ~budget memory_traffic)
  done

(* a task that patches its own body through the write buffer. The first
   store rewrites the very next word; in the loop, trip 1 executes the
   original word and trip 2 the patched one. The patched fetches must
   resolve from the write buffer, and record no first-read. *)
let smc_self_patch =
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
  Dsl.build b ()

let test_smc_self_patch () =
  let p = smc_self_patch in
  assert_same_task p;
  (* and both patched words really ran: t2 = 100 + 7 in the write
     buffer *)
  let _, _, _, writes, _ =
    observe ~spec:false (Task.Fallback (load_arch p)) p
  in
  check "patched words executed" true (List.mem (Cell.Reg t2, 107) writes)

(* two task runs over one architected state, and between them a word of
   the body changes (as a commit or a recovery segment changes it in the
   machine): the second run must execute the new word *)
let test_code_rewritten_between_runs () =
  let b = Dsl.create () in
  Dsl.li b t2 0;
  Dsl.label b "patch";
  Dsl.alui b Instr.Add t2 t2 2;
  Dsl.out b t2;
  Dsl.halt b;
  let p = Dsl.build b () in
  let arch = load_arch p in
  let t2_of run =
    let _, _, _, writes, _ = run in
    List.assoc (Cell.Reg t2) writes
  in
  check_int "first run: t2 = 2" 2
    (t2_of (observe ~spec:false (Task.Fallback arch) p));
  Full.set_mem arch
    (List.assoc "patch" p.Program.symbols)
    (Instr.encode (Instr.Alui (Instr.Add, t2, t2, 8)));
  check_int "second run: t2 = 8" 8
    (t2_of (observe ~spec:false (Task.Fallback arch) p));
  assert_same_task ~view:(Task.Fallback arch) p

(* speculative I/O: the latch semantics (instruction completes into the
   write buffer, then the task fails without retiring it) must be
   identical, including the recorded I/O cell and the access sequence —
   for a store, a load, an [Out] whose slot lands in the region, and a
   fetch from it *)
let test_io_latch () =
  let shapes =
    [
      (fun b ->
        Dsl.li b t0 9;
        Dsl.li b t1 Layout.io_base;
        Dsl.st b t0 t1 0;
        Dsl.halt b);
      (fun b ->
        Dsl.li b t1 Layout.io_base;
        Dsl.ld b t0 t1 4;
        Dsl.halt b);
      (fun b ->
        Dsl.li b t0 (Layout.io_base - Layout.out_base);
        Dsl.li b t1 0;
        Dsl.st b t0 zero Layout.out_count_addr;
        Dsl.out b t1;
        Dsl.halt b);
      (fun b ->
        Dsl.li b t1 Layout.io_base;
        Dsl.jr b t1);
    ]
  in
  List.iteri
    (fun i shape ->
      let b = Dsl.create () in
      shape b;
      let p = Dsl.build b () in
      check (Printf.sprintf "io shape %d" i) true (same_task p);
      match observe ~spec:false (Task.Fallback (load_arch p)) p with
      | Task.Failed (Task.Io_speculative _), _, _, _, _ -> ()
      | _ -> Alcotest.fail "expected an I/O refusal")
    shapes

(* an undecodable word mid-body: the fault must carry the same pc and
   leave the same journals as the spec slave *)
let test_fault_parity () =
  let b = Dsl.create () in
  Dsl.li b t0 5;
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.alui b Instr.Add t1 t1 1;
  Dsl.halt b;
  let p = Dsl.build b () in
  let arch = load_arch p in
  Full.set_mem arch (p.Program.entry + 2) (-0x7EADBEEF);
  assert_same_task ~view:(Task.Fallback arch) p;
  match observe ~spec:false (Task.Fallback arch) p with
  | Task.Failed (Task.Fault (Exec.Undecodable { pc; _ })), _, _, _, _ ->
    check_int "fault pc" (p.Program.entry + 2) pc
  | _ -> Alcotest.fail "expected Undecodable fault"

(* An isolated task sees only its live-in: the program's memory image
   (code included, as the machine's isolated live-in snapshots it) and
   the given register bindings. *)
let isolated_live_in p regs =
  List.fold_left
    (fun f (c, v) -> Fragment.add c v f)
    (Fragment.filter (fun c _ -> Cell.is_mem c) (Full.snapshot (load_arch p)))
    regs

(* isolated view: a register bound nowhere is [Missing]; with both
   operands unbound the same one must be reported, and a fetch from the
   I/O region latches before the miss *)
let test_isolated_missing () =
  let add =
    let b = Dsl.create () in
    Dsl.alu b Instr.Add t2 t0 t1;
    Dsl.alui b Instr.Add t2 t2 1;
    Dsl.halt b;
    Dsl.build b ()
  in
  let reg r v = (Cell.Reg r, v) in
  List.iter
    (fun (what, regs) ->
      check what true
        (same_task ~live_in:(isolated_live_in add regs) ~view:Task.Isolated
           add))
    [
      ("both operands bound", [ reg t0 1; reg t1 2 ]);
      ("rs2 unbound", [ reg t0 1 ]);
      ("rs1 unbound", [ reg t1 2 ]);
      ("both unbound", []);
    ];
  (match
     observe ~spec:false ~live_in:(isolated_live_in add [ reg t0 1 ])
       Task.Isolated add
   with
  | Task.Failed (Task.Missing_cell c), 0, _, writes, _ ->
    check "t1 missing" true (Cell.equal c (Cell.Reg t1));
    check "nothing written" true (writes = [])
  | _ -> Alcotest.fail "expected a missing t1");
  let word = Instr.encode (Instr.Alu (Instr.Add, t2, t0, t1)) in
  let live_in = Fragment.of_list [ (Cell.mem Layout.io_base, word) ] in
  check "I/O fetch, then a miss" true
    (same_task ~live_in ~start_pc:Layout.io_base ~view:Task.Isolated add);
  match
    observe ~spec:false ~live_in ~start_pc:Layout.io_base Task.Isolated add
  with
  | Task.Failed (Task.Io_speculative c), _, _, _, _ ->
    check "the fetch is the I/O touch" true
      (Cell.equal c (Cell.mem Layout.io_base))
  | _ -> Alcotest.fail "expected an I/O refusal"

(* --- property tests: generated programs, SMC boosted --------------------- *)

(* a generated program, and for the isolated view its memory image and
   a random subset of the registers *)
let case_arb ?(weights = Gen.default_weights) ~min_size ~max_size () =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = min_size + Random.State.int st (max_size - min_size + 1) in
    let regs =
      List.filter_map
        (fun r ->
          if Random.State.bool st then
            Option.map (fun c -> (c, Random.State.int st 64)) (Cell.reg r)
          else None)
        Reg.all
    in
    let p = Gen.generate ~weights ~seed ~size () in
    (p, isolated_live_in p regs)
  in
  QCheck.make
    ~print:(fun (p, li) ->
      Mssp_asm.Emit.program_to_source p ^ "\nisolated live-in "
      ^ Fragment.show li)
    gen

let both_views (p, live_in) =
  same_task ~budget:2_000 p
  && same_task ~budget:2_000 ~live_in ~view:Task.Isolated p

let prop_fuzz_task =
  QCheck.Test.make ~name:"fuzz task body: slave step = spec slave" ~count:60
    (case_arb ~min_size:4 ~max_size:20 ())
    both_views

let prop_smc_task =
  QCheck.Test.make ~name:"SMC-heavy task body: slave step = spec slave"
    ~count:40
    (case_arb ~weights:Gen.smc_heavy ~min_size:4 ~max_size:16 ())
    both_views

(* --- full machine: code rewritten between a slave's tasks ---------------- *)

(* Every trip stores a value that the patch site computes into a buffer
   nobody reads (so the master's stale copy of the site never
   mispredicts a live-in), and trip [patch_trip] rewrites the site. With
   [~via_io] that trip first touches the I/O region, so its task fails
   and the rewrite lands in architected state from the recovery segment;
   otherwise from a commit. Later tasks must fetch the new word: a stale
   one becomes a wrong value in the buffer, and the run leaves SEQ. *)
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
  let d = Distill.distill p (Profile.collect p) in
  let config =
    { (Config.with_slaves 4 Config.default) with Config.task_size = 8 }
  in
  let r = M.run ~config d in
  let seq = Full.create () in
  Full.load seq d.Distill.original;
  Full.load ~set_entry:false seq d.Distill.distilled;
  ignore (Machine.run (Machine.of_state seq) : Machine.stop);
  (* the I/O touch fails exactly the rewriting trip's task *)
  check_int "tasks failed" (if via_io then 1 else 0)
    r.M.stats.M.squash_task_failed;
  check "halted" true (r.M.stop = M.Halted);
  check "the rewrite took effect" true
    (Full.get_mem r.M.arch (buf + 1) = 2
    && Full.get_mem r.M.arch (buf + patch_trip + 1) = 1);
  check "states equal SEQ" true (Full.equal_observable seq r.M.arch)

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
          Alcotest.test_case "SMC self-patch" `Quick test_smc_self_patch;
          Alcotest.test_case "code rewritten between runs" `Quick
            test_code_rewritten_between_runs;
          Alcotest.test_case "speculative I/O latch" `Quick test_io_latch;
          Alcotest.test_case "fault parity" `Quick test_fault_parity;
          Alcotest.test_case "isolated-view misses" `Quick
            test_isolated_missing;
        ] );
      ( "properties",
        [
          Mssp_testkit.to_alcotest prop_fuzz_task;
          Mssp_testkit.to_alcotest prop_smc_task;
        ] );
      ( "machine",
        [
          Alcotest.test_case "code rewritten by a commit" `Quick
            (test_rewrite_between_tasks ~via_io:false);
          Alcotest.test_case "code rewritten by a recovery segment" `Quick
            (test_rewrite_between_tasks ~via_io:true);
        ] );
    ]
