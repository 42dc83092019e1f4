(* The direct loop against the specification, differentially: whole-run
   and run-until execution ([Machine.run]/[run_until]: the direct step,
   decoding through the program image) must match a loop of
   [Machine.step] (the specification, [Exec.step]) exactly — final
   state, stop reason, and the instruction/load/store counters — on
   hand-written programs, on fuzz programs (SMC shapes boosted), at
   every fuel boundary, stopping mid-region, and across self-modifying
   stores both internal (executed by the program) and external (a
   direct [Full.set_mem] between calls, with no notification). Plus the
   fine-grained contracts the direct loop leans on: the [observed_step]
   read order, and machines taking turns over one state. *)

module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Machine = Mssp_seq.Machine
module Exec = Mssp_seq.Exec
module Gen = Mssp_fuzz.Gen
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The specification's whole run: [Machine.step] until the machine
   stops or [fuel] instructions retire, fuel checked before each one. *)
let step_run ?(fuel = 100_000_000) m =
  let rec go remaining =
    match m.Machine.stopped with
    | Some s -> s
    | None ->
      if remaining = 0 then Machine.Out_of_fuel
      else begin
        ignore (Machine.step m : bool);
        go (remaining - 1)
      end
  in
  go fuel

(* ... and its run_until: fuel before each step, [at] after it (only
   once [min_steps] have run), [at] winning over fuel at the boundary *)
let step_run_until m ~fuel ~min_steps ~at =
  let steps = ref 0 in
  let rec go () =
    if !steps >= fuel then `Fuel
    else if Machine.step m then begin
      incr steps;
      if !steps >= min_steps && at (Full.pc m.Machine.state) then `At_entry
      else go ()
    end
    else `Stopped
  in
  go ()

(* run a program both ways; compare everything a caller can observe *)
let same_run ?(fuel = 2_000_000) p =
  let on = Machine.of_program p in
  let off = Machine.of_program p in
  let s_on = Machine.run ~fuel on in
  let s_off = step_run ~fuel off in
  s_on = s_off
  && on.Machine.instructions = off.Machine.instructions
  && on.Machine.loads = off.Machine.loads
  && on.Machine.stores = off.Machine.stores
  && Full.equal_observable on.Machine.state off.Machine.state
  && Machine.output on.Machine.state = Machine.output off.Machine.state

let assert_same_run ?fuel p = check "run = step loop" true (same_run ?fuel p)

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
  Dsl.out b t1;
  Dsl.halt b;
  Dsl.build b ()

let test_straightline () = assert_same_run straightline

let test_memory_traffic () =
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
  assert_same_run (Dsl.build b ())

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
  assert_same_run (Dsl.build ~entry:"main" b ())

(* a fault mid-program: the direct loop must stop with the same fault,
   at the same PC, with identical counters *)
let test_fault_parity () =
  let b = Dsl.create () in
  Dsl.li b t0 5;
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.raw b (Instr.Alui (Instr.Add, t1, t1, 1));
  Dsl.halt b;
  let p = Dsl.build b () in
  (* corrupt the third instruction word into garbage after load *)
  let on = Machine.of_program p in
  let off = Machine.of_program p in
  let garbage = -0x7EADBEEF in
  let patch m = Full.set_mem m.Machine.state (p.Program.entry + 2) garbage in
  patch on;
  patch off;
  let s_on = Machine.run on in
  let s_off = step_run off in
  check "same stop" true (s_on = s_off);
  (match s_on with
  | Machine.Faulted (Exec.Undecodable { pc; _ }) ->
    check_int "fault pc" (p.Program.entry + 2) pc
  | _ -> Alcotest.fail "expected Undecodable fault");
  check "same state" true
    (Full.equal_observable on.Machine.state off.Machine.state);
  check_int "same instructions" off.Machine.instructions on.Machine.instructions;
  check_int "same loads" off.Machine.loads on.Machine.loads

(* --- fuel boundaries and run_until ------------------------------------ *)

(* every fuel value from 0 to past completion: stop reason, counters,
   full state must agree at each boundary *)
let test_fuel_sweep () =
  let b = Dsl.create () in
  let buf = Dsl.alloc b 8 in
  Dsl.li b t0 6;
  Dsl.label b "l";
  Dsl.alui b Instr.Add t1 t1 5;
  Dsl.st b t1 zero buf;
  Dsl.ld b t2 zero buf;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "l";
  Dsl.halt b;
  let p = Dsl.build b () in
  for fuel = 0 to 40 do
    let on = Machine.of_program p in
    let off = Machine.of_program p in
    let s_on = Machine.run ~fuel on in
    let s_off = step_run ~fuel off in
    check (Printf.sprintf "fuel %d stop" fuel) true (s_on = s_off);
    check_int
      (Printf.sprintf "fuel %d instructions" fuel)
      off.Machine.instructions on.Machine.instructions;
    check_int (Printf.sprintf "fuel %d loads" fuel) off.Machine.loads
      on.Machine.loads;
    check_int (Printf.sprintf "fuel %d stores" fuel) off.Machine.stores
      on.Machine.stores;
    check
      (Printf.sprintf "fuel %d state" fuel)
      true
      (Full.equal_observable on.Machine.state off.Machine.state)
  done

(* the two run_until loops, direct and specification *)
let run_until ~direct =
  if direct then Machine.run_until else step_run_until

(* run_until with an [at] landing in the middle of a straight-line
   region: the direct loop must stop there, state and counters
   identical to single-step, and resume from it *)
let test_run_until_mid_block () =
  let p = straightline in
  (* the PC of the 9th Alui in the unrolled body: entry + 2 (two li) + 8 *)
  let mid = p.Program.entry + 10 in
  let drive direct =
    let m = Machine.of_program p in
    let hits = ref 0 in
    let rec go acc =
      match
        run_until ~direct m ~fuel:1_000_000 ~min_steps:1 ~at:(fun pc ->
            pc = mid)
      with
      | `At_entry ->
        incr hits;
        go (acc + 1)
      | `Fuel -> Alcotest.fail "unexpected fuel stop"
      | `Stopped -> (m, !hits, acc)
    in
    go 0
  in
  let m_on, hits_on, _ = drive true in
  let m_off, hits_off, _ = drive false in
  check_int "same mid-block hits" hits_off hits_on;
  check "hits happened" true (hits_on > 0);
  check "same stop" true (m_on.Machine.stopped = m_off.Machine.stopped);
  check_int "same instructions" m_off.Machine.instructions
    m_on.Machine.instructions;
  check_int "same loads" m_off.Machine.loads m_on.Machine.loads;
  check "same state" true
    (Full.equal_observable m_on.Machine.state m_off.Machine.state)

(* min_steps: an [at] true at the current PC must not fire before
   min_steps instructions retire — identical gating both ways *)
let test_run_until_min_steps () =
  let p = straightline in
  let entry = p.Program.entry in
  let drive direct =
    let m = Machine.of_program p in
    let r =
      run_until ~direct m ~fuel:1_000_000 ~min_steps:5 ~at:(fun _ -> true)
    in
    (r, m.Machine.instructions, Full.pc m.Machine.state)
  in
  let r_on, n_on, pc_on = drive true in
  let r_off, n_off, pc_off = drive false in
  check "both at entry" true (r_on = `At_entry && r_off = `At_entry);
  check_int "min_steps honored" 5 n_on;
  check_int "same instructions" n_off n_on;
  check_int "same pc" pc_off pc_on;
  check "advanced past entry" true (pc_on <> entry)

(* --- self-modifying code ---------------------------------------------- *)

(* a loop that patches its own body: trip 1 executes the original word,
   trip 2 the patched one — a word inside the program image that no
   longer matches it, so the image decoder must decode it afresh *)
let smc_program patched =
  let b = Dsl.create () in
  Dsl.li b s5 2;
  Dsl.li b t2 0;
  Dsl.label b "smc";
  Dsl.label b "patch";
  Dsl.nop b;
  Dsl.la b s6 "patch";
  Dsl.li b s7 (Instr.encode patched);
  Dsl.st b s7 s6 0;
  Dsl.alui b Instr.Sub s5 s5 1;
  Dsl.br b Instr.Gt s5 zero "smc";
  Dsl.out b t2;
  Dsl.halt b;
  Dsl.build b ()

let test_smc_patched_trip () =
  let p = smc_program (Instr.Alui (Instr.Add, t2, t2, 7)) in
  let on = Machine.of_program p in
  let off = Machine.of_program p in
  let s_on = Machine.run on in
  let s_off = step_run off in
  check "same stop" true (s_on = s_off);
  check "same state" true
    (Full.equal_observable on.Machine.state off.Machine.state);
  check_int "same instructions" off.Machine.instructions on.Machine.instructions;
  check_int "same loads" off.Machine.loads on.Machine.loads;
  check_int "same stores" off.Machine.stores on.Machine.stores;
  (* the patched trip must observe the new instruction on both rungs:
     t2 = 7 out *)
  List.iter
    (fun (rung, m) ->
      match Machine.output m.Machine.state with
      | [ v ] -> check_int (rung ^ ": patched trip executed") 7 v
      | _ -> Alcotest.fail (rung ^ ": expected one output"))
    [ ("direct", on); ("single-step", off) ]

(* a store from OUTSIDE the machine (direct Full.set_mem between two
   run_until calls, nothing notified): the next fetch must see it *)
let test_external_store () =
  let b = Dsl.create () in
  Dsl.label b "head";
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.jmp b "head";
  let p = Dsl.build b () in
  let head = p.Program.entry in
  let drive direct =
    let m = Machine.of_program p in
    (* run a few laps so the image's words over "head" are in use *)
    (match
       run_until ~direct m ~fuel:1_000_000 ~min_steps:6 ~at:(fun pc ->
           pc = head)
     with
    | `At_entry -> ()
    | _ -> Alcotest.fail "expected to stop at head");
    (* external patch: second Add becomes Halt *)
    Full.set_mem m.Machine.state (head + 1) (Instr.encode Instr.Halt);
    ignore
      ((if direct then Machine.run ~fuel:100 m else step_run ~fuel:100 m)
        : Machine.stop);
    (m.Machine.stopped, m.Machine.instructions, Full.get_reg m.Machine.state t0)
  in
  let on = drive true in
  let off = drive false in
  check "on = off" true (on = off);
  let stopped, _, _ = on in
  check "halted on the patched word" true (stopped = Some Machine.Halted)

(* --- property tests: fuzz programs, SMC boosted ------------------------ *)

let program_arb ?(weights = Gen.default_weights) ~min_size ~max_size () =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = min_size + Random.State.int st (max_size - min_size + 1) in
    Gen.generate ~weights ~seed ~size ()
  in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source gen

let prop_fuzz_differential =
  QCheck.Test.make ~name:"fuzz program: run = step loop" ~count:60
    (program_arb ~min_size:4 ~max_size:20 ())
    same_run

let smc_heavy = Gen.smc_heavy

let prop_smc_differential =
  QCheck.Test.make ~name:"SMC-heavy program: run = step loop" ~count:40
    (program_arb ~weights:smc_heavy ~min_size:4 ~max_size:16 ())
    same_run

(* --- the fine-grained contracts --------------------------------------- *)

(* observed_step's documented read order: Pc, then Mem pc, then operands
   in semantics order — the order live-in journals key on, and the order
   the slave journal step must preserve *)
let test_observed_read_order () =
  let pc0 = 0x1000 in
  let observe instr setup =
    let s = Full.create () in
    Full.set_pc s pc0;
    Full.set_mem s pc0 (Instr.encode instr);
    setup s;
    let reads, _, outcome =
      Exec.observed_step
        ~read:(fun c -> Some (Full.get s c))
        ~write:(fun c v -> Full.set s c v)
    in
    check "stepped" true (outcome = Exec.Stepped);
    List.map fst reads
  in
  (* Ld rd, rs1, off: Pc, fetch, base register, loaded address *)
  let order =
    observe
      (Instr.Ld (t0, t1, 4))
      (fun s -> Full.set_reg s t1 0x2000)
  in
  check "Ld order" true
    (order = [ Cell.Pc; Cell.Mem pc0; Cell.Reg t1; Cell.Mem 0x2004 ]);
  (* St rs2, rs1, off: Pc, fetch, base, stored register *)
  let order =
    observe
      (Instr.St (t2, t1, 1))
      (fun s ->
        Full.set_reg s t1 0x3000;
        Full.set_reg s t2 99)
  in
  check "St order" true
    (order = [ Cell.Pc; Cell.Mem pc0; Cell.Reg t1; Cell.Reg t2 ])

(* two machines taking turns over one state (the recovery pattern: a
   fresh machine per segment over architected state): the second
   resumes exactly where the first stopped *)
let test_machines_share_state () =
  let p = straightline in
  let s = Full.create () in
  Full.load s p;
  let decode = Program.image_decoder [ Program.decode_all p ] in
  let m1 = Machine.of_state ~decode s in
  let r1 =
    Machine.run_until m1 ~fuel:200 ~min_steps:1 ~at:(fun pc ->
        pc = p.Program.entry + 2)
  in
  check "first leg at entry" true (r1 = `At_entry);
  let m2 = Machine.of_state ~decode s in
  ignore (Machine.run m2 : Machine.stop);
  check "finished" true (m2.Machine.stopped = Some Machine.Halted);
  (* reference: same program single-stepped from scratch *)
  let off = Machine.of_program p in
  ignore (step_run off : Machine.stop);
  check_int "combined instructions" off.Machine.instructions
    (m1.Machine.instructions + m2.Machine.instructions);
  check "same state" true
    (Full.equal_observable off.Machine.state m2.Machine.state)

let () =
  Alcotest.run "sblock"
    [
      ( "differential",
        [
          Alcotest.test_case "straight-line" `Quick test_straightline;
          Alcotest.test_case "memory traffic" `Quick test_memory_traffic;
          Alcotest.test_case "calls and indirect jumps" `Quick
            test_calls_and_indirect;
          Alcotest.test_case "fault parity" `Quick test_fault_parity;
          Alcotest.test_case "fuel sweep" `Quick test_fuel_sweep;
        ] );
      ( "run_until",
        [
          Alcotest.test_case "mid-block entry" `Quick test_run_until_mid_block;
          Alcotest.test_case "min_steps gating" `Quick test_run_until_min_steps;
        ] );
      ( "smc",
        [
          Alcotest.test_case "self-patching loop runs the patch" `Quick
            test_smc_patched_trip;
          Alcotest.test_case "external store seen unannounced" `Quick
            test_external_store;
        ] );
      ( "properties",
        [
          Mssp_testkit.to_alcotest prop_fuzz_differential;
          Mssp_testkit.to_alcotest prop_smc_differential;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "observed_step read order" `Quick
            test_observed_read_order;
          Alcotest.test_case "two machines over one state" `Quick
            test_machines_share_state;
        ] );
    ]
