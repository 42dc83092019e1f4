(* Tests for the executor and SEQ machine: instruction semantics end to
   end, determinism, δ/Δ laws (paper Lemma 3), fragment execution and
   completeness. *)

open Mssp_state
module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Machine = Mssp_seq.Machine
module Frag_exec = Mssp_seq.Frag_exec
module Exec = Mssp_seq.Exec
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build f =
  let b = Dsl.create () in
  f b;
  Dsl.build b ()

(* sum 1..10 with a loop, result in t1 and in memory *)
let sum_program result_addr =
  build (fun b ->
      Dsl.li b t0 10;
      Dsl.li b t1 0;
      Dsl.label b "loop";
      Dsl.alu b Instr.Add t1 t1 t0;
      Dsl.alui b Instr.Sub t0 t0 1;
      Dsl.br b Instr.Ne t0 zero "loop";
      Dsl.st_addr b t1 result_addr;
      Dsl.halt b)

let test_loop_sum () =
  let addr = Layout.data_base in
  let m = Machine.run_program (sum_program addr) in
  check "halted" true (m.stopped = Some Machine.Halted);
  check_int "sum" 55 (Full.get_mem m.state addr);
  check_int "dynamic instrs" (2 + (3 * 10) + 1) m.instructions

let test_memory_ops () =
  let m =
    Machine.run_program
      (build (fun b ->
           let arr = Dsl.data_words b [ 5; 6; 7 ] in
           Dsl.li b t0 arr;
           Dsl.ld b t1 t0 0;
           Dsl.ld b t2 t0 2;
           Dsl.alu b Instr.Add t3 t1 t2;
           Dsl.st b t3 t0 1;
           Dsl.halt b))
  in
  check_int "load/store" 12 (Full.get_mem m.state (Layout.data_base + 1))

let test_call_ret () =
  let m =
    Machine.run_program
      (build (fun b ->
           Dsl.label b "main";
           Dsl.li b t0 21;
           Dsl.call b "double";
           Dsl.st_addr b t0 Layout.data_base;
           Dsl.halt b;
           Dsl.label b "double";
           Dsl.alu b Instr.Add t0 t0 t0;
           Dsl.ret b))
  in
  check_int "call/ret" 42 (Full.get_mem m.state Layout.data_base)

let test_push_pop () =
  let m =
    Machine.run_program
      (build (fun b ->
           Dsl.li b t0 7;
           Dsl.push b t0;
           Dsl.li b t0 0;
           Dsl.pop b t1;
           Dsl.st_addr b t1 Layout.data_base;
           Dsl.halt b))
  in
  check_int "stack" 7 (Full.get_mem m.state Layout.data_base);
  check_int "sp restored" Layout.stack_base (Full.get_reg m.state sp)

let test_out_stream () =
  let m =
    Machine.run_program
      (build (fun b ->
           Dsl.li b t0 3;
           Dsl.label b "loop";
           Dsl.out b t0;
           Dsl.alui b Instr.Sub t0 t0 1;
           Dsl.br b Instr.Gt t0 zero "loop";
           Dsl.halt b))
  in
  check "output" true (Machine.output m.state = [ 3; 2; 1 ])

let test_fault_on_garbage () =
  (* jump into the data segment: the word there is not an instruction *)
  let p =
    build (fun b ->
        let junk = Dsl.data_words b [ -1 ] in
        Dsl.li b t0 junk;
        Dsl.jr b t0)
  in
  let m = Machine.run_program p in
  match m.stopped with
  | Some (Machine.Faulted (Exec.Undecodable { pc; word })) ->
    check_int "fault pc" Layout.data_base pc;
    check_int "fault word" (-1) word
  | other ->
    Alcotest.failf "expected fault, got %s"
      (match other with
      | Some Machine.Halted -> "halted"
      | Some Machine.Out_of_fuel -> "out of fuel"
      | Some (Machine.Faulted _) -> "other fault"
      | None -> "running")

let test_fuel () =
  let p = build (fun b -> Dsl.label b "spin"; Dsl.jmp b "spin") in
  let m = Machine.of_program p in
  check "out of fuel" true (Machine.run ~fuel:100 m = Machine.Out_of_fuel);
  check_int "executed exactly fuel" 100 m.instructions

let test_halt_fixed_point () =
  let p = build (fun b -> Dsl.halt b) in
  let m = Machine.of_program p in
  ignore (Machine.run m : Machine.stop);
  let before = Full.copy m.state in
  (* seq on a halted state is the identity *)
  let after = Machine.seq m.state 5 in
  check "halt is a fixed point" true (Full.equal_observable before after)

let test_next_seq_agree () =
  let p = sum_program Layout.data_base in
  let s0 = Full.create () in
  Full.load s0 p;
  (* seq (s, 3) = next (next (next s)) *)
  let via_seq = Machine.seq s0 3 in
  let via_next = Machine.next (Machine.next (Machine.next s0)) in
  check "seq = next^n" true (Full.equal_observable via_seq via_next);
  check "argument untouched" true (Full.pc s0 = p.entry)

(* --- determinism: same program, two runs, identical states --- *)

let test_determinism () =
  let p = sum_program Layout.data_base in
  let m1 = Machine.run_program p and m2 = Machine.run_program p in
  check "deterministic" true (Full.equal_observable m1.state m2.state)

(* --- δ and Δ (Lemma 3) --- *)

let full_start p =
  let s = Full.create () in
  Full.load s p;
  Full.snapshot s

let test_delta_applies () =
  let p = sum_program Layout.data_base in
  let frag = full_start p in
  match Frag_exec.delta frag with
  | Error e -> Alcotest.failf "delta: %s" (Format.asprintf "%a" Frag_exec.pp_stop e)
  | Ok d ->
    (* next S = S <- δ(S) *)
    let lhs = Frag_exec.next frag in
    let rhs = Fragment.superimpose frag d in
    check "next = S <- delta" true
      (match lhs with Ok f -> Fragment.equal f rhs | Error _ -> false)

let test_lemma3_cumulative_writes () =
  let p = sum_program Layout.data_base in
  let frag = full_start p in
  let n = 17 in
  (* seq(S,n) = S <- Δ(S,n) for n-complete S *)
  check "n-complete" true (Frag_exec.n_complete frag n);
  match (Frag_exec.seq frag n, Frag_exec.cumulative frag n) with
  | Ok s_n, Ok delta_n ->
    check "Lemma 3 (i)" true
      (Fragment.equal s_n (Fragment.superimpose frag delta_n))
  | _ -> Alcotest.fail "execution failed"

let test_lemma3_delta_determined_by_consistent_substate () =
  (* Δ(S1,n) = Δ(S2,n) for consistent n-complete states: compute Δ from
     the full snapshot and from a minimal consistent substate. *)
  let p = sum_program Layout.data_base in
  let s2 = full_start p in
  let n = 12 in
  (* Build a smaller consistent state: keep only cells actually read. *)
  let rec needed frag k acc =
    if k = 0 then acc
    else
      match (Frag_exec.reads1 frag, Frag_exec.next frag) with
      | Ok reads, Ok frag' -> needed frag' (k - 1) (Cell.Set.union acc reads)
      | _, Error _ | Error _, _ -> acc
  in
  let cells = needed s2 n Cell.Set.empty in
  let s1 =
    Cell.Set.fold
      (fun c acc ->
        match Fragment.find_opt c s2 with
        | Some v -> Fragment.add c v acc
        | None -> acc)
      cells Fragment.empty
  in
  check "s1 ⊑ s2" true (Fragment.consistent s1 s2);
  check "s1 n-complete" true (Frag_exec.n_complete s1 n);
  match (Frag_exec.cumulative s1 n, Frag_exec.cumulative s2 n) with
  | Ok d1, Ok d2 -> check "Lemma 3 (ii)" true (Fragment.equal d1 d2)
  | _ -> Alcotest.fail "execution failed"

let test_incomplete_fragment () =
  let p = sum_program Layout.data_base in
  let frag = full_start p in
  (* drop the cell holding the first instruction: fetch must report it *)
  let frag' = Fragment.remove (Cell.mem p.entry) frag in
  check "incomplete" true
    (match Frag_exec.next frag' with
    | Error (Frag_exec.Incomplete c) -> Cell.equal c (Cell.mem p.entry)
    | Ok _ | Error _ -> false);
  check "complete1 false" false (Frag_exec.complete1 frag');
  check "n_complete false" false (Frag_exec.n_complete frag' 3)

let test_observed_step () =
  let p = sum_program Layout.data_base in
  let s = Full.create () in
  Full.load s p;
  let reads, writes, outcome =
    Exec.observed_step
      ~read:(fun c -> Some (Full.get s c))
      ~write:(fun c v -> Full.set s c v)
  in
  check "stepped" true (outcome = Exec.Stepped);
  (* first instruction is li t0, 10: reads pc + fetch cell, writes t0 + pc *)
  check "reads pc" true (List.mem_assoc Cell.Pc reads);
  check "reads fetch" true (List.mem_assoc (Cell.mem p.entry) reads);
  check "writes t0" true (Fragment.find_opt (Cell.Reg t0) writes = Some 10);
  check "writes pc" true (Fragment.pc writes = Some (p.entry + 1))

(* --- cross-validation: the fragment executor against the full-state
   machine, over random programs --- *)

(* a fragment closed over everything a [steps]-bounded run touches *)
let closed_fragment p steps =
  let full = Full.create () in
  Full.load full p;
  let probe = Full.copy full in
  let touched = ref Mssp_state.Cell.Set.empty in
  let rec go k =
    if k > 0 then begin
      let read c =
        touched := Mssp_state.Cell.Set.add c !touched;
        Some (Full.get probe c)
      in
      let write c v =
        touched := Mssp_state.Cell.Set.add c !touched;
        Full.set probe c v
      in
      match Exec.step ~read ~write with
      | Exec.Stepped -> go (k - 1)
      | Exec.Halted | Exec.Fault _ | Exec.Missing _ -> ()
    end
  in
  go steps;
  Mssp_state.Cell.Set.fold
    (fun c acc -> Fragment.add c (Full.get full c) acc)
    !touched (Full.snapshot full)

let prop_frag_exec_agrees_with_machine =
  QCheck.Test.make
    ~name:"Frag_exec.seq agrees with Machine.seq on closed fragments"
    ~count:30
    QCheck.(pair small_nat (int_bound 40))
    (fun (seed, n) ->
      let p = Mssp_fuzz.Gen.generate ~weights:Mssp_fuzz.Gen.plain ~seed ~size:6 () in
      let frag = closed_fragment p (n + 1) in
      match Frag_exec.seq frag n with
      | Error _ -> false (* closed fragments never go incomplete *)
      | Ok via_frag ->
        let full = Full.create () in
        Full.load full p;
        let via_machine = Machine.seq full n in
        (* every binding the fragment run produced matches the machine *)
        Fragment.fold
          (fun c v ok -> ok && Full.get via_machine c = v)
          via_frag true)

let prop_cumulative_writes_law =
  QCheck.Test.make
    ~name:"seq(S,n) = S <- Delta(S,n) on random programs (Lemma 3)"
    ~count:30
    QCheck.(pair small_nat (int_bound 30))
    (fun (seed, n) ->
      let p = Mssp_fuzz.Gen.generate ~weights:Mssp_fuzz.Gen.plain ~seed ~size:5 () in
      let frag = closed_fragment p (n + 1) in
      match (Frag_exec.seq frag n, Frag_exec.cumulative frag n) with
      | Ok s_n, Ok delta ->
        Fragment.equal s_n (Fragment.superimpose frag delta)
      | _, _ -> false)

let () =
  Alcotest.run "seq"
    [
      ( "machine",
        [
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "memory ops" `Quick test_memory_ops;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "out stream" `Quick test_out_stream;
          Alcotest.test_case "fault on garbage" `Quick test_fault_on_garbage;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "halt fixed point" `Quick test_halt_fixed_point;
          Alcotest.test_case "next/seq agree" `Quick test_next_seq_agree;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "fragments",
        [
          Alcotest.test_case "delta applies" `Quick test_delta_applies;
          Alcotest.test_case "Lemma 3 (i)" `Quick test_lemma3_cumulative_writes;
          Alcotest.test_case "Lemma 3 (ii)" `Quick
            test_lemma3_delta_determined_by_consistent_substate;
          Alcotest.test_case "incomplete detection" `Quick test_incomplete_fragment;
          Alcotest.test_case "observed step" `Quick test_observed_step;
          Mssp_testkit.to_alcotest prop_frag_exec_agrees_with_machine;
          Mssp_testkit.to_alcotest prop_cumulative_writes_law;
        ] );
    ]
