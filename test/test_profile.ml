(* Tests for the profiler: execution counts, branch bias, store
   communication distance, per-cell value streams. *)

module Instr = Mssp_isa.Instr
module Profile = Mssp_profile.Profile
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build f =
  let b = Dsl.create () in
  f b;
  Dsl.build b ()

let test_exec_counts () =
  let p =
    build (fun b ->
        Dsl.li b t0 10;
        Dsl.label b "loop";
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop";
        Dsl.halt b)
  in
  let prof = Profile.collect p in
  check_int "dynamic total" 21 prof.Profile.dynamic_instructions;
  check_int "li once" 1 (Profile.exec_count prof p.Mssp_isa.Program.base);
  check_int "loop body 10x" 10 (Profile.exec_count prof (p.Mssp_isa.Program.base + 1));
  check_int "never" 0 (Profile.exec_count prof 0xdead)

let test_branch_bias () =
  let p =
    build (fun b ->
        Dsl.li b t0 100;
        Dsl.label b "loop";
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop";
        Dsl.halt b)
  in
  let prof = Profile.collect p in
  let br_pc = p.Mssp_isa.Program.base + 2 in
  (match Profile.branch_bias prof br_pc with
  | Some (taken, freq) ->
    check "dominant taken" true taken;
    check "bias 99/100" true (abs_float (freq -. 0.99) < 1e-9)
  | None -> Alcotest.fail "no bias recorded");
  check "unexecuted branch" true (Profile.branch_bias prof 0xdead = None)

let test_store_comm_distance () =
  let p =
    build (fun b ->
        let near = Dsl.alloc b 1 in
        let far = Dsl.alloc b 1 in
        Dsl.li b t0 20;
        Dsl.label b "loop";
        (* store read back immediately: short distance *)
        Dsl.st_addr b t0 near;
        Dsl.ld_addr b t1 near;
        (* store never read back *)
        Dsl.st_addr b t0 far;
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop";
        Dsl.halt b)
  in
  let prof = Profile.collect p in
  let base = p.Mssp_isa.Program.base in
  (match Profile.store_comm_distance prof (base + 1) with
  | Some d -> check "near distance is 1" true (d = 1)
  | None -> Alcotest.fail "near store not recorded");
  match Profile.store_comm_distance prof (base + 3) with
  | Some d -> check "far store never read" true (d = max_int)
  | None -> Alcotest.fail "far store not recorded"

let test_overwrite_clears_communication () =
  let p =
    build (fun b ->
        let cell = Dsl.alloc b 1 in
        Dsl.li b t0 5;
        Dsl.label b "loop";
        Dsl.st_addr b t0 cell; (* site A: overwritten by B before any read *)
        Dsl.li b t1 9;
        Dsl.st_addr b t1 cell; (* site B: read right after *)
        Dsl.ld_addr b t2 cell;
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop";
        Dsl.halt b)
  in
  let prof = Profile.collect p in
  let base = p.Mssp_isa.Program.base in
  (match Profile.store_comm_distance prof (base + 1) with
  | Some d -> check "overwritten store never communicates" true (d = max_int)
  | None -> Alcotest.fail "site A missing");
  match Profile.store_comm_distance prof (base + 3) with
  | Some d -> check "site B communicates at distance 1" true (d = 1)
  | None -> Alcotest.fail "site B missing"

let test_profile_stops () =
  let p = build (fun b -> Dsl.label b "spin"; Dsl.jmp b "spin") in
  let prof = Profile.collect ~fuel:100 p in
  check "out of fuel" true (prof.Profile.stop = Some Mssp_seq.Machine.Out_of_fuel);
  check_int "counted up to fuel" 100 prof.Profile.dynamic_instructions

let () =
  Alcotest.run "profile"
    [
      ( "profile",
        [
          Alcotest.test_case "exec counts" `Quick test_exec_counts;
          Alcotest.test_case "branch bias" `Quick test_branch_bias;
          Alcotest.test_case "store comm distance" `Quick test_store_comm_distance;
          Alcotest.test_case "overwrite clears comm" `Quick
            test_overwrite_clears_communication;
          Alcotest.test_case "fuel stop" `Quick test_profile_stops;
        ] );
    ]
