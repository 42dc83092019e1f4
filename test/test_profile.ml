(* Tests for the profiler: execution counts, branch bias, store
   communication distance, a differential against a reference profiler
   on the specification step, and the profiler's allocation. *)

module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Dsl = Mssp_asm.Dsl
module W = Mssp_workload.Workload
module Gen = Mssp_fuzz.Gen
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


(* --- the reference profiler ------------------------------------------

   The profiler as it was on the specification: single-step
   [Machine.step] ([Exec.step] through read/write callbacks), peek at the
   instruction and the effective address before each step, and count
   into polymorphic hash tables keyed by PC. The profiler under test
   runs the direct step into flat arrays; the two must agree at every
   PC. *)

module Reference = struct
  type t = {
    counts : (int, int) Hashtbl.t;
    branches : (int, int * int) Hashtbl.t;  (** pc -> taken, not taken *)
    stores : (int, int * int) Hashtbl.t;  (** pc -> executions, min distance *)
    mutable dynamic : int;
    mutable stop : Machine.stop option;
  }

  let bump tbl key f init =
    Hashtbl.replace tbl key
      (match Hashtbl.find_opt tbl key with Some v -> f v | None -> init)

  let collect ?(fuel = 100_000_000) p =
    let t =
      {
        counts = Hashtbl.create 256;
        branches = Hashtbl.create 64;
        stores = Hashtbl.create 64;
        dynamic = 0;
        stop = None;
      }
    in
    let m = Machine.of_program p in
    (* address -> (store site, dynamic index of the store) *)
    let last_store = Hashtbl.create 1024 in
    let rec go remaining =
      if remaining = 0 then t.stop <- Some Machine.Out_of_fuel
      else begin
        let pc = Full.pc m.Machine.state in
        let instr = Instr.decode (Full.get_mem m.Machine.state pc) in
        let addr =
          match instr with
          | Some (Instr.Ld (_, rs1, off)) | Some (Instr.St (_, rs1, off)) ->
            Some (Full.get_reg m.Machine.state rs1 + off)
          | Some _ | None -> None
        in
        if Machine.step m then begin
          bump t.counts pc succ 1;
          t.dynamic <- t.dynamic + 1;
          (match (instr, addr) with
          | Some (Instr.Br _), _ ->
            let taken = Full.pc m.Machine.state <> pc + 1 in
            let add (a, b) = if taken then (a + 1, b) else (a, b + 1) in
            bump t.branches pc add (add (0, 0))
          | Some (Instr.Ld _), Some a -> (
            match Hashtbl.find_opt last_store a with
            | Some (site, when_) ->
              bump t.stores site
                (fun (n, d) -> (n, min d (t.dynamic - when_)))
                (0, max_int)
            | None -> ())
          | Some (Instr.St _), Some a ->
            bump t.stores pc (fun (n, d) -> (n + 1, d)) (1, max_int);
            Hashtbl.replace last_store a (pc, t.dynamic)
          | (Some _ | None), _ -> ());
          go (remaining - 1)
        end
        else t.stop <- m.Machine.stopped
      end
    in
    go fuel;
    t

  let bias t pc =
    match Hashtbl.find_opt t.branches pc with
    | None -> None
    | Some (taken, not_taken) ->
      let total = taken + not_taken in
      Some
        ( taken >= not_taken,
          float_of_int (max taken not_taken) /. float_of_int total )

  let comm t pc = Option.map snd (Hashtbl.find_opt t.stores pc)

  let summary t =
    let biased =
      Hashtbl.fold
        (fun pc _ n ->
          match bias t pc with Some (_, f) when f >= 0.95 -> n + 1 | _ -> n)
        t.branches 0
    in
    Format.asprintf
      "@[<v>dynamic instructions: %d@,static sites executed: %d@,branches: %d (%d with bias >= 0.95)@,stores profiled: %d@]"
      t.dynamic (Hashtbl.length t.counts)
      (Hashtbl.length t.branches)
      biased (Hashtbl.length t.stores)
end

(* the profiler agrees with the reference at every PC either executed,
   in the image, or just outside it, and on the run's totals *)
let agree ?fuel what p =
  let r = Reference.collect ?fuel p in
  let t = Profile.collect ?fuel p in
  let pcs =
    Hashtbl.fold (fun pc _ acc -> pc :: acc) r.Reference.counts []
    @ List.init (Program.length p + 2) (fun i -> p.Program.base - 1 + i)
  in
  let bad =
    List.filter
      (fun pc ->
        Profile.exec_count t pc
        <> Option.value ~default:0 (Hashtbl.find_opt r.Reference.counts pc)
        || Profile.branch_bias t pc <> Reference.bias r pc
        || Profile.store_comm_distance t pc <> Reference.comm r pc)
      pcs
  in
  (match bad with
  | [] -> ()
  | pc :: _ -> Alcotest.failf "%s: profiles differ at pc %#x" what pc);
  check_int (what ^ ": dynamic instructions") r.Reference.dynamic
    t.Profile.dynamic_instructions;
  check (what ^ ": stop") true (r.Reference.stop = t.Profile.stop);
  Alcotest.(check string)
    (what ^ ": summary") (Reference.summary r)
    (Format.asprintf "%a" Profile.pp_summary t)

let test_differential_kernels () =
  List.iter
    (fun (b : W.benchmark) ->
      agree b.W.name (b.W.program ~size:b.W.train_size))
    W.all

let test_differential_generated () =
  List.iter
    (fun (name, weights) ->
      for seed = 1 to 25 do
        agree
          (Printf.sprintf "%s seed %d" name seed)
          ~fuel:200_000
          (Gen.generate ~weights ~seed ~size:12 ())
      done)
    [ ("default", Gen.default_weights); ("smc-heavy", Gen.smc_heavy) ]

(* Code in the data segment, outside the image: a store and a load that
   communicate, a taken branch, and a return, called five times. Every
   outside PC gets a slot past the image's. *)
let outside_code () =
  let b = Dsl.create () in
  let cell = Dsl.alloc b 1 in
  let code =
    Dsl.data_words b
      (List.map Instr.encode
         [
           Instr.Alui (Instr.Add, t1, t1, 1);
           Instr.St (t1, zero, cell);
           Instr.Ld (t3, zero, cell);
           Instr.Br (Instr.Eq, t1, t1, 2);
           Instr.Nop;
           Instr.Jr ra;
         ])
  in
  Dsl.li b t0 5;
  Dsl.li b t2 code;
  Dsl.label b "loop";
  Dsl.jalr b ra t2;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.halt b;
  (Dsl.build b (), code)

let test_differential_outside () =
  let p, code = outside_code () in
  agree "outside the image" p;
  let t = Profile.collect p in
  check_int "outside instruction counted" 5 (Profile.exec_count t code);
  check "outside store communicates at distance 1" true
    (Profile.store_comm_distance t (code + 1) = Some 1);
  check "outside branch always taken" true
    (Profile.branch_bias t (code + 3) = Some (true, 1.0));
  check_int "the skipped nop never ran" 0 (Profile.exec_count t (code + 4))

let test_differential_fuel () =
  let p, _ = outside_code () in
  List.iter (fun fuel -> agree (Printf.sprintf "fuel %d" fuel) ~fuel p) [ 0; 1; 9; 20 ];
  let b = (W.find "qsort").W.program ~size:50 in
  agree "qsort cut short" ~fuel:1_000 b

let test_differential_undecodable () =
  let b = Dsl.create () in
  let junk = Dsl.data_words b [ -1 ] in
  Dsl.li b t0 junk;
  Dsl.jr b t0;
  let p = Dsl.build b () in
  agree "undecodable word" p;
  check "faulted" true
    (match (Profile.collect p).Profile.stop with
    | Some (Machine.Faulted _) -> true
    | Some _ | None -> false)

(* --- allocation -------------------------------------------------------

   Profiling a longer run of the same loop adds (next to) no minor words
   per extra instruction: the counters are flat arrays and the
   last-store map a recycled open-addressed table. The hash-table
   profiler on the specification step costs about 45. *)

let counted_loop trips =
  let b = Dsl.create () in
  let cell = Dsl.alloc b 4 in
  Dsl.li b t0 trips;
  Dsl.label b "loop";
  Dsl.alui b Instr.And t2 t0 3;
  Dsl.st b t0 t2 cell;
  Dsl.ld b t1 t2 cell;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.halt b;
  Dsl.build b ()

let test_allocation () =
  let words trips =
    let p = counted_loop trips in
    let w0 = Gc.minor_words () in
    let t = Profile.collect p in
    (Gc.minor_words () -. w0, t.Profile.dynamic_instructions)
  in
  let w1, n1 = words 1_000 and w2, n2 = words 50_000 in
  let per = (w2 -. w1) /. float_of_int (n2 - n1) in
  check
    (Printf.sprintf "%.4f minor words per extra profiled instruction (< 0.5)" per)
    true
    (n2 > n1 && per < 0.5)

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
      ( "differential",
        [
          Alcotest.test_case "registry kernels" `Quick test_differential_kernels;
          Alcotest.test_case "generated programs" `Quick
            test_differential_generated;
          Alcotest.test_case "code outside the image" `Quick
            test_differential_outside;
          Alcotest.test_case "cut short by fuel" `Quick test_differential_fuel;
          Alcotest.test_case "undecodable word" `Quick
            test_differential_undecodable;
        ] );
      ( "allocation",
        [ Alcotest.test_case "per instruction" `Quick test_allocation ] );
    ]
