(* Tests for the distiller: each transformation in isolation, the
   repair of over-aggressive hardening, layout/retargeting, entry maps,
   and the fundamental property that distilled code need not be correct
   (covered end-to-end in test_equivalence). *)

module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Layout = Mssp_isa.Layout
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module Machine = Mssp_seq.Machine
module Full = Mssp_state.Full
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build f =
  let b = Dsl.create () in
  f b;
  Dsl.build b ()

let distill ?options p =
  let profile = Profile.collect p in
  Distill.distill ?options p profile

(* a loop with a never-taken error check *)
let checked_loop =
  build (fun b ->
      Dsl.li b t0 100;
      Dsl.li b s13 1000;
      Dsl.label b "loop";
      Dsl.br b Instr.Gt t0 s13 "error"; (* never taken *)
      Dsl.alui b Instr.Sub t0 t0 1;
      Dsl.br b Instr.Gt t0 zero "loop";
      Dsl.halt b;
      Dsl.label b "error";
      Dsl.li b t1 (-1);
      Dsl.out b t1;
      Dsl.halt b)

let test_hardens_cold_check () =
  let d = distill checked_loop in
  check "check hardened" true (d.Distill.stats.Distill.branches_hardened >= 1);
  check "error block dropped" true (d.Distill.stats.Distill.blocks_dropped >= 1);
  (* the distilled program is dynamically shorter *)
  check "dynamic ratio > 1" true (Distill.dynamic_ratio d.Distill.stats > 1.0)

let test_does_not_harden_hot_exit () =
  (* loop exit leads to hot code: hardening it would lose the second
     loop; the repair pass must keep the exit *)
  let p =
    build (fun b ->
        Dsl.li b t0 200;
        Dsl.label b "loop1";
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop1"; (* bias 199/200 > 0.98 *)
        Dsl.li b t0 200;
        Dsl.label b "loop2";
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop2";
        Dsl.halt b)
  in
  let d = distill p in
  (* loop2 must still be reachable in the distilled program *)
  let reached =
    Array.exists
      (fun i ->
        match i with
        | Instr.Fork target ->
          (* a fork for loop2's header survived *)
          target > p.Program.base + 3
        | _ -> false)
      d.Distill.distilled.Program.code
  in
  check "loop2 retained (fork exists)" true reached

let test_removes_noncomm_stores () =
  let p =
    build (fun b ->
        let log = Dsl.alloc b 1 in
        Dsl.li b t0 100;
        Dsl.label b "loop";
        Dsl.st_addr b t0 log; (* never read back *)
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop";
        Dsl.halt b)
  in
  let d = distill p in
  check_int "one store removed" 1 d.Distill.stats.Distill.stores_removed

let test_keeps_communicating_stores () =
  let p =
    build (fun b ->
        let cell = Dsl.alloc b 1 in
        Dsl.li b t0 100;
        Dsl.label b "loop";
        Dsl.st_addr b t0 cell;
        Dsl.ld_addr b t1 cell;
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop";
        Dsl.halt b)
  in
  let d = distill p in
  check_int "no store removed" 0 d.Distill.stats.Distill.stores_removed

let test_dead_write_elimination () =
  (* the value written to t5 feeds only a removed store: after store
     removal the computation chain dies *)
  let p =
    build (fun b ->
        let log = Dsl.alloc b 1 in
        Dsl.li b t0 100;
        Dsl.label b "loop";
        Dsl.alui b Instr.Mul t5 t0 17;
        Dsl.alui b Instr.Add t5 t5 3;
        Dsl.st_addr b t5 log;
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop";
        Dsl.halt b)
  in
  let d = distill p in
  check "store removed" true (d.Distill.stats.Distill.stores_removed = 1);
  check "chain removed" true (d.Distill.stats.Distill.dead_writes_removed >= 2);
  check "big dynamic win" true (Distill.dynamic_ratio d.Distill.stats > 1.5)

let test_identity_options () =
  let d = distill ~options:Distill.identity_options checked_loop in
  let s = d.Distill.stats in
  check_int "nothing hardened" 0 s.Distill.branches_hardened;
  check_int "no dead writes" 0 s.Distill.dead_writes_removed;
  check_int "no stores removed" 0 s.Distill.stores_removed;
  (* identity distillation = original + forks, so running it produces the
     original's final data state *)
  let m = Machine.run_program d.Distill.distilled in
  let m' = Machine.run_program checked_loop in
  check "same output" true
    (Machine.output m.Machine.state = Machine.output m'.Machine.state)

let test_entry_map_and_task_entries () =
  let d = distill checked_loop in
  check "entry is a task entry" true
    (List.mem checked_loop.Program.entry d.Distill.task_entries);
  List.iter
    (fun e ->
      match Distill.distilled_entry_for d e with
      | Some dpc ->
        (* the distilled PC holds a Fork for e *)
        check "maps to fork" true
          (Program.instr_at d.Distill.distilled dpc = Some (Instr.Fork e));
        check "is_task_entry" true (Distill.is_task_entry d e)
      | None -> Alcotest.fail "task entry unmapped")
    d.Distill.task_entries

let test_distilled_base_and_entry () =
  let d = distill checked_loop in
  check_int "based at distilled_base" Layout.distilled_base
    d.Distill.distilled.Program.base;
  (* master entry corresponds to the program entry's fork *)
  check "entry mapped" true
    (Distill.distilled_entry_for d checked_loop.Program.entry
    = Some d.Distill.distilled.Program.entry)

let test_retargeting_runs () =
  (* run the distilled program of a branchy original: it must not fault
     (all control flow retargeted into the distilled region) and must
     produce the same outputs here (no approximation triggered) *)
  let p =
    build (fun b ->
        Dsl.li b t0 10;
        Dsl.li b t2 0;
        Dsl.label b "loop";
        Dsl.alui b Instr.And t1 t0 1;
        Dsl.br b Instr.Eq t1 zero "even";
        Dsl.alui b Instr.Add t2 t2 1;
        Dsl.jmp b "next";
        Dsl.label b "even";
        Dsl.alui b Instr.Add t2 t2 100;
        Dsl.label b "next";
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "loop";
        Dsl.out b t2;
        Dsl.halt b)
  in
  let d = distill p in
  let m = Machine.run_program d.Distill.distilled in
  check "no fault" true (m.Machine.stopped = Some Machine.Halted);
  let m' = Machine.run_program p in
  check "same result" true
    (Machine.output m.Machine.state = Machine.output m'.Machine.state)

let test_calls_leave_original_return_addresses () =
  let p =
    build (fun b ->
        Dsl.label b "main";
        Dsl.li b t0 5;
        Dsl.call b "double";
        Dsl.out b t0;
        Dsl.halt b;
        Dsl.label b "double";
        Dsl.alu b Instr.Add t0 t0 t0;
        Dsl.ret b)
  in
  let d = distill ~options:Distill.identity_options p in
  (* somewhere in the distilled code there is Li ra, <original return> *)
  let expected_return = p.Program.entry + 2 in
  let found =
    Array.exists
      (fun i -> i = Instr.Li (ra, expected_return))
      d.Distill.distilled.Program.code
  in
  check "Li ra, orig_return emitted" true found;
  (* and the pc map can bring the master back from that original PC *)
  check "return point mapped" true
    (Hashtbl.mem d.Distill.pc_map expected_return)

(* --- structural invariants of distillation, over random programs --- *)

let prop_distill_invariants =
  QCheck.Test.make ~name:"distillation structural invariants" ~count:40
    QCheck.(pair small_nat (int_range 5 20))
    (fun (seed, size) ->
      let p = Mssp_fuzz.Gen.generate ~weights:Mssp_fuzz.Gen.plain ~seed ~size () in
      let d = distill p in
      let dp = d.Distill.distilled in
      (* every task entry maps to a Fork carrying that entry *)
      List.for_all
        (fun e ->
          match Distill.distilled_entry_for d e with
          | Some dpc -> Program.instr_at dp dpc = Some (Instr.Fork e)
          | None -> false)
        d.Distill.task_entries
      (* the program entry is always a boundary *)
      && List.mem p.Program.entry d.Distill.task_entries
      (* pc_map sends original block starts into the distilled image *)
      && Hashtbl.fold
           (fun orig dpc ok ->
             ok && Program.in_code p orig && Program.in_code dp dpc)
           d.Distill.pc_map true
      (* direct control flow in distilled code stays inside the image *)
      && Array.for_all
           (fun ok -> ok)
           (Array.mapi
              (fun i instr ->
                let pc = dp.Program.base + i in
                List.for_all (Program.in_code dp)
                  (Instr.branch_targets ~pc instr))
              dp.Program.code)
      (* forks always name original-code addresses *)
      && Array.for_all
           (fun instr ->
             match instr with
             | Instr.Fork e -> Program.in_code p e
             | _ -> true)
           dp.Program.code)

let test_stack_stores_survive () =
  (* a long-running callee: its saved link is popped thousands of
     instructions after the push — the distiller must keep the push
     anyway (the master consumes its own frames) *)
  let p =
    build (fun b ->
        Dsl.label b "main";
        Dsl.li b s0 10;
        Dsl.label b "outer";
        Dsl.call b "work";
        Dsl.alui b Instr.Sub s0 s0 1;
        Dsl.br b Instr.Gt s0 zero "outer";
        Dsl.halt b;
        Dsl.label b "work";
        Dsl.push b ra;
        Dsl.li b t0 500;
        Dsl.label b "inner";
        Dsl.alui b Instr.Add t1 t1 1;
        Dsl.alui b Instr.Sub t0 t0 1;
        Dsl.br b Instr.Gt t0 zero "inner";
        Dsl.pop b ra;
        Dsl.ret b)
  in
  let aggressive =
    {
      Distill.default_options with
      Distill.store_comm_distance = 10;
      min_store_count = 1;
    }
  in
  let profile = Profile.collect p in
  let d = Distill.distill ~options:aggressive p profile in
  let has_sp_store code =
    Array.exists
      (fun instr ->
        match instr with
        | Instr.St (_, base, _) -> Mssp_isa.Reg.equal base Mssp_asm.Regs.sp
        | _ -> false)
      code
  in
  check "push survives in distilled code" true
    (has_sp_store d.Distill.distilled.Mssp_isa.Program.code);
  check_int "nothing removed (only store is sp-based)" 0
    d.Distill.stats.Distill.stores_removed

let test_stats_ratios () =
  let d = distill checked_loop in
  let s = d.Distill.stats in
  check "static ratio positive" true (Distill.static_ratio s > 0.0);
  check "estimated dynamic original matches profile" true
    (s.Distill.estimated_dynamic_original > 0)

(* ==================================================================
   The checked pass pipeline: per-pass differential laws over the
   workload corpus, random pass subsets under the machine oracle, and
   the mutation smoke tests (broken passes must be caught by the real
   invariants — and still absorbed by verification when let through).
   ================================================================== *)

module Pass = Mssp_distill.Pass
module Cfg = Mssp_cfg.Cfg
module Oracle = Mssp_fuzz.Oracle
module Config = Mssp_core.Mssp_config
module M = Mssp_core.Mssp_machine
module W = Mssp_workload.Workload

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let pp_failures fs =
  String.concat "; "
    (List.map
       (fun (f : Oracle.failure) ->
         Printf.sprintf "[%s] %s" f.Oracle.point f.Oracle.reason)
       fs)

let resolve names =
  match Distill.resolve names with Ok ps -> ps | Error e -> Alcotest.fail e

(* every workload at training size, with its training profile *)
let corpus =
  lazy
    (List.map
       (fun (b : W.benchmark) ->
         let p = b.W.program ~size:b.W.train_size in
         (b.W.name, p, Profile.collect p))
       W.all)

let package_names ?options names p profile =
  let d =
    Distill.distill ?options ~passes:(resolve names) ~check:true p profile
  in
  if not (Distill.ok d) then
    Alcotest.failf "pass-checker: %s"
      (Mssp_distill.Check.show d.Distill.violations);
  d

(* the pre-layout rewrite sites of a one-pass pipeline: (pc, before,
   after), read off the pass's own code snapshot *)
let rewrite_sites name p profile =
  let d = package_names [ name ] p profile in
  let code = (List.hd d.Distill.steps).Distill.after.Program.code in
  let sites = ref [] in
  Array.iteri
    (fun i before ->
      if not (Instr.equal before code.(i)) then
        sites := (p.Program.base + i, before, code.(i)) :: !sites)
    p.Program.code;
  List.rev !sites

(* CFG reachability of the ORIGINAL code: valid for comparing layouts
   whose rewrites neither add branches nor change the Li constant set
   (St/Nop swaps), where emission reach is unchanged *)
let reachable_pc p =
  let g = Cfg.build p in
  let reach = Cfg.reachable g in
  fun pc ->
    match Cfg.block_of_pc g pc with
    | Some b -> reach.(b.Cfg.id)
    | None -> false

let stats_of (d : Distill.t) = d.Distill.stats

(* drop-stores is exact: St -> Nop preserves blocks and reachability, so
   the static and dynamic-estimate deltas are fully accounted for by the
   reachable removed sites *)
let test_diff_drop_stores () =
  List.iter
    (fun (name, p, profile) ->
      let base = package_names [ "compact" ] p profile in
      let w = package_names [ "drop-stores"; "compact" ] p profile in
      let sites = rewrite_sites "drop-stores" p profile in
      let reach = reachable_pc p in
      let live = List.filter (fun (pc, _, _) -> reach pc) sites in
      check_int
        (name ^ ": stores_removed counts the rewrite sites")
        (List.length sites)
        (stats_of w).Distill.stores_removed;
      List.iter
        (fun (_, before, after) ->
          check (name ^ ": St -> Nop") true
            (match (before, after) with
            | Instr.St _, Instr.Nop -> true
            | _ -> false))
        sites;
      check_int
        (name ^ ": static delta = reachable removed stores")
        ((stats_of base).Distill.distilled_static - List.length live)
        (stats_of w).Distill.distilled_static;
      let dyn =
        List.fold_left
          (fun a (pc, _, _) -> a + Profile.exec_count profile pc)
          0 live
      in
      check_int
        (name ^ ": dynamic estimate delta accounts exactly")
        ((stats_of base).Distill.estimated_dynamic_distilled - dyn)
        (stats_of w).Distill.estimated_dynamic_distilled)
    (Lazy.force corpus)

(* dead-writes is exact too — unless an Li was removed, which can shrink
   the conservative indirect-target root set and drop whole blocks; then
   only monotonicity holds *)
let test_diff_dead_writes () =
  List.iter
    (fun (name, p, profile) ->
      let base = package_names [ "compact" ] p profile in
      let w = package_names [ "dead-writes"; "compact" ] p profile in
      let sites = rewrite_sites "dead-writes" p profile in
      let reach = reachable_pc p in
      let live = List.filter (fun (pc, _, _) -> reach pc) sites in
      check_int
        (name ^ ": dead_writes_removed counts the rewrite sites")
        (List.length sites)
        (stats_of w).Distill.dead_writes_removed;
      let removed_li =
        List.exists
          (fun (_, before, _) ->
            match before with Instr.Li _ -> true | _ -> false)
          sites
      in
      let dyn =
        List.fold_left
          (fun a (pc, _, _) -> a + Profile.exec_count profile pc)
          0 live
      in
      if removed_li then begin
        check (name ^ ": static shrinks at least by the removed sites") true
          ((stats_of w).Distill.distilled_static
          <= (stats_of base).Distill.distilled_static - List.length live);
        check (name ^ ": dynamic estimate never grows") true
          ((stats_of w).Distill.estimated_dynamic_distilled
          <= (stats_of base).Distill.estimated_dynamic_distilled - dyn)
      end
      else begin
        check_int
          (name ^ ": static delta = reachable removed writes")
          ((stats_of base).Distill.distilled_static - List.length live)
          (stats_of w).Distill.distilled_static;
        check_int
          (name ^ ": dynamic estimate delta accounts exactly")
          ((stats_of base).Distill.estimated_dynamic_distilled - dyn)
          (stats_of w).Distill.estimated_dynamic_distilled
      end)
    (Lazy.force corpus)

(* hardening only removes edges (Br -> Jmp/Nop), so reach, static size
   and the dynamic estimate shrink monotonically *)
let test_diff_harden () =
  List.iter
    (fun (name, p, profile) ->
      let base = package_names [ "compact" ] p profile in
      let w = package_names [ "harden"; "compact" ] p profile in
      let sites = rewrite_sites "harden" p profile in
      check_int
        (name ^ ": branches_hardened counts the rewrite sites")
        (List.length sites)
        (stats_of w).Distill.branches_hardened;
      List.iter
        (fun (_, before, after) ->
          check (name ^ ": Br -> Jmp/Nop") true
            (match (before, after) with
            | Instr.Br _, (Instr.Jmp _ | Instr.Nop) -> true
            | _ -> false))
        sites;
      check (name ^ ": static never grows") true
        ((stats_of w).Distill.distilled_static
        <= (stats_of base).Distill.distilled_static);
      check (name ^ ": dynamic estimate never grows") true
        ((stats_of w).Distill.estimated_dynamic_distilled
        <= (stats_of base).Distill.estimated_dynamic_distilled))
    (Lazy.force corpus)

(* repair only un-hardens, and its counters account for every candidate *)
let test_diff_repair () =
  List.iter
    (fun (name, p, profile) ->
      let unrepaired = package_names [ "harden"; "compact" ] p profile in
      let repaired =
        package_names [ "harden"; "repair"; "compact" ] p profile
      in
      let candidates = (stats_of unrepaired).Distill.branches_hardened in
      let kept = (stats_of repaired).Distill.branches_hardened in
      check (name ^ ": repair only un-hardens") true (kept <= candidates);
      let rstat =
        (List.find
           (fun (s : Distill.step) -> s.Distill.stat.Pass.pass = "repair")
           repaired.Distill.steps)
          .Distill.stat
      in
      check_int
        (name ^ ": restored + kept = candidates")
        candidates
        (Pass.counter rstat "restored" + Pass.counter rstat "kept");
      check_int
        (name ^ ": kept matches the flat record")
        kept (Pass.counter rstat "kept");
      check (name ^ ": restoring branches can only grow the estimate") true
        ((stats_of repaired).Distill.estimated_dynamic_distilled
        >= (stats_of unrepaired).Distill.estimated_dynamic_distilled))
    (Lazy.force corpus)

(* boundaries only add Forks, and Forks are free in the estimate *)
let test_diff_boundaries () =
  List.iter
    (fun (name, p, profile) ->
      let base = package_names [ "compact" ] p profile in
      let w = package_names [ "boundaries"; "compact" ] p profile in
      check_int
        (name ^ ": forks_inserted = task entries")
        (List.length w.Distill.task_entries)
        (stats_of w).Distill.forks_inserted;
      check (name ^ ": entry fork always present") true
        ((stats_of base).Distill.forks_inserted >= 1);
      check_int
        (name ^ ": static delta = extra forks")
        ((stats_of w).Distill.forks_inserted
        - (stats_of base).Distill.forks_inserted)
        ((stats_of w).Distill.distilled_static
        - (stats_of base).Distill.distilled_static);
      check_int
        (name ^ ": forks are free in the dynamic estimate")
        (stats_of base).Distill.estimated_dynamic_distilled
        (stats_of w).Distill.estimated_dynamic_distilled)
    (Lazy.force corpus)

(* the empty pipeline's appended identity layout keeps Nops; the compact
   pass drops exactly those (reach is identical on untouched code) *)
let test_diff_compact () =
  let count_nops code =
    Array.fold_left (fun a i -> if i = Instr.Nop then a + 1 else a) 0 code
  in
  List.iter
    (fun (name, p, profile) ->
      let loose = package_names [] p profile in
      let tight = package_names [ "compact" ] p profile in
      let nops = count_nops loose.Distill.distilled.Program.code in
      check_int
        (name ^ ": compaction removes exactly the emitted Nops")
        ((stats_of loose).Distill.distilled_static - nops)
        (stats_of tight).Distill.distilled_static;
      check_int
        (name ^ ": no Nop survives compaction")
        0
        (count_nops tight.Distill.distilled.Program.code);
      check (name ^ ": estimate never grows") true
        ((stats_of tight).Distill.estimated_dynamic_distilled
        <= (stats_of loose).Distill.estimated_dynamic_distilled))
    (Lazy.force corpus)

(* --- machine equivalence: each pass alone (and none) must land the
   MSSP machine on the SEQ state --- *)

let subset_point names =
  {
    Oracle.name =
      "passes/" ^ if names = [] then "none" else String.concat "+" names;
    Oracle.distiller = Oracle.Subset names;
    Oracle.config = { Config.default with Config.verify_refinement = true };
  }

let test_single_pass_machine_equivalence () =
  let benches = List.filteri (fun i _ -> i < 4) (Lazy.force corpus) in
  let subsets = [] :: List.map (fun n -> [ n ]) Oracle.switchable_passes in
  List.iter
    (fun (bname, p, _) ->
      List.iter
        (fun names ->
          match Oracle.check ~grid:[ subset_point names ] ~formal:false p with
          | Oracle.Passed _ -> ()
          | Oracle.Skipped r -> Alcotest.failf "%s: skipped: %s" bname r
          | Oracle.Failed fs -> Alcotest.failf "%s: %s" bname (pp_failures fs))
        subsets)
    benches

(* --- any random subset in a valid order, on fuzz-generated programs:
   checker-clean and SEQ-equivalent --- *)

let prop_pass_subsets =
  QCheck.Test.make
    ~name:"random pass subsets stay checked and absorbable" ~count:25
    QCheck.(pair small_nat (int_range 4 16))
    (fun (seed, size) ->
      let p = Mssp_fuzz.Gen.generate ~seed ~size () in
      let names = Oracle.random_subset ~seed:((seed * 31) + size) in
      match
        Oracle.check ~grid:[ subset_point names ] ~formal:false ~fuel:500_000 p
      with
      | Oracle.Passed _ -> true
      | Oracle.Skipped _ -> true (* reference ran out of fuel: out of scope *)
      | Oracle.Failed fs ->
        QCheck.Test.fail_reportf "subset [%s]: %s"
          (String.concat "; " names)
          (pp_failures fs))

(* --- the adaptive passes: delta laws --------------------------------- *)

module Adapt = Mssp_core.Mssp_adapt

let feedback target =
  {
    Distill.default_options with
    Distill.feedback = Some { Distill.fb_target_size = target };
  }

(* the pass state after [passes], in order *)
let state_after ?options passes p profile =
  List.fold_left
    (fun st (ps : Pass.t) -> fst (ps.Pass.apply st))
    (Pass.init ?options p profile) passes

let entries ?options passes p profile =
  Option.get (state_after ?options passes p profile).Pass.task_entries

(* faint-writes after the rest of the default prefix: the rewritten
   sites (before, after) and the pass's count *)
let faint_sites ?options p profile =
  let st =
    state_after ?options
      Pass.[ harden; drop_stores; repair; dead_writes; boundaries; merge ]
      p profile
  in
  let before = Array.copy st.Pass.code in
  let st, stat = Pass.faint_writes.Pass.apply st in
  let sites = ref [] in
  Array.iteri
    (fun i b ->
      let a = st.Pass.code.(i) in
      if not (Instr.equal b a) then sites := (b, a) :: !sites)
    before;
  (!sites, stat.Pass.rewrites)

(* The laws on one program, as the names of the broken ones: without
   feedback, merge and faint-writes leave the default package as it is
   without them; with feedback, merge keeps a subset of the static
   boundaries with the entry and the highest-pc marker among the
   others, and faint-writes turns only pure register writes (never a
   store, branch, jump, Out or Fork) into Nops. *)
let adaptive_law_violations ~target p profile =
  let laws = ref [] in
  let law name ok = if not ok then laws := name :: !laws in
  let full = Distill.distill p profile in
  let adaptive (ps : Pass.t) =
    List.mem ps.Pass.name [ "merge"; "faint-writes" ]
  in
  let passes = List.filter (Fun.negate adaptive) (Distill.default_passes ()) in
  let without = Distill.distill ~passes p profile in
  law "no feedback: same package"
    (full.Distill.task_entries = without.Distill.task_entries
    && Array.for_all2 Instr.equal full.Distill.distilled.Program.code
         without.Distill.distilled.Program.code);
  let options = feedback target in
  let static = entries ~options [ Pass.boundaries ] p profile in
  let merged = entries ~options [ Pass.boundaries; Pass.merge ] p profile in
  law "merge keeps a subset"
    (List.for_all (fun e -> List.mem e static) merged);
  law "merge keeps the entry" (List.mem p.Program.entry merged);
  (match List.rev (List.filter (( <> ) p.Program.entry) static) with
  | last :: _ ->
    law "merge keeps the highest-pc marker" (List.mem last merged)
  | [] -> ());
  let sites, rewrites = faint_sites ~options p profile in
  law "faint-writes counts its rewrites" (rewrites = List.length sites);
  law "faint-writes removes only pure register writes"
    (List.for_all
       (fun (b, a) ->
         Instr.equal a Instr.Nop
         &&
         match b with
         | Instr.Alu _ | Instr.Alui _ | Instr.Li _ | Instr.Ld _ -> true
         | _ -> false)
       sites);
  List.rev !laws

let test_adaptive_laws_kernels () =
  let task_size = Config.default.Config.task_size in
  List.iter
    (fun (name, p, profile) ->
      match adaptive_law_violations ~target:task_size p profile with
      | [] -> ()
      | bad -> Alcotest.failf "%s: %s" name (String.concat "; " bad))
    (Lazy.force corpus);
  (* not vacuous: on fir, merge drops markers and faint-writes elides *)
  let _, p, profile =
    List.find (fun (n, _, _) -> n = "fir") (Lazy.force corpus)
  in
  let options = feedback task_size in
  check "fir: merge drops markers" true
    (List.length (entries ~options [ Pass.boundaries; Pass.merge ] p profile)
    < List.length (entries ~options [ Pass.boundaries ] p profile));
  check "fir: faint-writes elides" true
    (snd (faint_sites ~options p profile) > 0)

let prop_adaptive_laws =
  QCheck.Test.make ~name:"adaptive pass laws on generated programs" ~count:40
    QCheck.(triple small_nat (int_range 4 16) (int_range 1 400))
    (fun (seed, size, target) ->
      let p = Mssp_fuzz.Gen.generate ~seed ~size () in
      let profile = Profile.collect ~fuel:500_000 p in
      match adaptive_law_violations ~target p profile with
      | [] -> true
      | bad ->
        QCheck.Test.fail_reportf "target %d: %s" target
          (String.concat "; " bad))

(* --- the adaptation loop: two candidates, the faster halted one kept *)

let adapt ?(config = Config.default) name =
  let b = W.find name in
  Adapt.run ~config:(Config.with_slaves 8 config)
    (b.W.program ~size:b.W.ref_size)
    (Profile.collect (b.W.program ~size:b.W.train_size))

(* (index, cycles, halted) per round, and the best round's index *)
let summary (a : Adapt.t) =
  ( List.map
      (fun (r : Adapt.round) ->
        ( r.Adapt.index,
          Adapt.round_cycles r,
          r.Adapt.result.M.stop = M.Halted ))
      a.Adapt.rounds,
    a.Adapt.best.Adapt.index )

let test_adapt () =
  let expect what rounds best a =
    Alcotest.(check (pair (list (triple int int bool)) int))
      what (rounds, best) (summary a)
  in
  expect "fir@8 picks round 1"
    [ (0, 857_860, true); (1, 285_848, true) ]
    1 (adapt "fir");
  expect "vecsum@8 keeps round 0"
    [ (0, 153_280, true); (1, 373_273, true) ]
    0 (adapt "vecsum");
  (* only a halted round wins: interrupted at its first check, vecsum's
     static round stops short of the adapted one's 373,273 cycles and
     still loses; under a cycle limit below both of fir's rounds, round
     0 stands *)
  let first = ref true in
  let interrupt () = if !first then (first := false; Some "test") else None in
  let cut = { Config.default with Config.interrupt = Some interrupt } in
  check "interrupted round 0 loses to a halted round 1" true
    (match summary (adapt ~config:cut "vecsum") with
    | [ (0, _, false); (1, 373_273, true) ], 1 -> true
    | _ -> false);
  let low = { Config.default with Config.max_cycles = 200_000 } in
  check "no round halts: round 0 stands" true
    (match summary (adapt ~config:low "fir") with
    | [ (0, _, false); (1, _, false) ], 0 -> true
    | _ -> false);
  (* round 1's feedback is the task size; two calls are bit-identical *)
  let a1 = adapt "fir" and a2 = adapt "fir" in
  check "round 1 merges to the task size" true
    ((List.nth a1.Adapt.rounds 1).Adapt.feedback
    = Some { Distill.fb_target_size = Config.default.Config.task_size });
  List.iter2
    (fun (r1 : Adapt.round) (r2 : Adapt.round) ->
      check "same feedback, image, stop and stats" true
        (r1.Adapt.feedback = r2.Adapt.feedback
        && Array.for_all2 Instr.equal
             r1.Adapt.distilled.Distill.distilled.Program.code
             r2.Adapt.distilled.Distill.distilled.Program.code
        && r1.Adapt.result.M.stop = r2.Adapt.result.M.stop
        && r1.Adapt.result.M.stats = r2.Adapt.result.M.stats);
      check "same final state" true
        (Full.diff_observable r1.Adapt.result.M.arch r2.Adapt.result.M.arch
        = []))
    a1.Adapt.rounds a2.Adapt.rounds

(* --- mutation smoke tests ------------------------------------------ *)

(* material for every broken pass: a hardenable cold check, a
   communicating store, and a fork-carrying layout *)
let mutation_material =
  build (fun b ->
      Dsl.li b t0 100;
      Dsl.li b s13 1000;
      let cell = Dsl.alloc b 1 in
      Dsl.label b "loop";
      Dsl.br b Instr.Gt t0 s13 "error"; (* never taken *)
      Dsl.st_addr b t0 cell; (* reloaded one instruction later *)
      Dsl.ld_addr b t1 cell;
      Dsl.alui b Instr.Sub t0 t0 1;
      Dsl.br b Instr.Gt t0 zero "loop";
      Dsl.out b t1;
      Dsl.halt b;
      Dsl.label b "error";
      Dsl.li b t1 (-1);
      Dsl.out b t1;
      Dsl.halt b)

(* low store thresholds, so the (inverted) store predicate has sites *)
let mutant_options =
  {
    Distill.default_options with
    Distill.store_comm_distance = 10;
    min_store_count = 1;
  }

let checked_with ?options names p =
  let profile = Profile.collect p in
  let d =
    Distill.distill ?options ~passes:(resolve names) ~check:true p profile
  in
  if Distill.ok d then Ok d
  else Error (Mssp_distill.Check.show d.Distill.violations)

let test_mutants_caught () =
  let expect bad needle =
    match checked_with ~options:mutant_options [ bad ] mutation_material with
    | Error e ->
      check
        (Printf.sprintf "%s caught by the real invariant (%s)" bad e)
        true (contains e needle)
    | Ok _ -> Alcotest.failf "%s escaped the pass-checker" bad
  in
  expect "broken-harden" "dominant";
  expect "broken-stores" "store";
  expect "broken-forks" "fork";
  (* the honest pipeline over the same material is clean *)
  match
    checked_with ~options:mutant_options
      (Distill.names (Distill.default_passes ()))
      mutation_material
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "honest pipeline rejected: %s" e

(* distillation is unsound by design and verification absorbs it all:
   even a deliberately broken package must land on the SEQ state *)
let agrees_with_seq ?(fuel = 2_000_000) (d : Distill.t) =
  let s = Full.create () in
  Full.load s d.Distill.original;
  Full.load ~set_entry:false s d.Distill.distilled;
  let m = Machine.of_state s in
  ignore (Machine.run ~fuel m : Machine.stop);
  let r =
    M.run ~config:{ Config.default with Config.verify_refinement = true } d
  in
  r.M.stop = M.Halted
  && Full.diff_observable m.Machine.state r.M.arch = []
  && r.M.refinement_violations = 0

let test_mutants_still_absorbed () =
  let profile = Profile.collect mutation_material in
  List.iter
    (fun bad ->
      let d =
        Distill.distill ~options:mutant_options ~passes:(resolve [ bad ])
          mutation_material profile
      in
      check (bad ^ " package is still absorbed by verification") true
        (agrees_with_seq d))
    [ "broken-harden"; "broken-stores"; "broken-forks" ]

(* --- what a distillation costs and what it can show --------------- *)

(* A distillation builds its package and the per-pass code copies; the
   listings are rendered only by [dump]. Rendering them for every pass
   cost 4,300-5,200 minor words per static instruction on the kernels. *)
let test_distill_allocation () =
  List.iter
    (fun (b : W.benchmark) ->
      let program = b.W.program ~size:b.W.ref_size in
      let profile = Profile.collect (b.W.program ~size:b.W.train_size) in
      let w0 = Gc.minor_words () in
      let d = Distill.distill program profile in
      let words = Gc.minor_words () -. w0 in
      let per_instr = words /. float_of_int (Program.length program) in
      ignore (Sys.opaque_identity d);
      check
        (Printf.sprintf "%s: %.0f minor words per static instruction < 1000"
           b.W.name per_instr)
        true (per_instr < 1000.0))
    W.all

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines_of s = String.split_on_char '\n' s

let test_pass_dump () =
  let b = W.find "vecsum" in
  let program = b.W.program ~size:b.W.ref_size in
  let profile = Profile.collect (b.W.program ~size:b.W.train_size) in
  let d = Distill.distill ~check:true program profile in
  let dir = Filename.temp_dir "mssp_distill_dump" "" in
  let files = Distill.dump ~dir d in
  Fun.protect ~finally:(fun () ->
      List.iter Sys.remove files;
      Sys.rmdir dir)
  @@ fun () ->
  let expected =
    List.map
      (fun (s : Distill.step) ->
        Printf.sprintf "%02d-%s.diff" s.Distill.index s.Distill.pass.Pass.name)
      d.Distill.steps
    @ [ "pipeline.json" ]
  in
  Alcotest.(check (list string))
    "one diff per executed pass, then pipeline.json" expected
    (List.map Filename.basename files);
  Alcotest.(check (list string))
    "nothing else written" (List.sort compare expected)
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  (* the harden diff: every hardened branch as a -/+ pair of listing
     lines *)
  let harden =
    List.find
      (fun (s : Distill.step) -> s.Distill.pass.Pass.name = "harden")
      d.Distill.steps
  in
  let diff =
    lines_of
      (read_file
         (Filename.concat dir
            (Printf.sprintf "%02d-harden.diff" harden.Distill.index)))
  in
  let line prefix pc instr =
    Format.asprintf "%s  %#6x: %a" prefix pc Instr.pp instr
  in
  let before = harden.Distill.before and after = harden.Distill.after in
  let sites = ref 0 in
  Array.iteri
    (fun i old ->
      let pc = before.Program.base + i in
      match old with
      | Instr.Br _ when not (Instr.equal old after.Program.code.(i)) ->
        incr sites;
        check (Printf.sprintf "- line for %#x" pc) true
          (List.mem (line "-" pc old) diff);
        check (Printf.sprintf "+ line for %#x" pc) true
          (List.mem (line "+" pc after.Program.code.(i)) diff)
      | _ -> ())
    before.Program.code;
  check "vecsum hardens a branch" true (!sites > 0);
  let count prefix header =
    List.length
      (List.filter
         (fun l ->
           String.starts_with ~prefix l
           && not (String.starts_with ~prefix:header l))
         diff)
  in
  check_int "one - line per hardened branch" !sites (count "-" "--- ");
  check_int "one + line per hardened branch" !sites (count "+" "+++ ");
  check_int "harden's stat counts them" !sites
    harden.Distill.stat.Pass.rewrites;
  (* pipeline.json parses and its summary is the package's stats *)
  let module Tjson = Mssp_trace.Tjson in
  match Tjson.parse (read_file (Filename.concat dir "pipeline.json")) with
  | Error e -> Alcotest.failf "pipeline.json: %s" e
  | Ok json ->
    let passes =
      Option.bind (Tjson.member "passes" json) Tjson.to_list
      |> Option.value ~default:[]
    in
    check_int "one JSON entry per step" (List.length d.Distill.steps)
      (List.length passes);
    let field k =
      match Option.bind (Tjson.member "summary" json) (Tjson.member k) with
      | Some v -> Option.value ~default:(-1) (Tjson.to_int v)
      | None -> Alcotest.failf "summary has no %s" k
    in
    let s = d.Distill.stats in
    List.iter
      (fun (k, v) -> check_int ("summary " ^ k) v (field k))
      [
        ("original_static", s.Distill.original_static);
        ("distilled_static", s.Distill.distilled_static);
        ("forks", s.Distill.forks_inserted);
        ("blocks_dropped", s.Distill.blocks_dropped);
        ("estimated_dynamic_original", s.Distill.estimated_dynamic_original);
        ("estimated_dynamic_distilled", s.Distill.estimated_dynamic_distilled);
      ];
    check_int "no violations" 0
      (Option.value ~default:(-1)
         (Option.bind (Tjson.member "violations" json) Tjson.to_int))

let () =
  Alcotest.run "distill"
    [
      ( "transformations",
        [
          Alcotest.test_case "hardens cold checks" `Quick test_hardens_cold_check;
          Alcotest.test_case "repairs hot-exit hardening" `Quick
            test_does_not_harden_hot_exit;
          Alcotest.test_case "removes non-comm stores" `Quick
            test_removes_noncomm_stores;
          Alcotest.test_case "keeps communicating stores" `Quick
            test_keeps_communicating_stores;
          Alcotest.test_case "dead-write chains" `Quick test_dead_write_elimination;
          Alcotest.test_case "identity options" `Quick test_identity_options;
        ] );
      ( "layout",
        [
          Alcotest.test_case "entry map" `Quick test_entry_map_and_task_entries;
          Alcotest.test_case "distilled base/entry" `Quick
            test_distilled_base_and_entry;
          Alcotest.test_case "retargeting" `Quick test_retargeting_runs;
          Alcotest.test_case "original return addresses" `Quick
            test_calls_leave_original_return_addresses;
          Alcotest.test_case "stats" `Quick test_stats_ratios;
          Mssp_testkit.to_alcotest prop_distill_invariants;
          Alcotest.test_case "stack stores survive" `Quick
            test_stack_stores_survive;
        ] );
      ( "passes",
        [
          Alcotest.test_case "harden differential" `Quick test_diff_harden;
          Alcotest.test_case "repair differential" `Quick test_diff_repair;
          Alcotest.test_case "drop-stores differential" `Quick
            test_diff_drop_stores;
          Alcotest.test_case "dead-writes differential" `Quick
            test_diff_dead_writes;
          Alcotest.test_case "boundaries differential" `Quick
            test_diff_boundaries;
          Alcotest.test_case "compact differential" `Quick test_diff_compact;
          Alcotest.test_case "machine equivalence per pass" `Quick
            test_single_pass_machine_equivalence;
        ] );
      ("pipeline", [ Mssp_testkit.to_alcotest prop_pass_subsets ]);
      ( "adaptive passes",
        [
          Alcotest.test_case "delta laws on the kernels" `Quick
            test_adaptive_laws_kernels;
          Mssp_testkit.to_alcotest prop_adaptive_laws;
        ] );
      ( "adaptation",
        [
          Alcotest.test_case "two candidates, faster halted kept" `Quick
            test_adapt;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "broken passes caught" `Quick test_mutants_caught;
          Alcotest.test_case "broken packages still absorbed" `Quick
            test_mutants_still_absorbed;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "distillation allocation" `Quick
            test_distill_allocation;
          Alcotest.test_case "pass dump" `Quick test_pass_dump;
        ] );
    ]
