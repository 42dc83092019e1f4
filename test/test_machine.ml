(* Tests for the MSSP machine: end-to-end correctness against SEQ,
   refinement shadow, squash/recovery, window limits, I/O handling,
   stats coherence, safety limits, the cooperative
   interrupt hook. *)

module Full = Mssp_state.Full
module Layout = Mssp_isa.Layout
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module W = Mssp_workload.Workload
module Adversary = Mssp_workload.Adversary
module Dsl = Mssp_asm.Dsl
module Instr = Mssp_isa.Instr
module Fragment = Mssp_state.Fragment
module Live_in = Mssp_state.Live_in
module Dirty = Mssp_state.Dirty
module Cell = Mssp_state.Cell
module Plan = Mssp_faults.Plan
module Task = Mssp_task.Task
module Journal = Mssp_task.Journal
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let distill_of p =
  let profile = Profile.collect p in
  Distill.distill p profile

(* the SEQ reference, with the distilled image loaded like the machine
   does, so final states are directly comparable *)
let seq_reference (d : Distill.t) =
  let s = Full.create () in
  Full.load s d.Distill.original;
  Full.load ~set_entry:false s d.Distill.distilled;
  let m = Machine.of_state s in
  ignore (Machine.run m : Machine.stop);
  m

let checking_config =
  { Config.default with Config.verify_refinement = true }

let run_and_compare ?(config = checking_config) d =
  let seq = seq_reference d in
  let r = M.run ~config d in
  check "halted" true (r.M.stop = M.Halted);
  check "states equal" true (Full.equal_observable seq.Machine.state r.M.arch);
  check_int "no refinement violations" 0 r.M.refinement_violations;
  (seq, r)

let small_program =
  let b = Dsl.create () in
  Dsl.li b t0 200;
  Dsl.li b t1 0;
  Dsl.label b "loop";
  Dsl.alu b Instr.Add t1 t1 t0;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.out b t1;
  Dsl.halt b;
  Dsl.build b ()

let test_simple_equivalence () =
  let seq, r = run_and_compare (distill_of small_program) in
  check "output preserved" true
    (Machine.output seq.Machine.state = Machine.output r.M.arch);
  check "work went through tasks" true (r.M.stats.M.tasks_committed > 1)

let test_stats_coherence () =
  let d = distill_of small_program in
  let seq = seq_reference d in
  let r = M.run ~config:checking_config d in
  (* every sequential instruction is accounted for exactly once: either
     committed via a task or executed during recovery *)
  check_int "instruction accounting" seq.Machine.instructions (M.total_committed r);
  check "task sizes recorded" true
    (List.length r.M.stats.M.task_sizes = r.M.stats.M.tasks_committed);
  check "mean task size positive" true (M.mean_task_size r > 0.0);
  check "occupancy sane" true
    (let o = M.slave_occupancy r ~config:checking_config in
     o >= 0.0 && o <= 1.0)

let test_window_limit () =
  let cfg = { checking_config with Config.max_in_flight = 2; Config.slaves = 2 } in
  let d = distill_of small_program in
  let r = M.run ~config:cfg d in
  check "halted" true (r.M.stop = M.Halted);
  let seq = seq_reference d in
  check "still equal" true (Full.equal_observable seq.Machine.state r.M.arch)

let test_single_slave () =
  let cfg = { checking_config with Config.slaves = 1; Config.max_in_flight = 2 } in
  let _ = run_and_compare ~config:cfg (distill_of small_program) in
  ()

let test_window_of_one () =
  (* regression: a window of 1 used to deadlock (the lone task could
     never learn its end boundary) and then misreport a clean halt *)
  let cfg = { checking_config with Config.max_in_flight = 1 } in
  let _, r = run_and_compare ~config:cfg (distill_of small_program) in
  check "still parallelized through tasks" true (r.M.stats.M.tasks_committed > 1)

let test_adversaries_cannot_break_correctness () =
  List.iter
    (fun (name, d) ->
      let seq = seq_reference d in
      let cfg =
        { checking_config with Config.master_chunk = 50_000 }
      in
      let r = M.run ~config:cfg d in
      check (name ^ " halted") true (r.M.stop = M.Halted);
      check (name ^ " state equal") true
        (Full.equal_observable seq.Machine.state r.M.arch);
      check_int (name ^ " refinement") 0 r.M.refinement_violations)
    (Adversary.all small_program)

let test_liar_squashes () =
  (* the liar master forks correct boundaries with corrupted values:
     beyond the first task, commits must be preceded by squashes *)
  let d = Adversary.liar small_program in
  let r = M.run ~config:checking_config d in
  check "halted" true (r.M.stop = M.Halted);
  (* the liar's first task runs to halt with pristine values: committed *)
  check "made progress" true (M.total_committed r > 0)

let test_io_forces_recovery () =
  let b = W.io_bench in
  let p = b.W.program ~size:400 in
  let d = distill_of p in
  let seq, r = run_and_compare d in
  (* I/O writes land in the right order and values *)
  check "io region equal" true
    (List.for_all
       (fun i ->
         Full.get_mem seq.Machine.state (Layout.io_base + i)
         = Full.get_mem r.M.arch (Layout.io_base + i))
       (List.init 16 (fun i -> i)));
  (* I/O refusal shows up as task-failure squashes with recovery *)
  check "io caused squashes" true (r.M.stats.M.squash_task_failed > 0);
  check "recovery executed the io" true (r.M.stats.M.recovery_instructions > 0)

let test_cycle_limit_stops () =
  let d = distill_of small_program in
  let r = M.run ~config:{ checking_config with Config.max_cycles = 50 } d in
  check "stopped by limit" true (r.M.stop = M.Cycle_limit)

let test_squash_limit_stops () =
  (* a master that dies at every restart squashes at every boundary: a
     cap of 3 squashes stops the machine on the 4th, at that squash's
     cycle, with architected state exactly a SEQ prefix *)
  let module Trace = Mssp_trace.Trace in
  let d = Adversary.amnesiac (distill_of small_program) in
  let tracer, events = Trace.recording () in
  let cfg =
    { checking_config with Config.max_squashes = 3; tracer = Some tracer }
  in
  let r = M.run ~config:cfg d in
  check "stopped by the squash limit" true (r.M.stop = M.Squash_limit);
  check_int "the capped squash is counted" 4 r.M.stats.M.squashes;
  let halt_cycle =
    List.find_map
      (function Trace.Halt { cycle; _ } -> Some cycle | _ -> None)
      (events ())
  in
  check "stats cycles = Halt cycle" true
    (halt_cycle = Some r.M.stats.M.cycles);
  let prefix = Full.create () in
  Full.load prefix d.Distill.original;
  Full.load ~set_entry:false prefix d.Distill.distilled;
  ignore
    (Machine.seq_in_place prefix (M.total_committed r) : Machine.stop option);
  check "arch is a SEQ prefix" true (Full.equal_observable prefix r.M.arch)

(* The spinner's self-jump is run once per restart and the rest of its
   chunk is accounted in closed form. Against the step-by-step rules:
   a chunk of c instructions counts c master instructions and c master
   fetches per restart, and each one past the first costs the master's
   base cycle and an L1 hit. *)
let test_idle_master_closed_form () =
  let module Trace = Mssp_trace.Trace in
  let d = Adversary.spinner ((W.find "vecsum").W.program ~size:100) in
  let run chunk =
    let tracer, events = Trace.recording () in
    let config =
      { Config.default with Config.master_chunk = chunk; tracer = Some tracer }
    in
    let r = M.run ~config d in
    let evs = events () in
    let stops =
      List.length
        (List.filter (function Trace.Master_stop _ -> true | _ -> false) evs)
    in
    let fetches =
      List.find_map
        (function
          | Trace.Counter { name = "cache.master_l1_accesses"; value; _ } ->
            Some value
          | _ -> None)
        evs
    in
    check (Printf.sprintf "chunk %d halted" chunk) true (r.M.stop = M.Halted);
    check_int (Printf.sprintf "chunk %d: one restart" chunk) 1 stops;
    check_int
      (Printf.sprintf "chunk %d: master instructions" chunk)
      chunk r.M.stats.M.master_instructions;
    check
      (Printf.sprintf "chunk %d: one fetch per instruction" chunk)
      true
      (fetches = Some chunk);
    r.M.stats.M.cycles
  in
  let t = Config.default.Config.timing in
  let per_trip = t.Config.master_base + t.Config.lat.Mssp_cache.Cache.Hierarchy.l1_hit in
  let c1 = run 1 in
  List.iter
    (fun chunk ->
      check_int
        (Printf.sprintf "chunk %d: cycles" chunk)
        (c1 + ((chunk - 1) * per_trip))
        (run chunk))
    [ 2; 3; 1_000 ]

(* A master that loops over two instructions and never forks, so every
   restart runs a whole chunk through the stepping loop. The spinner
   adversary's self-jump would not do: its trips after the first are
   accounted in closed form, with no step to measure. *)
let nop_spinner (p : Mssp_isa.Program.t) =
  let b = Dsl.create ~base:Layout.distilled_base () in
  Dsl.label b "spin";
  Dsl.nop b;
  Dsl.jmp b "spin";
  Adversary.package p (Dsl.build b ())

let test_master_loop_allocation () =
  (* the words a longer chunk adds, per master instruction it adds, are
     what the master loop allocates per instruction *)
  let d = nop_spinner ((W.find "vecsum").W.program ~size:100) in
  let measure chunk =
    let config = { Config.default with Config.master_chunk = chunk } in
    let w0 = Gc.minor_words () in
    let r = M.run ~config d in
    (Gc.minor_words () -. w0, r.M.stats.M.master_instructions)
  in
  let w1, n1 = measure 10_000 in
  let w2, n2 = measure 100_000 in
  let per = (w2 -. w1) /. float_of_int (n2 - n1) in
  check
    (Printf.sprintf "%.3f words per master instruction (%d more)" per
       (n2 - n1))
    true
    (n2 > n1 && per < 0.5)

(* A master that stores on every trip and never forks: every store
   lands in the open write layer, over the same few cells, so extra
   master instructions must cost (next to) no minor words. A persistent
   map under the hook costs about 6 words per store. *)
let store_spinner (p : Mssp_isa.Program.t) =
  let b = Dsl.create ~base:Layout.distilled_base () in
  Dsl.li b t0 0;
  Dsl.label b "spin";
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.alui b Instr.And t1 t0 7;
  Dsl.st b t0 t1 Layout.data_base;
  Dsl.jmp b "spin";
  Adversary.package p (Dsl.build b ())

let test_master_store_allocation () =
  let d = store_spinner ((W.find "vecsum").W.program ~size:100) in
  let measure chunk =
    let config = { Config.default with Config.master_chunk = chunk } in
    let w0 = Gc.minor_words () in
    let r = M.run ~config d in
    (Gc.minor_words () -. w0, r.M.stats.M.master_instructions)
  in
  let w1, n1 = measure 10_000 in
  let w2, n2 = measure 100_000 in
  let per = (w2 -. w1) /. float_of_int ((n2 - n1) / 4) in
  check
    (Printf.sprintf "%.3f words per master store (%d more instructions)" per
       (n2 - n1))
    true
    (n2 > n1 && per < 0.5)

(* The reference for the live-in a fork ships, in every mode, as a
   fragment built one binding at a time: the PC alone for a control-only
   master; else the PC and every register over the dirty set. *)
let fragment_live_in (cfg : Config.t) ~entry s ~dirty =
  let regs f =
    List.fold_left
      (fun f r ->
        match Cell.reg r with
        | Some c -> Fragment.add c (Full.get s c) f
        | None -> f)
      f Mssp_isa.Reg.all
  in
  if cfg.Config.control_only_master then Fragment.singleton Cell.Pc entry
  else regs (Fragment.add Cell.Pc entry dirty)

(* a master state two hundred instructions into vecsum, and a dirty set
   of [n] data words *)
let master_state () =
  let s = Full.create () in
  Full.load s ((W.find "vecsum").W.program ~size:100);
  ignore (Machine.seq_in_place s 200 : Machine.stop option);
  s

let dirty_set n =
  let rec go i f =
    if i = n then f
    else go (i + 1) (Fragment.add (Cell.mem (Layout.data_base + (3 * i))) i f)
  in
  go 0 Fragment.empty

(* the same writes as the master's write layers, stored over three fork
   intervals and folded, as commits leave them *)
let dirty_layers n =
  let d = Dirty.create () in
  for i = 0 to n - 1 do
    Dirty.store d (Layout.data_base + (3 * i)) i;
    if i mod (n / 3 + 1) = 0 then ignore (Dirty.seal d : int)
  done;
  Dirty.fold d ~upto:max_int;
  d

let test_live_in_modes () =
  let s = master_state () and dirty = dirty_set 242 in
  List.iter
    (fun (mode, cfg) ->
      let li =
        M.checkpoint_live_in cfg ~entry:4096 s ~dirty:(dirty_layers 242)
      in
      let f = fragment_live_in cfg ~entry:4096 s ~dirty in
      check (mode ^ ": the same bindings") true
        (Fragment.equal (Live_in.to_fragment li) f);
      check_int (mode ^ ": counted in O(1)") (Fragment.cardinal f)
        (Live_in.cardinal li))
    [
      ("plain", Config.default);
      ( "control-only",
        { Config.default with Config.control_only_master = true } );
    ]

(* Building a fork's live-in copies a 32-slot register file and seals
   a recycled write layer: its minor words stay small and do not grow
   with the dirty set: 43 words. One insertion per register into the
   242-cell dirty set (the E1 grid's mean) reads 2,453. Each fork's
   checkpoint commits before the next, as on a one-task window, so the
   layer it sealed folds back for reuse. *)
let test_fork_allocation () =
  let s = master_state () in
  let per_fork cfg n =
    let dirty = dirty_layers n in
    let fork () =
      let li = M.checkpoint_live_in cfg ~entry:4096 s ~dirty in
      Dirty.fold dirty ~upto:max_int;
      li
    in
    ignore (Sys.opaque_identity (fork ()));
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (fork ()))
    done;
    (Gc.minor_words () -. w0) /. 1000.
  in
  let control = { Config.default with Config.control_only_master = true } in
  let small = per_fork Config.default 242
  and big = per_fork Config.default 4096
  and pc_only = per_fork control 4096 in
  check
    (Printf.sprintf
       "%.1f words per fork over 242 dirty cells, %.1f over 4,096, %.1f \
        control-only (< 100)"
       small big pc_only)
    true
    (small < 100. && big < 100. && pc_only < 100.)

(* --- task bodies, verify and commit on recycled journals -------------

   A loop whose every trip loads one fresh word and stores another (four
   instructions, two fresh cells): run as one task over a journal pair
   the machine would recycle, after a longer body has grown its tables.
   Recording a cell allocates nothing then, so an extra instruction must
   cost (next to) no minor words; a chained index (a 4-word link per
   recorded cell) costs 2 here. *)

let fresh_cells_loop trips =
  let b = Dsl.create () in
  let src = Dsl.alloc b trips in
  let dst = Dsl.alloc b trips in
  Dsl.li b t0 trips;
  Dsl.label b "head";
  Dsl.ld b t1 t0 src;
  Dsl.st b t1 t0 dst;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "head";
  Dsl.halt b;
  Dsl.build b ()

let test_task_allocation () =
  let reads = Journal.create () and writes = Journal.create () in
  let body trips =
    let p = fresh_cells_loop trips in
    let arch = Full.create () in
    Full.load arch p;
    let decode =
      Mssp_isa.Program.image_decoder [ Mssp_isa.Program.decode_all p ]
    in
    (arch, decode, p.Mssp_isa.Program.entry)
  in
  let run (arch, decode, entry) =
    let task =
      Task.make ~id:0 ~start_pc:entry ~end_pc:None ~end_occurrence:1
        ~budget:max_int ~live_in:(Live_in.of_pc entry) ~decode ~reads ~writes
    in
    let w0 = Gc.minor_words () in
    let status = Task.run task arch in
    let w = Gc.minor_words () -. w0 in
    check "halts" true (status = Task.Complete Task.Program_halted);
    Journal.clear reads;
    Journal.clear writes;
    (w, task.Task.executed)
  in
  let short = body 200 and long = body 2_000 in
  ignore (run long : float * int);
  let w_short, n_short = run short in
  let w_long, n_long = run long in
  let per = (w_long -. w_short) /. float_of_int (n_long - n_short) in
  check
    (Printf.sprintf
       "%.3f minor words per extra slave instruction on a recycled pair \
        (< 0.5)"
       per)
    true (per < 0.5)

(* Verify and commit over a 200-entry journal walk it as ints: the
   PC, 8 registers and 191 memory cells, checked against and written
   into architected state that agrees with them, allocate no word. *)
let test_verify_commit_allocation () =
  let arch = master_state () in
  let task =
    Task.make ~id:0 ~start_pc:(Full.pc arch) ~end_pc:None ~end_occurrence:1
      ~budget:1 ~live_in:(Live_in.of_pc (Full.pc arch))
      ~decode:Mssp_seq.Exec.default_decode ~reads:(Journal.create ())
      ~writes:(Journal.create ())
  in
  let fill j =
    Journal.set_pc j (Full.pc arch);
    for i = 1 to 8 do
      Journal.set_reg j i (Full.get_reg arch (Mssp_isa.Reg.of_int i))
    done;
    for k = 0 to 190 do
      let a = Layout.data_base + (5 * k) - 300 in
      Journal.set_mem j a (Full.get_mem arch a)
    done
  in
  fill task.Task.reads;
  fill task.Task.writes;
  check_int "200 recorded live-ins" 200 (Task.live_in_size task);
  check_int "200 buffered live-outs" 200 (Task.live_out_size task);
  (* one commit first: stores into a page [arch] has not yet written
     may privatize it *)
  Task.commit_into task arch;
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 100 do
      f ()
    done;
    (Gc.minor_words () -. w0) /. 100.
  in
  let consistent = ref true in
  let verify =
    words (fun () ->
        consistent := Task.live_ins_consistent task arch && !consistent)
  and commit = words (fun () -> Task.commit_into task arch) in
  check "the live-ins agree" true !consistent;
  check
    (Printf.sprintf "%.1f words per verify, %.1f per commit (0)" verify commit)
    true
    (verify = 0. && commit = 0.)

(* Every committed task costs the machine a fixed budget of minor words:
   its fork's live-in and checkpoint, the events that spawn, finish,
   verify and commit it, and their trace events. The words a larger
   vecsum adds per task it adds are that budget: about 172, where
   closure-wrapped, boxed queue entries and a boxed task end read about
   283. *)
let test_words_per_task () =
  let b = W.find "vecsum" in
  let profile = Profile.collect (b.W.program ~size:b.W.train_size) in
  let measure size =
    let d = Distill.distill (b.W.program ~size) profile in
    ignore (M.run d : M.result);
    let w0 = Gc.minor_words () in
    let r = M.run d in
    check "halted" true (r.M.stop = M.Halted);
    (Gc.minor_words () -. w0, r.M.stats.M.tasks_committed)
  in
  let w1, n1 = measure 400 and w2, n2 = measure 4_000 in
  let per = (w2 -. w1) /. float_of_int (n2 - n1) in
  check
    (Printf.sprintf "%.1f minor words per extra committed task (%d more; < 230)"
       per (n2 - n1))
    true
    (n2 > n1 && per < 230.)

(* A short program's machine run costs a fixed budget of words, minor
   plus major: the machine record, its states, the cache hierarchies
   and the run's events. The caches are sized by what the run touches:
   this run reads about 15,800 words, and 32,700 when the caches were
   flat arrays (the default L2's two 8,192-slot arrays alone were
   16,384). *)
let test_run_allocation () =
  let words f =
    let total () =
      Gc.full_major ();
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let w0 = total () in
    f ();
    total () -. w0
  in
  let d = distill_of (Mssp_fuzz.Gen.generate ~seed:1 ~size:8 ()) in
  let run () =
    let r = M.run ~config:Config.default d in
    check "halted" true (r.M.stop = M.Halted)
  in
  run ();
  let w = words run in
  check (Printf.sprintf "%.0f words per machine run (< 20,000)" w) true (w < 20_000.)

(* The master skips the PC-map probe inside the distilled image, which
   is only sound while no [pc_map] key lies there: every registry
   kernel's package, every adversary package and generated programs. *)
let test_pc_map_outside_distilled () =
  let check_package name (d : Distill.t) =
    Hashtbl.iter
      (fun o _ ->
        check
          (Printf.sprintf "%s: pc_map key %d outside the distilled image" name
             o)
          false
          (Mssp_isa.Program.in_code d.Distill.distilled o))
      d.Distill.pc_map
  in
  List.iter
    (fun b ->
      check_package b.W.name (distill_of (b.W.program ~size:b.W.train_size)))
    W.all;
  List.iter
    (fun (name, d) -> check_package name d)
    (Adversary.all small_program);
  check_package "amnesiac" (Adversary.amnesiac (distill_of small_program));
  for seed = 1 to 30 do
    check_package
      (Printf.sprintf "gen seed %d" seed)
      (distill_of (Mssp_fuzz.Gen.generate ~seed ~size:8 ()))
  done

let test_recovery_fuel_exhaustion () =
  (* recovery lands in an infinite loop with no task entry in it (the
     dead master forks nothing, so there are no entries at all): the
     segment must burn exactly [recovery_fuel] instructions and stop the
     machine cleanly with the structured [Recovery_fuel] reason instead
     of replaying forever (or masquerading as a cycle-limit stop) *)
  let spin =
    let b = Dsl.create () in
    Dsl.li b t0 1;
    Dsl.label b "spin";
    Dsl.alui b Instr.Add t0 t0 1;
    Dsl.jmp b "spin";
    Dsl.build b ()
  in
  let fuel = 5_000 in
  let cfg = { checking_config with Config.recovery_fuel = fuel } in
  let r = M.run ~config:cfg (Adversary.dead_master spin) in
  check "stopped cleanly, not hung" true (r.M.stop = M.Recovery_fuel);
  check_int "segment burned exactly its fuel" fuel
    r.M.stats.M.recovery_instructions;
  check_int "a single recovery segment" 1 r.M.stats.M.recovery_segments;
  check_int "nothing committed speculatively" 0 r.M.stats.M.tasks_committed;
  check_int "one master-dead squash" 1 r.M.stats.M.squash_master_dead

let test_workload_suite_small () =
  (* every benchmark at train size: equivalence + refinement *)
  List.iter
    (fun (b : W.benchmark) ->
      let p = b.W.program ~size:b.W.train_size in
      let d = distill_of p in
      let seq = seq_reference d in
      let r = M.run ~config:checking_config d in
      check (b.W.name ^ " halted") true (r.M.stop = M.Halted);
      check (b.W.name ^ " equal") true
        (Full.equal_observable seq.Machine.state r.M.arch);
      check_int (b.W.name ^ " refinement") 0 r.M.refinement_violations)
    W.all

let test_determinism () =
  let d = distill_of small_program in
  let r1 = M.run d and r2 = M.run d in
  check "same cycles" true (r1.M.stats.M.cycles = r2.M.stats.M.cycles);
  check "same commits" true
    (r1.M.stats.M.tasks_committed = r2.M.stats.M.tasks_committed);
  check "same squashes" true (r1.M.stats.M.squashes = r2.M.stats.M.squashes)

let test_soft_errors_harmless () =
  (* soft errors in checkpoints: correctness must be untouched at any
     rate; only squashes may grow *)
  let d = distill_of small_program in
  let seq = seq_reference d in
  List.iter
    (fun p ->
      let cfg =
        {
          checking_config with
          Config.faults = Some (Plan.quiet Plan.Live_in_corrupt ~seed:42 ~p);
        }
      in
      let r = M.run ~config:cfg d in
      check (Printf.sprintf "p=%.1f halted" p) true (r.M.stop = M.Halted);
      check
        (Printf.sprintf "p=%.1f equal" p)
        true
        (Full.equal_observable seq.Machine.state r.M.arch);
      check_int (Printf.sprintf "p=%.1f refinement" p) 0 r.M.refinement_violations;
      if p = 1.0 then
        check "faults were actually injected" true (r.M.stats.M.faults_injected > 0))
    [ 0.1; 0.5; 1.0 ]

let test_soft_errors_monotone_squashes () =
  let d = distill_of small_program in
  let run p =
    let cfg =
      {
        Config.default with
        Config.faults = Some (Plan.quiet Plan.Live_in_corrupt ~seed:7 ~p);
      }
    in
    (M.run ~config:cfg d).M.stats.M.squashes
  in
  check "more faults, at least as many squashes" true (run 1.0 >= run 0.0)

(* The cooperative interrupt hook, driven by poll counts instead of a
   wall clock: the machine polls it every 1024th dispatched event, so a
   countdown over polls is as deterministic as the run itself. *)
let interrupt_package () =
  let b = W.find "vecsum" in
  distill_of (b.W.program ~size:4000)

let test_interrupt_countdown_stops () =
  let d = interrupt_package () in
  let full = M.run ~config:checking_config d in
  let polls = ref 0 in
  let counted =
    M.run
      ~config:
        {
          checking_config with
          Config.interrupt = Some (fun () -> incr polls; None);
        }
      d
  in
  check "counted run halts" true (counted.M.stop = M.Halted);
  check
    (Printf.sprintf "run is long enough to poll twice (%d polls)" !polls)
    true (!polls >= 2);
  let k = !polls / 2 in
  let left = ref k in
  let countdown () =
    decr left;
    if !left = 0 then Some "stop" else None
  in
  let r =
    M.run ~config:{ checking_config with Config.interrupt = Some countdown } d
  in
  check "interrupted with the hook's reason" true
    (r.M.stop = M.Interrupted "stop");
  check_int "stopped at the k-th poll" 0 !left;
  check "commits fewer tasks than the full run" true
    (r.M.stats.M.tasks_committed < full.M.stats.M.tasks_committed);
  check_int "no refinement violations" 0 r.M.refinement_violations

let test_interrupt_none_identical () =
  let d = interrupt_package () in
  let off = M.run ~config:checking_config d in
  let on =
    M.run
      ~config:{ checking_config with Config.interrupt = Some (fun () -> None) }
      d
  in
  check "same stop" true (on.M.stop = off.M.stop);
  check "stats bit-identical" true (on.M.stats = off.M.stats);
  check "final state bit-identical" true
    (Fragment.equal (Full.snapshot on.M.arch) (Full.snapshot off.M.arch));
  check_int "same refinement violations" off.M.refinement_violations
    on.M.refinement_violations

let test_dual_mode_restores_floor () =
  (* under a hopeless master that dies at every restart (but with real
     task boundaries, so restarts keep happening), dual mode must not be
     slower than plain MSSP — it amortizes restarts with sequential
     bursts — and stays correct *)
  let d = Adversary.amnesiac (distill_of small_program) in
  let seq = seq_reference d in
  let base_cfg = { checking_config with Config.master_chunk = 50_000 } in
  let off = M.run ~config:base_cfg d in
  let on_cfg = { base_cfg with Config.dual_mode = true; dual_trigger = 2 } in
  let on = M.run ~config:on_cfg d in
  check "correct with dual mode" true
    (Full.equal_observable seq.Machine.state on.M.arch);
  check "bursts happened" true (on.M.stats.M.sequential_bursts > 0);
  check "not slower than without" true
    (on.M.stats.M.cycles <= off.M.stats.M.cycles);
  (* honest masters should essentially never trip the fallback *)
  let honest = M.run ~config:{ on_cfg with Config.master_chunk = 1_000_000 }
      (distill_of small_program)
  in
  check "honest master: no bursts" true
    (honest.M.stats.M.sequential_bursts = 0)

let test_trace_well_formed () =
  let module Trace = Mssp_trace.Trace in
  let d = distill_of small_program in
  let tracer, events = Trace.recording () in
  let cfg = { checking_config with Config.tracer = Some tracer } in
  let r = M.run ~config:cfg d in
  let evs = events () in
  check "trace non-empty" true (evs <> []);
  (* cycles are monotone *)
  let cycles = List.map Trace.event_cycle evs in
  check "monotone cycles" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length cycles - 1) cycles)
       (List.tl cycles));
  (* event counts agree with the stats *)
  let count p = List.length (List.filter p evs) in
  check_int "spawns" r.M.stats.M.tasks_spawned
    (count (function Trace.Fork _ -> true | _ -> false));
  check_int "commits" r.M.stats.M.tasks_committed
    (count (function Trace.Commit _ -> true | _ -> false));
  check_int "squashes" r.M.stats.M.squashes
    (count (function Trace.Squash _ -> true | _ -> false));
  check_int "one halt" 1
    (count (function Trace.Halt _ -> true | _ -> false));
  (* every committed task was forked first *)
  let forked = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Fork { task; _ } -> Hashtbl.replace forked task ()
      | Trace.Commit { task; _ } ->
        check "commit after fork" true (Hashtbl.mem forked task)
      | _ -> ())
    evs;
  (* with the tracer off the machine behaves identically *)
  let r' = M.run ~config:checking_config d in
  check "same stop without tracer" true (r'.M.stop = r.M.stop);
  check_int "same cycles without tracer" r.M.stats.M.cycles r'.M.stats.M.cycles;
  check "same arch without tracer" true
    (Full.equal_observable r.M.arch r'.M.arch)

let test_control_only_mode_correct () =
  (* TLS mode (no value predictions): massively squashy but still exact *)
  let d = distill_of small_program in
  let seq = seq_reference d in
  let cfg = { checking_config with Config.control_only_master = true } in
  let r = M.run ~config:cfg d in
  check "halted" true (r.M.stop = M.Halted);
  check "equal" true (Full.equal_observable seq.Machine.state r.M.arch);
  check "squashes dominate" true (r.M.stats.M.squashes > r.M.stats.M.tasks_committed / 2)

let test_task_size_knob () =
  let d = distill_of small_program in
  let run ts =
    let cfg = { Config.default with Config.task_size = ts } in
    M.run ~config:cfg d
  in
  let small = run 10 and large = run 100 in
  check "larger knob, larger tasks" true
    (M.mean_task_size large > M.mean_task_size small);
  check "larger knob, fewer tasks" true
    (large.M.stats.M.tasks_committed < small.M.stats.M.tasks_committed)

let () =
  Alcotest.run "machine"
    [
      ( "correctness",
        [
          Alcotest.test_case "simple equivalence" `Quick test_simple_equivalence;
          Alcotest.test_case "stats coherence" `Quick test_stats_coherence;
          Alcotest.test_case "window limit" `Quick test_window_limit;
          Alcotest.test_case "single slave" `Quick test_single_slave;
          Alcotest.test_case "window of one" `Quick test_window_of_one;
          Alcotest.test_case "adversaries" `Quick
            test_adversaries_cannot_break_correctness;
          Alcotest.test_case "liar progress" `Quick test_liar_squashes;
          Alcotest.test_case "workload suite" `Slow test_workload_suite_small;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "io recovery" `Quick test_io_forces_recovery;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit_stops;
          Alcotest.test_case "squash limit" `Quick test_squash_limit_stops;
          Alcotest.test_case "idle master in closed form" `Quick
            test_idle_master_closed_form;
          Alcotest.test_case "master loop allocation" `Quick
            test_master_loop_allocation;
          Alcotest.test_case "master store allocation" `Quick
            test_master_store_allocation;
          Alcotest.test_case "fork allocation" `Quick test_fork_allocation;
          Alcotest.test_case "task allocation" `Quick test_task_allocation;
          Alcotest.test_case "verify and commit allocation" `Quick
            test_verify_commit_allocation;
          Alcotest.test_case "words per task" `Quick test_words_per_task;
          Alcotest.test_case "run allocation" `Quick test_run_allocation;
          Alcotest.test_case "pc map outside distilled code" `Quick
            test_pc_map_outside_distilled;
          Alcotest.test_case "live-in in every mode" `Quick test_live_in_modes;
          Alcotest.test_case "recovery fuel exhaustion" `Quick
            test_recovery_fuel_exhaustion;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "task-size knob" `Quick test_task_size_knob;
          Alcotest.test_case "fault injection harmless" `Quick
            test_soft_errors_harmless;
          Alcotest.test_case "fault injection squashes" `Quick
            test_soft_errors_monotone_squashes;
          Alcotest.test_case "interrupt countdown stops the run" `Quick
            test_interrupt_countdown_stops;
          Alcotest.test_case "interrupt returning None changes nothing" `Quick
            test_interrupt_none_identical;
          Alcotest.test_case "dual mode floor" `Quick test_dual_mode_restores_floor;
          Alcotest.test_case "trace well-formed" `Quick test_trace_well_formed;
          Alcotest.test_case "control-only mode" `Quick test_control_only_mode_correct;
        ] );
    ]
