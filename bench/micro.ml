(** Bechamel micro-benchmarks of the simulator's hot paths — these bound
    how large a workload the reproduction can simulate, and catch
    performance regressions in the substrate. The [(paged)] memory
    entries go through the real {!Mssp_state.Full.t}. The straight-line
    and slave-body workloads at the end are timed by the SBLKG and
    SJRNLG guards, not by Bechamel. *)

open Bechamel
open Toolkit
module Instr = Mssp_isa.Instr
module Reg = Mssp_isa.Reg
module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Cache = Mssp_cache.Cache
module Task = Mssp_task.Task
module Machine = Mssp_seq.Machine

let sample_instr = Instr.Alu (Instr.Add, Reg.of_int 1, Reg.of_int 2, Reg.of_int 3)
let sample_word = Instr.encode sample_instr

let test_encode =
  Test.make ~name:"instr encode" (Staged.stage (fun () -> Instr.encode sample_instr))

let test_decode =
  Test.make ~name:"instr decode" (Staged.stage (fun () -> Instr.decode sample_word))

(* --- memory image: the paged/COW Full.t ------------------------------ *)

(* the image materializes a program-plus-live-heap footprint:
   [mem_words] words spread with a prime stride *)
let mem_words = 16_384
let addr i = i * 61 land 0xFFFFF

let paged_state =
  let s = Full.create () in
  for i = 0 to mem_words - 1 do
    Full.set_mem s (addr i) (i + 1)
  done;
  s

let cursor = ref 0

let next_addr () =
  cursor := (!cursor + 1) land (mem_words - 1);
  addr !cursor

let test_read_paged =
  Test.make ~name:"mem read (paged)"
    (Staged.stage (fun () -> Full.get_mem paged_state (next_addr ())))

let test_write_paged =
  Test.make ~name:"mem write (paged)"
    (Staged.stage (fun () -> Full.set_mem paged_state (next_addr ()) 7))

let test_copy_paged =
  Test.make ~name:"state copy (paged)"
    (Staged.stage (fun () -> Full.copy paged_state))

(* checkpointing is copy + a burst of stores on the copy: COW pays its
   privatization debt here *)
let test_checkpoint_paged =
  Test.make ~name:"checkpoint+8 stores (paged)"
    (Staged.stage (fun () ->
         let c = Full.copy paged_state in
         for i = 0 to 7 do
           Full.set_mem c (addr (i * 97)) i
         done))

(* --- executor and task loops ---------------------------------------- *)

let counting_loop =
  let b = Mssp_asm.Dsl.create () in
  Mssp_asm.Dsl.label b "head";
  Mssp_asm.Dsl.alui b Instr.Add Mssp_asm.Regs.t1 Mssp_asm.Regs.t1 1;
  Mssp_asm.Dsl.alui b Instr.Sub Mssp_asm.Regs.t0 Mssp_asm.Regs.t0 1;
  Mssp_asm.Dsl.br b Instr.Gt Mssp_asm.Regs.t0 Mssp_asm.Regs.zero "head";
  Mssp_asm.Dsl.halt b;
  Mssp_asm.Dsl.build b ()

let exec_state =
  let s = Full.create () in
  Full.load s counting_loop;
  s

let test_exec_step =
  Test.make ~name:"exec step (full state)"
    (Staged.stage (fun () ->
         Mssp_seq.Exec.step
           ~read:(fun c -> Some (Full.get exec_state c))
           ~write:(fun c v -> Full.set exec_state c v)))

(* one whole speculative task: 16 loop iterations (48 instructions)
   against a fallback view of architected state *)
let task_arch =
  let s = Full.create () in
  Full.load s counting_loop;
  s

let task_entry = counting_loop.Mssp_isa.Program.entry
let task_view = Task.Fallback (fun c -> Full.get task_arch c)

let task_live_in =
  Fragment.of_list
    [ (Cell.Reg Mssp_asm.Regs.t0, 16); (Cell.Reg Mssp_asm.Regs.t1, 0) ]

let test_task_run =
  Test.make ~name:"task run (48 instrs)"
    (Staged.stage (fun () ->
         let t =
           Task.make ~id:0 ~start_pc:task_entry ~end_pc:None ~end_occurrence:1
             ~budget:100 ~live_in:task_live_in
         in
         Task.run t task_view))

(* non-speculative recovery replay: advance a COW copy of architected
   state 48 instructions with the sequential machine *)
let test_recovery_replay =
  Test.make ~name:"recovery replay (48 instrs)"
    (Staged.stage (fun () ->
         let s = Full.copy task_arch in
         Full.set_reg s Mssp_asm.Regs.t0 16;
         Full.set s Cell.Pc task_entry;
         Machine.seq_in_place s 48))

(* --- fragments and caches (commit-side data structures) -------------- *)

let frag_a =
  Fragment.of_list (List.init 64 (fun i -> (Cell.mem i, i)))

let frag_b =
  Fragment.of_list (List.init 64 (fun i -> (Cell.mem (i + 32), i * 2)))

let test_superimpose =
  Test.make ~name:"fragment superimpose (64+64)"
    (Staged.stage (fun () -> Fragment.superimpose frag_a frag_b))

let test_consistent =
  Test.make ~name:"fragment consistent (64 vs 64)"
    (Staged.stage (fun () -> Fragment.consistent frag_a frag_a))

let cache = Cache.Hierarchy.make ()

let cache_cursor = ref 0

let test_cache_access =
  Test.make ~name:"cache hierarchy access"
    (Staged.stage (fun () ->
         cache_cursor := (!cache_cursor + 17) land 0xFFFF;
         Cache.Hierarchy.access cache !cache_cursor))

(* --- superblock throughput: the straight-line interpreter micro ------

   The workload the pre-decoded engine exists for: a hot loop whose body
   is one long straight-line region (64 ALU ops per trip), so nearly
   every dynamic instruction executes from inside a cached block. The
   SBLKG guard times it with blocks on and off (the single-step
   reference loop). *)

let straightline_trips = 2048

let straightline_program =
  let b = Mssp_asm.Dsl.create () in
  Mssp_asm.Dsl.li b Mssp_asm.Regs.t0 straightline_trips;
  Mssp_asm.Dsl.label b "head";
  for _ = 1 to 64 do
    Mssp_asm.Dsl.alui b Instr.Add Mssp_asm.Regs.t1 Mssp_asm.Regs.t1 3
  done;
  Mssp_asm.Dsl.alui b Instr.Sub Mssp_asm.Regs.t0 Mssp_asm.Regs.t0 1;
  Mssp_asm.Dsl.br b Instr.Gt Mssp_asm.Regs.t0 Mssp_asm.Regs.zero "head";
  Mssp_asm.Dsl.halt b;
  Mssp_asm.Dsl.build b ()

(* li + trips * (64 ALU + sub + br); Halt does not retire *)
let straightline_instrs = 1 + (straightline_trips * 66)

(* one run, checked to be the run *)
let run_straightline ~superblock () =
  let m = Machine.of_program ~superblock straightline_program in
  (match Machine.run m with
  | Machine.Halted -> ()
  | _ -> failwith "straight-line micro did not halt");
  if m.Machine.instructions <> straightline_instrs then
    failwith "straight-line micro retired the wrong instruction count"

(* --- slave-body throughput: block journal vs single-step -------------

   The same straight-line workload, but run the way a slave runs it: as
   a speculative task against a fallback view of architected state, all
   reads resolving through the journal stack. Block-journal on executes
   from a per-task-run superblock cache with first-reads staged into
   the insertion-order log; off is the single-step reference executor.
   The SJRNLG guard times the pair. *)

let slave_body_instrs = straightline_instrs

let slave_arch =
  let s = Full.create () in
  Full.load s straightline_program;
  s

let slave_entry = straightline_program.Mssp_isa.Program.entry
let slave_view = Task.Fallback (fun c -> Full.get slave_arch c)

(* one run, checked to be the run *)
let run_slave_body ~block_journal () =
  let t =
    Task.make ~id:0 ~start_pc:slave_entry ~end_pc:None ~end_occurrence:1
      ~budget:(slave_body_instrs + 8)
      ~live_in:(Fragment.of_list [])
  in
  (match Task.run ~block_journal t slave_view with
  | Task.Complete Task.Program_halted -> ()
  | _ -> failwith "slave-body micro did not halt");
  if t.Task.executed <> slave_body_instrs then
    failwith "slave-body micro retired the wrong instruction count"

let tests =
  Test.make_grouped ~name:"mssp hot paths"
    [
      test_encode; test_decode;
      test_read_paged; test_write_paged;
      test_copy_paged; test_checkpoint_paged;
      test_exec_step; test_task_run; test_recovery_replay;
      test_superimpose; test_consistent; test_cache_access;
    ]

(* runs the suite, renders the usual notty table, and returns
   [(name, ns_per_run)] for the JSON report *)
let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run merged
  in
  Notty_unix.output_image (Notty_unix.eol img);
  let estimates =
    match results with
    | clock :: _ ->
      Hashtbl.fold
        (fun name o acc ->
          match Analyze.OLS.estimates o with
          | Some (ns :: _) ->
            (* strip the "mssp hot paths/" group prefix *)
            let name =
              match String.index_opt name '/' with
              | Some i ->
                String.sub name (i + 1) (String.length name - i - 1)
              | None -> name
            in
            (name, ns) :: acc
          | _ -> acc)
        clock []
      |> List.sort compare
    | [] -> []
  in
  estimates
