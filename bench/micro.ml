(** The two workloads the SBLKG and SJRNLG guards time: a
    straight-line interpreter loop and the same loop run as a slave task
    body. Each run checks that it halted and retired exactly the stated
    instruction count, so a guard's time always covers the same work. *)

module Instr = Mssp_isa.Instr
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Task = Mssp_task.Task
module Machine = Mssp_seq.Machine

(* --- interpreter throughput: the straight-line micro -----------------

   A hot loop whose body is one long straight-line region (64 ALU ops
   per trip), so the run is all instruction dispatch. The SBLKG guard
   times it on the direct step and on the single-step reference loop;
   the SJRNLG guard runs the same loop as a slave task body, where a
   block cache pays off. *)

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
   from a block cache with first-reads staged into the insertion-order
   log; off is the single-step reference executor. The SJRNLG guard
   times the pair. *)

let slave_body_instrs = straightline_instrs

let slave_arch =
  let s = Full.create () in
  Full.load s straightline_program;
  s

let slave_entry = straightline_program.Mssp_isa.Program.entry
let slave_view = Task.Fallback slave_arch

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
