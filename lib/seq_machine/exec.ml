module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Instr = Mssp_isa.Instr
module Reg = Mssp_isa.Reg
module Layout = Mssp_isa.Layout
module Full = Mssp_state.Full
module Hierarchy = Mssp_cache.Cache.Hierarchy

type fault = Undecodable of { pc : int; word : int }

type outcome = Stepped | Halted | Fault of fault | Missing of Cell.t

let pp_fault fmt (Undecodable { pc; word }) =
  Format.fprintf fmt "undecodable word %#x at pc %#x" word pc

exception Unavailable of Cell.t

(* Instruction execution proper, on an already fetched and decoded
   instruction. In every instruction case all reads are performed before
   the first write, so a [Missing] abort leaves no partial writes behind
   — which lets writes go straight to the [write] callback, in
   retirement order, with no per-instruction write list. *)
let exec_decoded_exn ~read ~write ~pc instr =
  let read_cell c = match read c with Some v -> v | None -> raise (Unavailable c) in
  let read_reg r = if Reg.equal r Reg.zero then 0 else read_cell (Cell.Reg r) in
  let write_reg r v =
    if not (Reg.equal r Reg.zero) then write (Cell.Reg r) v
  in
  let write_mem a v = write (Cell.Mem a) v in
  let goto target = write Cell.Pc target in
  let finish () = Stepped in
  (match instr with
    | Instr.Halt -> Halted
    | Instr.Nop | Instr.Fork _ ->
      goto (pc + 1);
      finish ()
    | Instr.Alu (op, rd, rs1, rs2) ->
      let v = Instr.eval_alu op (read_reg rs1) (read_reg rs2) in
      write_reg rd v;
      goto (pc + 1);
      finish ()
    | Instr.Alui (op, rd, rs1, imm) ->
      let v = Instr.eval_alu op (read_reg rs1) imm in
      write_reg rd v;
      goto (pc + 1);
      finish ()
    | Instr.Li (rd, imm) ->
      write_reg rd imm;
      goto (pc + 1);
      finish ()
    | Instr.Ld (rd, rs1, off) ->
      let a = read_reg rs1 + off in
      let v = read_cell (Cell.Mem a) in
      write_reg rd v;
      goto (pc + 1);
      finish ()
    | Instr.St (rs2, rs1, off) ->
      let a = read_reg rs1 + off in
      let v = read_reg rs2 in
      write_mem a v;
      goto (pc + 1);
      finish ()
    | Instr.Br (c, rs1, rs2, off) ->
      let taken = Instr.eval_cmp c (read_reg rs1) (read_reg rs2) in
      goto (if taken then pc + off else pc + 1);
      finish ()
    | Instr.Jmp off ->
      goto (pc + off);
      finish ()
    | Instr.Jal (rd, off) ->
      write_reg rd (pc + 1);
      goto (pc + off);
      finish ()
    | Instr.Jr rs ->
      goto (read_reg rs);
      finish ()
    | Instr.Jalr (rd, rs) ->
      let target = read_reg rs in
      write_reg rd (pc + 1);
      goto target;
      finish ()
    | Instr.Out rs ->
      let v = read_reg rs in
      let count = read_cell (Cell.Mem Layout.out_count_addr) in
      write_mem (Layout.out_base + count) v;
      write_mem Layout.out_count_addr (count + 1);
      goto (pc + 1);
      finish ())

let default_decode ~pc:_ ~word = Instr.decode_cached word

(* Fetch/decode, then execute: the read order every observer sees is
   PC, then the instruction cell [Mem pc], then operands. *)
let step ~read ~write =
  let read_cell c = match read c with Some v -> v | None -> raise (Unavailable c) in
  try
    let pc = read_cell Cell.Pc in
    let word = read_cell (Cell.Mem pc) in
    match default_decode ~pc ~word with
    | None -> Fault (Undecodable { pc; word })
    | Some instr -> exec_decoded_exn ~read ~write ~pc instr
  with Unavailable c -> Missing c

let delta ~read =
  let writes = ref Fragment.empty in
  let write c v = writes := Fragment.add c v !writes in
  match step ~read ~write with
  | Stepped -> Ok !writes
  | (Halted | Fault _ | Missing _) as o -> Error o

let observed_step ~read ~write =
  let reads = ref [] in
  let writes = ref Fragment.empty in
  let read' c =
    match read c with
    | Some v ->
      reads := (c, v) :: !reads;
      Some v
    | None -> None
  in
  let write' c v =
    writes := Fragment.add c v !writes;
    write c v
  in
  let o = step ~read:read' ~write:write' in
  (List.rev !reads, !writes, o)

(* --- the direct step ---------------------------------------------------

   The semantics of [exec_decoded_exn] specialized to a full state, with
   no callbacks, option returns or cell boxes: the untimed executor of
   whole SEQ runs and recovery segments, and the execute stage of the
   timed step below. Inlined into both callers' per-instruction loops,
   where a call per instruction showed on the timed baselines' host
   time. *)

let[@inline] exec s ~pc instr =
  match instr with
  | Instr.Halt -> invalid_arg "Exec.exec: Halt"
  | Instr.Nop | Instr.Fork _ -> Full.set_pc s (pc + 1)
  | Instr.Alu (op, rd, rs1, rs2) ->
    Full.set_reg s rd
      (Instr.eval_alu op (Full.get_reg s rs1) (Full.get_reg s rs2));
    Full.set_pc s (pc + 1)
  | Instr.Alui (op, rd, rs1, imm) ->
    Full.set_reg s rd (Instr.eval_alu op (Full.get_reg s rs1) imm);
    Full.set_pc s (pc + 1)
  | Instr.Li (rd, imm) ->
    Full.set_reg s rd imm;
    Full.set_pc s (pc + 1)
  | Instr.Ld (rd, rs1, off) ->
    Full.set_reg s rd (Full.get_mem s (Full.get_reg s rs1 + off));
    Full.set_pc s (pc + 1)
  | Instr.St (rs2, rs1, off) ->
    Full.set_mem s (Full.get_reg s rs1 + off) (Full.get_reg s rs2);
    Full.set_pc s (pc + 1)
  | Instr.Br (cmp, rs1, rs2, off) ->
    let taken = Instr.eval_cmp cmp (Full.get_reg s rs1) (Full.get_reg s rs2) in
    Full.set_pc s (if taken then pc + off else pc + 1)
  | Instr.Jmp off -> Full.set_pc s (pc + off)
  | Instr.Jal (rd, off) ->
    Full.set_reg s rd (pc + 1);
    Full.set_pc s (pc + off)
  | Instr.Jr rs -> Full.set_pc s (Full.get_reg s rs)
  | Instr.Jalr (rd, rs) ->
    let target = Full.get_reg s rs in
    Full.set_reg s rd (pc + 1);
    Full.set_pc s target
  | Instr.Out rs ->
    let v = Full.get_reg s rs in
    let count = Full.get_mem s Layout.out_count_addr in
    Full.set_mem s (Layout.out_base + count) v;
    Full.set_mem s Layout.out_count_addr (count + 1);
    Full.set_pc s (pc + 1)

(* --- the timed step ---------------------------------------------------

   The master's and the timed baselines' executor: every memory touch is
   charged to the cache hierarchy in [step]'s access order — the fetch,
   then the data read or write ([Out]: count read, slot write, count
   write) — so the cache sees exactly the sequence a callback-charged
   [step] gives it; then [exec] runs the instruction. All of an
   instruction's reads precede its writes, so the addresses charged
   here are the ones [exec] touches. *)

let no_store (_ : int) (_ : int) = ()

let timed_exec cache ~on_store s ~pc instr =
  let fetch = Hierarchy.access cache pc in
  let data =
    match instr with
    | Instr.Halt -> invalid_arg "Exec.timed_exec: Halt"
    | Instr.Ld (_, rs1, off) ->
      Hierarchy.access cache (Full.get_reg s rs1 + off)
    | Instr.St (rs2, rs1, off) ->
      let a = Full.get_reg s rs1 + off in
      let c = Hierarchy.access cache a in
      on_store a (Full.get_reg s rs2);
      c
    | Instr.Out rs ->
      let count = Full.get_mem s Layout.out_count_addr in
      let slot = Layout.out_base + count in
      let c0 = Hierarchy.access cache Layout.out_count_addr in
      let c1 = Hierarchy.access cache slot in
      on_store slot (Full.get_reg s rs);
      let c2 = Hierarchy.access cache Layout.out_count_addr in
      on_store Layout.out_count_addr (count + 1);
      c0 + c1 + c2
    | Instr.Nop | Instr.Fork _ | Instr.Alu _ | Instr.Alui _ | Instr.Li _
    | Instr.Br _ | Instr.Jmp _ | Instr.Jal _ | Instr.Jr _ | Instr.Jalr _ ->
      0
  in
  exec s ~pc instr;
  fetch + data

let timed_stopped = -1

let timed_step ~on_store cache s =
  let pc = Full.pc s in
  let word = Full.get_mem s pc in
  match default_decode ~pc ~word with
  | None | Some Instr.Halt ->
    ignore (Hierarchy.access cache pc : int);
    timed_stopped
  | Some instr -> timed_exec cache ~on_store s ~pc instr
