module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Reg = Mssp_isa.Reg
module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Exec = Mssp_seq.Exec

type fail_reason =
  | Budget_exhausted
  | Fault of Exec.fault
  | Missing_cell of Cell.t
  | Io_speculative of Cell.t

type completion = Reached_boundary | Program_halted

type status = Running | Complete of completion | Failed of fail_reason

let pp_status fmt = function
  | Running -> Format.pp_print_string fmt "running"
  | Complete Reached_boundary -> Format.pp_print_string fmt "complete (boundary)"
  | Complete Program_halted -> Format.pp_print_string fmt "complete (halt)"
  | Failed Budget_exhausted -> Format.pp_print_string fmt "failed (budget)"
  | Failed (Fault f) -> Format.fprintf fmt "failed (%a)" Exec.pp_fault f
  | Failed (Missing_cell c) ->
    Format.fprintf fmt "failed (missing %a)" Cell.pp c
  | Failed (Io_speculative c) ->
    Format.fprintf fmt "failed (speculative I/O on %a)" Cell.pp c

type t = {
  id : int;
  start_pc : int;
  end_pc : int option;
  end_occurrence : int;
  mutable end_seen : int;
  budget : int;
  live_in : Fragment.t;
  li : Journal.t;
  li_lo : int;
  li_hi : int;
  reads : Journal.t;
  writes : Journal.t;
  mutable executed : int;
  mutable status : status;
  decode : pc:int -> word:int -> Mssp_isa.Instr.t option;
}

(* stops the in-order walk of a live-in at its first memory binding *)
exception Past_registers

let make ~id ~start_pc ~end_pc ~end_occurrence ~budget ~live_in =
  let live_in =
    if Fragment.mem Cell.Pc live_in then live_in
    else Fragment.add Cell.Pc start_pc live_in
  in
  (* The live-in is passed by reference: a checkpoint's prediction holds
     the master's cumulative dirty set (thousands of cells on long
     runs), so copying it per task would cost more than the task body.
     Only the PC and the registers — the lowest keys in cell order, at
     most 33 bindings — are flattened into [li]'s fast arrays; memory
     live-ins are looked up in the persistent fragment itself. *)
  let li = Journal.create ~mem_size:1 () in
  (try
     Fragment.iter
       (fun c v ->
         match c with
         | Cell.Pc -> Journal.set_pc li v
         | Cell.Reg r -> Journal.set_reg li (Reg.to_int r) v
         | Cell.Mem _ -> raise_notrace Past_registers)
       live_in
   with Past_registers -> ());
  let li_lo, li_hi =
    match
      ( Fragment.find_first_opt Cell.is_mem live_in,
        Fragment.max_binding_opt live_in )
    with
    | Some (Cell.Mem lo, _), Some (Cell.Mem hi, _) -> (lo, hi)
    | _ -> (max_int, min_int)
  in
  (* The journals iterate in insertion order, so their initial capacity
     cannot change any result; a small fixed size keeps short tasks
     cheap, and the tables grow with the body's actual footprint. *)
  {
    id;
    start_pc;
    end_pc;
    end_occurrence = max 1 end_occurrence;
    end_seen = 0;
    budget;
    live_in;
    li;
    li_lo;
    li_hi;
    reads = Journal.create ~mem_size:16 ();
    writes = Journal.create ~mem_size:16 ();
    executed = 0;
    status = Running;
    decode = Exec.default_decode;
  }

let with_decode decode t = { t with decode }

type view = Isolated | Fallback of Full.t

let no_access (_ : int) = ()

(* --- the slave step ------------------------------------------------------

   One instruction of a task body, evaluated straight on the journal
   stack with the semantics of [Exec.step]: the same reads in the same
   order (PC, then the fetch [Mem pc], then operands), each resolving
   write buffer, then live-in, then view, and recording its first-read;
   the same writes, in retirement order, into the write buffer. Int
   addresses, monomorphic journal accessors and no option results, so a
   step allocates nothing once its cells are recorded.

   Two rules of the read callback [Exec.step] would be given survive as
   such:
   - only the [Isolated] view can lack a value (a register or the PC
     bound nowhere), and that read raises [Unavailable] out of the whole
     run, which [run] turns into [Missing_cell] — the fallback path pays
     no handler per instruction. All of an instruction's reads precede
     its writes, so the abandoned instruction has written nothing.
   - the first touch of the I/O region in an instruction fails the task
     once the instruction has completed into the write buffer, without
     retiring it. The fetch is the first touch; [exec] returns the
     address of a data touch ([no_io] when there is none). *)

exception Unavailable of Cell.t

let no_io = -1

let read_reg t view r =
  if Reg.equal r Reg.zero then 0
  else begin
    let k = Reg.to_int r in
    if Journal.has_reg t.writes k then Journal.reg t.writes k
    else begin
      let v =
        if Journal.has_reg t.li k then Journal.reg t.li k
        else
          match view with
          | Fallback arch -> Full.get_reg arch r
          | Isolated -> raise_notrace (Unavailable (Cell.Reg r))
      in
      if not (Journal.has_reg t.reads k) then Journal.set_reg t.reads k v;
      v
    end
  end

let write_reg t r v =
  if not (Reg.equal r Reg.zero) then Journal.set_reg t.writes (Reg.to_int r) v

let read_pc t view =
  if Journal.has_pc t.writes then Journal.pc_value t.writes
  else begin
    let v =
      if Journal.has_pc t.li then Journal.pc_value t.li
      else
        match view with
        | Fallback arch -> Full.pc arch
        | Isolated -> raise_notrace (Unavailable Cell.Pc)
    in
    if not (Journal.has_pc t.reads) then Journal.set_pc t.reads v;
    v
  end

(* A memory read, fetch included. A cell already recorded reads back its
   recorded value: the live-in and the view are fixed for the run, so
   that is the value a fresh lookup would find. Memory is total: an
   isolated task reads an unbound cell as 0, and that reading is itself
   a live-in to verify. The address bounds reject most live-in misses
   without a tree walk. *)
let read_mem t view on_access a =
  on_access a;
  let i = Journal.mem_index t.writes a in
  if i >= 0 then Journal.mem_at t.writes i
  else begin
    let i = Journal.mem_index t.reads a in
    if i >= 0 then Journal.mem_at t.reads i
    else begin
      let v =
        match
          if a < t.li_lo || a > t.li_hi then None
          else Fragment.find_opt (Cell.mem a) t.live_in
        with
        | Some v -> v
        | None -> (
          match view with Fallback arch -> Full.get_mem arch a | Isolated -> 0)
      in
      Journal.set_mem t.reads a v;
      v
    end
  end

let write_mem t on_access a v =
  on_access a;
  Journal.set_mem t.writes a v

let io_touch a = if Layout.is_io a then a else no_io

(* execute [instr], fetched at [pc]; the data touch's address if it is
   in the I/O region, else [no_io] *)
let exec t view on_access ~pc instr =
  match instr with
  | Instr.Halt -> invalid_arg "Task.exec: Halt"
  | Instr.Nop | Instr.Fork _ ->
    Journal.set_pc t.writes (pc + 1);
    no_io
  | Instr.Alu (op, rd, rs1, rs2) ->
    let v = Instr.eval_alu op (read_reg t view rs1) (read_reg t view rs2) in
    write_reg t rd v;
    Journal.set_pc t.writes (pc + 1);
    no_io
  | Instr.Alui (op, rd, rs1, imm) ->
    let v = Instr.eval_alu op (read_reg t view rs1) imm in
    write_reg t rd v;
    Journal.set_pc t.writes (pc + 1);
    no_io
  | Instr.Li (rd, imm) ->
    write_reg t rd imm;
    Journal.set_pc t.writes (pc + 1);
    no_io
  | Instr.Ld (rd, rs1, off) ->
    let a = read_reg t view rs1 + off in
    let v = read_mem t view on_access a in
    write_reg t rd v;
    Journal.set_pc t.writes (pc + 1);
    io_touch a
  | Instr.St (rs2, rs1, off) ->
    let a = read_reg t view rs1 + off in
    let v = read_reg t view rs2 in
    write_mem t on_access a v;
    Journal.set_pc t.writes (pc + 1);
    io_touch a
  | Instr.Br (c, rs1, rs2, off) ->
    let taken = Instr.eval_cmp c (read_reg t view rs1) (read_reg t view rs2) in
    Journal.set_pc t.writes (if taken then pc + off else pc + 1);
    no_io
  | Instr.Jmp off ->
    Journal.set_pc t.writes (pc + off);
    no_io
  | Instr.Jal (rd, off) ->
    write_reg t rd (pc + 1);
    Journal.set_pc t.writes (pc + off);
    no_io
  | Instr.Jr rs ->
    Journal.set_pc t.writes (read_reg t view rs);
    no_io
  | Instr.Jalr (rd, rs) ->
    let target = read_reg t view rs in
    write_reg t rd (pc + 1);
    Journal.set_pc t.writes target;
    no_io
  | Instr.Out rs ->
    (* the count cell lies below the I/O region: only the slot can be
       the instruction's I/O touch *)
    let v = read_reg t view rs in
    let count = read_mem t view on_access Layout.out_count_addr in
    let slot = Layout.out_base + count in
    write_mem t on_access slot v;
    write_mem t on_access Layout.out_count_addr (count + 1);
    Journal.set_pc t.writes (pc + 1);
    io_touch slot

let finish t status =
  t.status <- status;
  status

let rec go t view on_access =
  if t.executed >= t.budget then finish t (Failed Budget_exhausted)
  else begin
    let pc = read_pc t view in
    let word = read_mem t view on_access pc in
    match t.decode ~pc ~word with
    | (None | Some Instr.Halt) when Layout.is_io pc ->
      finish t (Failed (Io_speculative (Cell.mem pc)))
    | None -> finish t (Failed (Fault (Exec.Undecodable { pc; word })))
    | Some Instr.Halt -> finish t (Complete Program_halted)
    | Some instr ->
      let data_io = exec t view on_access ~pc instr in
      let io = if Layout.is_io pc then pc else data_io in
      if io <> no_io then finish t (Failed (Io_speculative (Cell.mem io)))
      else begin
        t.executed <- t.executed + 1;
        match t.end_pc with
        | Some e when Journal.pc_value t.writes = e ->
          t.end_seen <- t.end_seen + 1;
          if t.end_seen >= t.end_occurrence then
            finish t (Complete Reached_boundary)
          else go t view on_access
        | Some _ | None -> go t view on_access
      end
  end

let run ?(on_access = no_access) t view =
  match t.status with
  | Complete _ | Failed _ -> t.status
  | Running -> (
    try go t view on_access
    with Unavailable c ->
      (* the read missed before the instruction wrote anything, so the
         PC still names it; a fetch from the I/O region latched first *)
      let missing =
        match c with
        | Cell.Pc -> Missing_cell c
        | Cell.Reg _ | Cell.Mem _ ->
          let pc = read_pc t view in
          if Layout.is_io pc then Io_speculative (Cell.mem pc)
          else Missing_cell c
      in
      finish t (Failed missing))

let live_in_size t = Journal.cardinal t.reads
let live_out_size t = Journal.cardinal t.writes
let reads_fragment t = Journal.to_fragment t.reads
let writes_fragment t = Journal.to_fragment t.writes

(* the verification unit's memoization check: every recorded live-in
   still agrees with architected state *)
let live_ins_consistent t arch =
  Journal.for_all (fun c v -> Full.get arch c = v) t.reads

(* the trace layer's witness: which recorded live-in disagrees, and on
   what values — [Some _] iff [live_ins_consistent] is [false] *)
let first_inconsistent t arch =
  let exception Found of Cell.t * int * int in
  try
    Journal.iter
      (fun c v ->
        let actual = Full.get arch c in
        if actual <> v then raise (Found (c, v, actual)))
      t.reads;
    None
  with Found (c, predicted, actual) -> Some (c, predicted, actual)

(* the commit operation [S <- live_out(t)], straight from the journal *)
let commit_into t arch = Journal.iter (fun c v -> Full.set arch c v) t.writes

let iter_writes f t = Journal.iter f t.writes
let iter_reads f t = Journal.iter f t.reads

let pp fmt t =
  Format.fprintf fmt
    "@[<v>task %d: %#x -> %s, %d/%d instrs, %a@,live-ins recorded: %d, live-outs: %d@]"
    t.id t.start_pc
    (match t.end_pc with Some pc -> Printf.sprintf "%#x" pc | None -> "halt")
    t.executed t.budget pp_status t.status (Journal.cardinal t.reads)
    (Journal.cardinal t.writes)
