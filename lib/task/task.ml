module Cell = Mssp_state.Cell
module Live_in = Mssp_state.Live_in
module Full = Mssp_state.Full
module Reg = Mssp_isa.Reg
module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Exec = Mssp_seq.Exec

type fail_reason =
  | Budget_exhausted
  | Fault of Exec.fault
  | Io_speculative of Cell.t

type completion = Reached_boundary | Program_halted

type status = Running | Complete of completion | Failed of fail_reason

let pp_status fmt = function
  | Running -> Format.pp_print_string fmt "running"
  | Complete Reached_boundary -> Format.pp_print_string fmt "complete (boundary)"
  | Complete Program_halted -> Format.pp_print_string fmt "complete (halt)"
  | Failed Budget_exhausted -> Format.pp_print_string fmt "failed (budget)"
  | Failed (Fault f) -> Format.fprintf fmt "failed (%a)" Exec.pp_fault f
  | Failed (Io_speculative c) ->
    Format.fprintf fmt "failed (speculative I/O on %a)" Cell.pp c

type t = {
  id : int;
  start_pc : int;
  end_pc : int option;
  end_occurrence : int;
  mutable end_seen : int;
  budget : int;
  live_in : Live_in.t;
  reads : Journal.t;
  writes : Journal.t;
  mutable executed : int;
  mutable status : status;
  decode : pc:int -> word:int -> Mssp_isa.Instr.t option;
}

let make ~id ~start_pc ~end_pc ~end_occurrence ~budget ~live_in ~decode
    ~reads ~writes =
  (* The live-in is held by reference: its register file is read in
     place and its memory part is a view of the master's write layers
     (thousands of cells on long runs), looked up in place. The journals are the caller's: the machine
     recycles one pair per window slot, so their tables have grown to
     earlier bodies' footprints; they iterate in insertion order, so
     their capacity cannot change any result. *)
  if not (Journal.is_empty reads && Journal.is_empty writes) then
    invalid_arg "Task.make: journals must be empty";
  {
    id;
    start_pc;
    end_pc;
    end_occurrence = max 1 end_occurrence;
    end_seen = 0;
    budget;
    live_in =
      (if live_in.Live_in.bound land 1 <> 0 then live_in
       else Live_in.add Cell.Pc start_pc live_in);
    reads;
    writes;
    executed = 0;
    status = Running;
    decode;
  }

let no_access (_ : int) = ()

(* --- the slave step ------------------------------------------------------

   One instruction of a task body, evaluated straight on the journal
   stack with the semantics of [Exec.step]: the same reads in the same
   order (PC, then the fetch [Mem pc], then operands), each resolving
   write buffer, then live-in, then architected state, and recording
   its first-read; the same writes, in retirement order, into the write
   buffer. Int addresses, monomorphic journal accessors and no option
   results, so a step allocates nothing once its cells are recorded.

   The first touch of the I/O region in an instruction fails the task
   once the instruction has completed into the write buffer, without
   retiring it. The fetch is the first touch; [exec] returns the address
   of a data touch ([no_io] when there is none). *)

let no_io = -1

let read_reg t arch r =
  if Reg.equal r Reg.zero then 0
  else begin
    let k = Reg.to_int r in
    if Journal.has_reg t.writes k then Journal.reg t.writes k
    else begin
      let li = t.live_in in
      let v =
        if li.Live_in.bound land (1 lsl k) <> 0 then
          Array.unsafe_get li.Live_in.regs k
        else Full.get_reg arch r
      in
      if not (Journal.has_reg t.reads k) then Journal.set_reg t.reads k v;
      v
    end
  end

let write_reg t r v =
  if not (Reg.equal r Reg.zero) then Journal.set_reg t.writes (Reg.to_int r) v

let read_pc t arch =
  if Journal.has_pc t.writes then Journal.pc_value t.writes
  else begin
    let li = t.live_in in
    let v =
      if li.Live_in.bound land 1 <> 0 then Array.unsafe_get li.Live_in.regs 0
      else Full.pc arch
    in
    if not (Journal.has_pc t.reads) then Journal.set_pc t.reads v;
    v
  end

(* A memory read, fetch included. A cell already recorded reads back its
   recorded value: the live-in and architected state are fixed for the
   run, so that is the value a fresh lookup would find. The live-in
   lookup takes the value to return on a miss, so a hit boxes no option;
   most misses cost one probe of the master's write base. *)
let read_mem t arch on_access a =
  on_access a;
  let i = Journal.mem_index t.writes a in
  if i >= 0 then Journal.mem_at t.writes i
  else begin
    let i = Journal.mem_index t.reads a in
    if i >= 0 then Journal.mem_at t.reads i
    else begin
      let v = Live_in.find_mem a t.live_in ~default:(Full.get_mem arch a) in
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
let exec t arch on_access ~pc instr =
  match instr with
  | Instr.Halt -> invalid_arg "Task.exec: Halt"
  | Instr.Nop | Instr.Fork _ ->
    Journal.set_pc t.writes (pc + 1);
    no_io
  | Instr.Alu (op, rd, rs1, rs2) ->
    let v = Instr.eval_alu op (read_reg t arch rs1) (read_reg t arch rs2) in
    write_reg t rd v;
    Journal.set_pc t.writes (pc + 1);
    no_io
  | Instr.Alui (op, rd, rs1, imm) ->
    let v = Instr.eval_alu op (read_reg t arch rs1) imm in
    write_reg t rd v;
    Journal.set_pc t.writes (pc + 1);
    no_io
  | Instr.Li (rd, imm) ->
    write_reg t rd imm;
    Journal.set_pc t.writes (pc + 1);
    no_io
  | Instr.Ld (rd, rs1, off) ->
    let a = read_reg t arch rs1 + off in
    let v = read_mem t arch on_access a in
    write_reg t rd v;
    Journal.set_pc t.writes (pc + 1);
    io_touch a
  | Instr.St (rs2, rs1, off) ->
    let a = read_reg t arch rs1 + off in
    let v = read_reg t arch rs2 in
    write_mem t on_access a v;
    Journal.set_pc t.writes (pc + 1);
    io_touch a
  | Instr.Br (c, rs1, rs2, off) ->
    let taken = Instr.eval_cmp c (read_reg t arch rs1) (read_reg t arch rs2) in
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
    Journal.set_pc t.writes (read_reg t arch rs);
    no_io
  | Instr.Jalr (rd, rs) ->
    let target = read_reg t arch rs in
    write_reg t rd (pc + 1);
    Journal.set_pc t.writes target;
    no_io
  | Instr.Out rs ->
    (* the count cell lies below the I/O region: only the slot can be
       the instruction's I/O touch *)
    let v = read_reg t arch rs in
    let count = read_mem t arch on_access Layout.out_count_addr in
    let slot = Layout.out_base + count in
    write_mem t on_access slot v;
    write_mem t on_access Layout.out_count_addr (count + 1);
    Journal.set_pc t.writes (pc + 1);
    io_touch slot

let finish t status =
  t.status <- status;
  status

let rec go t arch on_access =
  if t.executed >= t.budget then finish t (Failed Budget_exhausted)
  else begin
    let pc = read_pc t arch in
    let word = read_mem t arch on_access pc in
    match t.decode ~pc ~word with
    | (None | Some Instr.Halt) when Layout.is_io pc ->
      finish t (Failed (Io_speculative (Cell.mem pc)))
    | None -> finish t (Failed (Fault (Exec.Undecodable { pc; word })))
    | Some Instr.Halt -> finish t (Complete Program_halted)
    | Some instr ->
      let data_io = exec t arch on_access ~pc instr in
      let io = if Layout.is_io pc then pc else data_io in
      if io <> no_io then finish t (Failed (Io_speculative (Cell.mem io)))
      else begin
        t.executed <- t.executed + 1;
        match t.end_pc with
        | Some e when Journal.pc_value t.writes = e ->
          t.end_seen <- t.end_seen + 1;
          if t.end_seen >= t.end_occurrence then
            finish t (Complete Reached_boundary)
          else go t arch on_access
        | Some _ | None -> go t arch on_access
      end
  end

let run ?(on_access = no_access) t arch =
  match t.status with
  | Complete _ | Failed _ -> t.status
  | Running -> go t arch on_access

let live_in_size t = Journal.cardinal t.reads
let live_out_size t = Journal.cardinal t.writes
let writes_fragment t = Journal.to_fragment t.writes

(* The verification unit's memoization check: every recorded live-in
   still agrees with architected state. The PC, the register mask and
   the memory log are walked as ints: no cell is boxed and no closure
   built per entry. *)
let rec regs_agree r arch i =
  i = Reg.count
  || ((not (Journal.has_reg r i))
     || Journal.reg r i = Full.get_reg arch (Reg.of_int i))
     && regs_agree r arch (i + 1)

let rec mem_agrees r arch k =
  k = Journal.mem_count r
  || Journal.mem_at r k = Full.get_mem arch (Journal.mem_addr r k)
     && mem_agrees r arch (k + 1)

let live_ins_consistent t arch =
  let r = t.reads in
  ((not (Journal.has_pc r)) || Journal.pc_value r = Full.pc arch)
  && regs_agree r arch 0 && mem_agrees r arch 0

(* the trace layer's witness: which recorded live-in disagrees, and on
   what values — [Some _] iff [live_ins_consistent] is [false]. Runs
   only on a mismatch, so it keeps the generic walk *)
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

(* the commit operation [S <- live_out(t)], straight from the journal
   in its iteration order, as ints *)
let commit_into t arch =
  let w = t.writes in
  if Journal.has_pc w then Full.set_pc arch (Journal.pc_value w);
  for i = 0 to Reg.count - 1 do
    if Journal.has_reg w i then
      Full.set_reg arch (Reg.of_int i) (Journal.reg w i)
  done;
  for k = 0 to Journal.mem_count w - 1 do
    Full.set_mem arch (Journal.mem_addr w k) (Journal.mem_at w k)
  done

let iter_writes f t = Journal.iter f t.writes
let iter_reads f t = Journal.iter f t.reads

let pp fmt t =
  Format.fprintf fmt
    "@[<v>task %d: %#x -> %s, %d/%d instrs, %a@,live-ins recorded: %d, live-outs: %d@]"
    t.id t.start_pc
    (match t.end_pc with Some pc -> Printf.sprintf "%#x" pc | None -> "halt")
    t.executed t.budget pp_status t.status (Journal.cardinal t.reads)
    (Journal.cardinal t.writes)
