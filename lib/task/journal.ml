module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Reg = Mssp_isa.Reg
module Mem_log = Mssp_state.Mem_log

(* Memory bindings live in a [Mem_log]: an insertion-order log indexed
   by an open-addressed table. The log is what makes the journal's
   iteration order a *contract* rather than an accident of hashing: a
   reads journal replays its first-reads in serial first-read order at
   verification time, whatever the table's capacity. *)
type t = {
  mutable pc : int;
  mutable pc_set : bool;
  regs : int array;
  mutable reg_mask : int; (* bit [Reg.to_int r] set iff the register is bound *)
  mem : Mem_log.t;
}

let create ?(mem_size = 64) () =
  {
    pc = 0;
    pc_set = false;
    regs = Array.make Reg.count 0;
    reg_mask = 0;
    mem = Mem_log.create ~size:mem_size ();
  }

let has_pc j = j.pc_set
let pc j = if j.pc_set then Some j.pc else None
let pc_value j = j.pc

let set_pc j v =
  j.pc <- v;
  j.pc_set <- true

let has_reg j i = j.reg_mask land (1 lsl i) <> 0
let reg j i = Array.unsafe_get j.regs i

let set_reg j i v =
  Array.unsafe_set j.regs i v;
  j.reg_mask <- j.reg_mask lor (1 lsl i)

let[@inline] mem_index j a = Mem_log.index j.mem a
let mem_at j i = Mem_log.get j.mem i
let mem_count j = Mem_log.count j.mem
let mem_addr j i = Mem_log.addr j.mem i
let set_mem j a v = Mem_log.set j.mem a v

let find_mem j a =
  let i = mem_index j a in
  if i >= 0 then Some (mem_at j i) else None

let clear j =
  Mem_log.clear j.mem;
  j.pc_set <- false;
  j.reg_mask <- 0

let is_empty j = (not j.pc_set) && j.reg_mask = 0 && mem_count j = 0
let occupied_slots j = Mem_log.occupied_slots j.mem

let set j c v =
  match c with
  | Cell.Pc -> set_pc j v
  | Cell.Reg r -> set_reg j (Reg.to_int r) v
  | Cell.Mem a -> set_mem j a v

let find j = function
  | Cell.Pc -> pc j
  | Cell.Reg r ->
    let i = Reg.to_int r in
    if has_reg j i then Some (reg j i) else None
  | Cell.Mem a -> find_mem j a

let mem j c = find j c <> None

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let cardinal j = (if j.pc_set then 1 else 0) + popcount j.reg_mask + mem_count j

let iter f j =
  if j.pc_set then f Cell.Pc j.pc;
  for i = 0 to Reg.count - 1 do
    if has_reg j i then f (Cell.Reg (Reg.of_int i)) (reg j i)
  done;
  for k = 0 to mem_count j - 1 do
    f (Cell.mem (mem_addr j k)) (mem_at j k)
  done

let for_all p j =
  (not j.pc_set || p Cell.Pc j.pc)
  && (let ok = ref true in
      for i = 0 to Reg.count - 1 do
        if has_reg j i && not (p (Cell.Reg (Reg.of_int i)) (reg j i)) then
          ok := false
      done;
      !ok)
  && (let ok = ref true in
      for k = 0 to mem_count j - 1 do
        if !ok && not (p (Cell.mem (mem_addr j k)) (mem_at j k)) then
          ok := false
      done;
      !ok)

let to_fragment j =
  let f = ref Fragment.empty in
  iter (fun c v -> f := Fragment.add c v !f) j;
  !f

let of_fragment f =
  let j = create ~mem_size:(1 + Fragment.cardinal f) () in
  Fragment.iter (fun c v -> set j c v) f;
  j
