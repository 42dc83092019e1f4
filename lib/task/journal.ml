module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Reg = Mssp_isa.Reg

(* Memory bindings live in a hashtable for the O(1) probe, plus an
   insertion-order log of addresses. The log is what makes the journal's
   iteration order a *contract* rather than an accident of hashing: a
   reads journal replays its first-reads in serial first-read order at
   verification time, whatever mixture of per-instruction recording and
   block-batched staging produced them, and whatever the table's
   capacity. That decouples the observable order from [mem_size], so a
   journal's initial capacity can never change a result. *)
type t = {
  mutable pc : int;
  mutable pc_set : bool;
  regs : int array;
  mutable reg_mask : int; (* bit [Reg.to_int r] set iff the register is bound *)
  mem : (int, int) Hashtbl.t;
  mutable mem_order : int array; (* addresses, in first-binding order *)
  mutable mem_n : int;
  mutable mem_lo : int; (* bounds of every address ever bound; *)
  mutable mem_hi : int; (* lo > hi when no memory is bound *)
}

let create ?(mem_size = 64) () =
  {
    pc = 0;
    pc_set = false;
    regs = Array.make Reg.count 0;
    reg_mask = 0;
    mem = Hashtbl.create mem_size;
    mem_order = Array.make (max 8 mem_size) 0;
    mem_n = 0;
    mem_lo = max_int;
    mem_hi = min_int;
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

let find_mem j a = Hashtbl.find_opt j.mem a

let log_mem j a =
  if a < j.mem_lo then j.mem_lo <- a;
  if a > j.mem_hi then j.mem_hi <- a;
  let n = j.mem_n in
  let buf = j.mem_order in
  let len = Array.length buf in
  if n = len then begin
    let bigger = Array.make (2 * len) 0 in
    Array.blit buf 0 bigger 0 len;
    bigger.(n) <- a;
    j.mem_order <- bigger
  end
  else Array.unsafe_set buf n a;
  j.mem_n <- n + 1

let record_mem j a v =
  log_mem j a;
  Hashtbl.add j.mem a v

let set_mem j a v =
  if Hashtbl.mem j.mem a then Hashtbl.replace j.mem a v else record_mem j a v

(* conservative O(1) span test off the bounds above: [true] guarantees
   no memory binding lies in [lo, hi] (inclusive) — the block executor's
   is-this-code-span-journal-shadowed probe *)
let mem_avoids j ~lo ~hi = j.mem_n = 0 || j.mem_hi < lo || j.mem_lo > hi

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

let cardinal j = (if j.pc_set then 1 else 0) + popcount j.reg_mask + j.mem_n

let mem_value j a = Hashtbl.find j.mem a

let iter f j =
  if j.pc_set then f Cell.Pc j.pc;
  for i = 0 to Reg.count - 1 do
    if has_reg j i then f (Cell.Reg (Reg.of_int i)) (reg j i)
  done;
  for k = 0 to j.mem_n - 1 do
    let a = Array.unsafe_get j.mem_order k in
    f (Cell.mem a) (mem_value j a)
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
      for k = 0 to j.mem_n - 1 do
        if !ok then begin
          let a = Array.unsafe_get j.mem_order k in
          if not (p (Cell.mem a) (mem_value j a)) then ok := false
        end
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
