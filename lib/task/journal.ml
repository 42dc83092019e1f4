module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Reg = Mssp_isa.Reg

(* Memory bindings live in an insertion-order log of addresses with a
   parallel value array, indexed by a chained hash table from address
   to log position. The log is what makes the journal's iteration order
   a *contract* rather than an accident of hashing: a reads journal
   replays its first-reads in serial first-read order at verification
   time, whatever the table's capacity. Any int, negative addresses
   included, is a valid key, and a probe is int compares down a short
   chain: no option results and no polymorphic hashing. *)
type chain = Nil | Link of { addr : int; pos : int; next : chain }

type t = {
  mutable pc : int;
  mutable pc_set : bool;
  regs : int array;
  mutable reg_mask : int; (* bit [Reg.to_int r] set iff the register is bound *)
  mutable addrs : int array; (* bound addresses, in first-binding order *)
  mutable vals : int array; (* [vals.(i)] is bound at [addrs.(i)] *)
  mutable heads : chain array; (* by hash; as long as [addrs] *)
  mutable shift : int; (* [Sys.int_size - log2 (Array.length heads)] *)
  mutable mem_n : int;
  mutable mem_lo : int; (* bounds of every address ever bound; *)
  mutable mem_hi : int; (* lo > hi when no memory is bound *)
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(mem_size = 64) () =
  let rec pow2 n = if n >= mem_size then n else pow2 (2 * n) in
  let cap = pow2 8 in
  {
    pc = 0;
    pc_set = false;
    regs = Array.make Reg.count 0;
    reg_mask = 0;
    addrs = Array.make cap 0;
    vals = Array.make cap 0;
    heads = Array.make cap Nil;
    shift = Sys.int_size - log2 cap;
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

(* Fibonacci hashing: the top bits of the product, so strided address
   streams spread over the chains *)
let[@inline] home shift a = (a * 0x1E3779B97F4A7C15) lsr shift

let rec find_pos a = function
  | Nil -> -1
  | Link l -> if l.addr = a then l.pos else find_pos a l.next

let mem_index j a =
  if a < j.mem_lo || a > j.mem_hi then -1
  else find_pos a (Array.unsafe_get j.heads (home j.shift a))

let mem_at j i = Array.unsafe_get j.vals i

(* chain position [i] under its address *)
let link j i =
  let addr = Array.unsafe_get j.addrs i in
  let h = home j.shift addr in
  Array.unsafe_set j.heads h
    (Link { addr; pos = i; next = Array.unsafe_get j.heads h })

let grow j =
  let n = j.mem_n in
  let cap = 2 * n in
  let addrs = Array.make cap 0 and vals = Array.make cap 0 in
  Array.blit j.addrs 0 addrs 0 n;
  Array.blit j.vals 0 vals 0 n;
  j.addrs <- addrs;
  j.vals <- vals;
  j.heads <- Array.make cap Nil;
  j.shift <- Sys.int_size - log2 cap;
  for i = 0 to n - 1 do
    link j i
  done

(* [a] is known unbound *)
let add_mem j a v =
  if j.mem_n = Array.length j.addrs then grow j;
  let i = j.mem_n in
  Array.unsafe_set j.addrs i a;
  Array.unsafe_set j.vals i v;
  j.mem_n <- i + 1;
  link j i;
  if a < j.mem_lo then j.mem_lo <- a;
  if a > j.mem_hi then j.mem_hi <- a

let set_mem j a v =
  let i = mem_index j a in
  if i >= 0 then Array.unsafe_set j.vals i v else add_mem j a v

let find_mem j a =
  let i = mem_index j a in
  if i >= 0 then Some (mem_at j i) else None

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

let iter f j =
  if j.pc_set then f Cell.Pc j.pc;
  for i = 0 to Reg.count - 1 do
    if has_reg j i then f (Cell.Reg (Reg.of_int i)) (reg j i)
  done;
  for k = 0 to j.mem_n - 1 do
    f (Cell.mem (Array.unsafe_get j.addrs k)) (Array.unsafe_get j.vals k)
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
          let a = Array.unsafe_get j.addrs k in
          if not (p (Cell.mem a) (Array.unsafe_get j.vals k)) then ok := false
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
