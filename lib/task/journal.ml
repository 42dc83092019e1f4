module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Reg = Mssp_isa.Reg

(* Memory bindings live in an insertion-order log of addresses with a
   parallel value array, indexed by an open-addressed table from address
   to log position. The log is what makes the journal's iteration order
   a *contract* rather than an accident of hashing: a reads journal
   replays its first-reads in serial first-read order at verification
   time, whatever the table's capacity. Any int, negative addresses
   included, is a valid key.

   The table is one int array of slots, twice the log's capacity (load
   at most one half): a slot holds a log position + 1, and 0 marks an
   empty slot. A probe starts at the address's Fibonacci home and walks
   linearly to its binding or to an empty slot: int compares, no option
   results, no polymorphic hashing and no allocation. Entries are only
   ever added (never removed one by one), so probe paths never break,
   and a table rebuilt on growth re-inserts in log order — the path of
   log position [k] crosses only slots of positions below [k], which is
   what lets [clear] unwind the table in reverse log order. *)
type t = {
  mutable pc : int;
  mutable pc_set : bool;
  regs : int array;
  mutable reg_mask : int; (* bit [Reg.to_int r] set iff the register is bound *)
  mutable addrs : int array; (* bound addresses, in first-binding order *)
  mutable vals : int array; (* [vals.(i)] is bound at [addrs.(i)] *)
  mutable slots : int array; (* log position + 1 by probe, 0 = empty *)
  mutable shift : int; (* [Sys.int_size - log2 (Array.length slots)] *)
  mutable mask : int; (* [Array.length slots - 1] *)
  mutable mem_n : int;
  mutable mem_lo : int; (* bounds of every address bound since the *)
  mutable mem_hi : int; (* last clear; lo > hi when no memory is bound *)
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
    slots = Array.make (2 * cap) 0;
    shift = Sys.int_size - log2 (2 * cap);
    mask = (2 * cap) - 1;
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
   streams spread over the table *)
let[@inline] home shift a = (a * 0x1E3779B97F4A7C15) lsr shift

let rec probe j a i =
  let s = Array.unsafe_get j.slots i in
  if s = 0 then -1
  else if Array.unsafe_get j.addrs (s - 1) = a then s - 1
  else probe j a ((i + 1) land j.mask)

let mem_index j a =
  if a < j.mem_lo || a > j.mem_hi then -1 else probe j a (home j.shift a)

let mem_at j i = Array.unsafe_get j.vals i
let mem_count j = j.mem_n
let mem_addr j i = Array.unsafe_get j.addrs i

(* the first empty slot on [a]'s probe path, from slot [i] *)
let rec free_slot j i =
  if Array.unsafe_get j.slots i = 0 then i
  else free_slot j ((i + 1) land j.mask)

(* slot log position [k] under its address *)
let place j k =
  let i = free_slot j (home j.shift (Array.unsafe_get j.addrs k)) in
  Array.unsafe_set j.slots i (k + 1)

let grow j =
  let n = j.mem_n in
  let cap = 2 * n in
  let addrs = Array.make cap 0 and vals = Array.make cap 0 in
  Array.blit j.addrs 0 addrs 0 n;
  Array.blit j.vals 0 vals 0 n;
  j.addrs <- addrs;
  j.vals <- vals;
  j.slots <- Array.make (2 * cap) 0;
  j.shift <- Sys.int_size - log2 (2 * cap);
  j.mask <- (2 * cap) - 1;
  for k = 0 to n - 1 do
    place j k
  done

(* [a] is known unbound *)
let add_mem j a v =
  if j.mem_n = Array.length j.addrs then grow j;
  let k = j.mem_n in
  Array.unsafe_set j.addrs k a;
  Array.unsafe_set j.vals k v;
  j.mem_n <- k + 1;
  place j k;
  if a < j.mem_lo then j.mem_lo <- a;
  if a > j.mem_hi then j.mem_hi <- a

let set_mem j a v =
  let i = mem_index j a in
  if i >= 0 then Array.unsafe_set j.vals i v else add_mem j a v

let find_mem j a =
  let i = mem_index j a in
  if i >= 0 then Some (mem_at j i) else None

(* zero the slot holding [target], on the probe path from slot [i] *)
let rec unplace j target i =
  if Array.unsafe_get j.slots i = target then Array.unsafe_set j.slots i 0
  else unplace j target ((i + 1) land j.mask)

(* log positions [k] down to 0: when [k]'s slot is zeroed, every slot on
   its probe path still holds an older position *)
let rec unplace_from j k =
  if k >= 0 then begin
    unplace j (k + 1) (home j.shift (Array.unsafe_get j.addrs k));
    unplace_from j (k - 1)
  end

let clear j =
  unplace_from j (j.mem_n - 1);
  j.pc_set <- false;
  j.reg_mask <- 0;
  j.mem_n <- 0;
  j.mem_lo <- max_int;
  j.mem_hi <- min_int

let is_empty j = (not j.pc_set) && j.reg_mask = 0 && j.mem_n = 0

let occupied_slots j =
  Array.fold_left (fun n s -> if s <> 0 then n + 1 else n) 0 j.slots

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
