(* Bindings live in an insertion-order log of addresses with a parallel
   value array, indexed by an open-addressed table from address to log
   position. The log is what makes iteration order a *contract* rather
   than an accident of hashing: a slave's reads journal replays its
   first-reads in serial first-read order at verification time, whatever
   the table's capacity. Any int, negative addresses included, is a
   valid key.

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
  mutable addrs : int array; (* bound addresses, in first-binding order *)
  mutable vals : int array; (* [vals.(i)] is bound at [addrs.(i)] *)
  mutable slots : int array; (* log position + 1 by probe, 0 = empty *)
  mutable shift : int; (* [Sys.int_size - log2 (Array.length slots)] *)
  mutable mask : int; (* [Array.length slots - 1] *)
  mutable n : int;
  mutable lo : int; (* bounds of every address bound since the *)
  mutable hi : int; (* last clear; lo > hi when none is bound *)
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(size = 64) () =
  let rec pow2 n = if n >= size then n else pow2 (2 * n) in
  let cap = pow2 8 in
  {
    addrs = Array.make cap 0;
    vals = Array.make cap 0;
    slots = Array.make (2 * cap) 0;
    shift = Sys.int_size - log2 (2 * cap);
    mask = (2 * cap) - 1;
    n = 0;
    lo = max_int;
    hi = min_int;
  }

(* Fibonacci hashing: the top bits of the product, so strided address
   streams spread over the table *)
let[@inline] home shift a = (a * 0x1E3779B97F4A7C15) lsr shift

let rec probe l a i =
  let s = Array.unsafe_get l.slots i in
  if s = 0 then -1
  else if Array.unsafe_get l.addrs (s - 1) = a then s - 1
  else probe l a ((i + 1) land l.mask)

(* inlined into every caller with the first probe unrolled: a hit at
   its home slot or a miss on an empty one pays no call *)
let[@inline] index l a =
  if a < l.lo || a > l.hi then -1
  else
    let i = home l.shift a in
    let s = Array.unsafe_get l.slots i in
    if s = 0 then -1
    else if Array.unsafe_get l.addrs (s - 1) = a then s - 1
    else probe l a ((i + 1) land l.mask)
let get l i = Array.unsafe_get l.vals i
let set_at l i v = Array.unsafe_set l.vals i v
let count l = l.n
let addr l i = Array.unsafe_get l.addrs i

(* the first empty slot on [a]'s probe path, from slot [i] *)
let rec free_slot l i =
  if Array.unsafe_get l.slots i = 0 then i
  else free_slot l ((i + 1) land l.mask)

(* slot log position [k] under its address *)
let place l k =
  let i = free_slot l (home l.shift (Array.unsafe_get l.addrs k)) in
  Array.unsafe_set l.slots i (k + 1)

let grow l =
  let n = l.n in
  let cap = 2 * n in
  let addrs = Array.make cap 0 and vals = Array.make cap 0 in
  Array.blit l.addrs 0 addrs 0 n;
  Array.blit l.vals 0 vals 0 n;
  l.addrs <- addrs;
  l.vals <- vals;
  l.slots <- Array.make (2 * cap) 0;
  l.shift <- Sys.int_size - log2 (2 * cap);
  l.mask <- (2 * cap) - 1;
  for k = 0 to n - 1 do
    place l k
  done

let add l a v =
  if l.n = Array.length l.addrs then grow l;
  let k = l.n in
  Array.unsafe_set l.addrs k a;
  Array.unsafe_set l.vals k v;
  l.n <- k + 1;
  place l k;
  if a < l.lo then l.lo <- a;
  if a > l.hi then l.hi <- a

let set l a v =
  let i = index l a in
  if i >= 0 then set_at l i v else add l a v

(* zero the slot holding [target], on the probe path from slot [i] *)
let rec unplace l target i =
  if Array.unsafe_get l.slots i = target then Array.unsafe_set l.slots i 0
  else unplace l target ((i + 1) land l.mask)

(* log positions [k] down to 0: when [k]'s slot is zeroed, every slot on
   its probe path still holds an older position *)
let rec unplace_from l k =
  if k >= 0 then begin
    unplace l (k + 1) (home l.shift (Array.unsafe_get l.addrs k));
    unplace_from l (k - 1)
  end

let clear l =
  unplace_from l (l.n - 1);
  l.n <- 0;
  l.lo <- max_int;
  l.hi <- min_int

let occupied_slots l =
  Array.fold_left (fun n s -> if s <> 0 then n + 1 else n) 0 l.slots
