(* The master's memory writes since its last seed, in write layers.

   [base] holds every address written since the reset, in first-write
   order, so a view's cells are exactly the base positions below the
   count at its seal. A base value is that of the newest layer folded
   into it; an address whose first write still sits in an unfolded layer
   carries a placeholder there, which no view reads: every view that
   counts it also sees that layer.

   Layers [first .. level] sit in a ring, level [l] at slot
   [l land (Array.length layers - 1)]: [first .. level - 1] sealed, one
   per fork interval, and [level] open, taking the stores. A folded
   layer is cleared in place and its slot taken by a later level, so in
   the steady state a store, a seal and a fold allocate nothing. Slots
   never used yet hold [unused]. *)
type t = {
  base : Mem_log.t;
  mutable layers : Mem_log.t array;
  mutable top : Mem_log.t;  (* the open layer: the slot of [level] *)
  mutable level : int;
  mutable first : int;  (* the oldest layer not folded into [base] *)
  mutable floor : int;  (* views below this level are stale *)
}

(* never written: a placeholder slot, compared physically *)
let unused = Mem_log.create ~size:1 ()

let create () =
  let top = Mem_log.create ~size:8 () in
  let layers = Array.make 4 unused in
  layers.(0) <- top;
  {
    base = Mem_log.create ~size:8 ();
    layers;
    top;
    level = 0;
    first = 0;
    floor = 0;
  }

let none = create ()
let[@inline] slot d l = Array.unsafe_get d.layers (l land (Array.length d.layers - 1))
let cells d = Mem_log.count d.base

let store d a v =
  let top = d.top in
  let i = Mem_log.index top a in
  if i >= 0 then Mem_log.set_at top i v
  else begin
    Mem_log.add top a v;
    if Mem_log.index d.base a < 0 then Mem_log.add d.base a v
  end

(* a ring twice the size, the unfolded layers moved to their new slots *)
let grow d =
  let old = d.layers in
  let layers = Array.make (2 * Array.length old) unused in
  for l = d.first to d.level do
    layers.(l land (Array.length layers - 1)) <- old.(l land (Array.length old - 1))
  done;
  d.layers <- layers

let seal d =
  let sealed = d.level in
  let next = sealed + 1 in
  if next - d.first >= Array.length d.layers then grow d;
  let i = next land (Array.length d.layers - 1) in
  if d.layers.(i) == unused then d.layers.(i) <- Mem_log.create ~size:8 ();
  d.top <- d.layers.(i);
  d.level <- next;
  sealed

let check d level = if level < d.floor then invalid_arg "Dirty: stale view"

(* the newest value of base position [p] (address [a]) at or below
   layer [l] *)
let rec newest d l a p =
  if l < d.first then Mem_log.get d.base p
  else
    let layer = slot d l in
    let i = Mem_log.index layer a in
    if i >= 0 then Mem_log.get layer i else newest d (l - 1) a p

let find d ~level ~cells a ~default =
  check d level;
  let p = Mem_log.index d.base a in
  if p < 0 || p >= cells then default else newest d level a p

let binds d ~level ~cells a =
  check d level;
  let p = Mem_log.index d.base a in
  p >= 0 && p < cells

(* the [n] memory cells [addr k], bound to [value k], as a fragment *)
let fragment n addr value =
  let f = ref Fragment.empty in
  for k = 0 to n - 1 do f := Fragment.add (Cell.mem (addr k)) (value k) !f done;
  !f

let frozen d ~level ~cells =
  check d level;
  let addr = Mem_log.addr d.base in
  fragment cells addr (fun p -> newest d level (addr p) p)

let layer d ~level =
  if level < d.first || level >= d.level then invalid_arg "Dirty: no such layer";
  let l = slot d level in
  fragment (Mem_log.count l) (Mem_log.addr l) (Mem_log.get l)

let fold d ~upto =
  let upto = min upto (d.level - 2) in
  while d.first <= upto do
    let l = d.first in
    let layer = slot d l in
    for k = 0 to Mem_log.count layer - 1 do
      Mem_log.set d.base (Mem_log.addr layer k) (Mem_log.get layer k)
    done;
    Mem_log.clear layer;
    d.floor <- l;
    d.first <- l + 1
  done

let reset d =
  for l = d.first to d.level do
    Mem_log.clear (slot d l)
  done;
  Mem_log.clear d.base;
  d.first <- d.level;
  d.floor <- d.level
