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
  mutable mirrored : bool;
  mutable mirror : Fragment.t;  (* when [mirrored]: the memory of view *)
  mutable mirror_level : int;  (* [mirror_level], as a fragment *)
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
    mirrored = false;
    mirror = Fragment.empty;
    mirror_level = -1;
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

(* move the mirror up to [level], one layer at a time; the layers above
   [mirror_level] are unfolded, as [fold] advances the mirror first *)
let advance d level =
  for l = d.mirror_level + 1 to level do
    let layer = slot d l in
    for k = 0 to Mem_log.count layer - 1 do
      d.mirror <- Fragment.add (Cell.mem (Mem_log.addr layer k)) (Mem_log.get layer k) d.mirror
    done
  done;
  if level > d.mirror_level then d.mirror_level <- level

let frozen d ~level ~cells =
  check d level;
  if d.mirrored && d.mirror_level <= level then advance d level
  else begin
    let f = ref Fragment.empty in
    for p = 0 to cells - 1 do
      let a = Mem_log.addr d.base p in
      f := Fragment.add (Cell.mem a) (newest d level a p) !f
    done;
    d.mirrored <- true;
    d.mirror <- !f;
    d.mirror_level <- level
  end;
  d.mirror

let fold d ~upto =
  let upto = min upto (d.level - 1) in
  while d.first <= upto do
    let l = d.first in
    if d.mirrored then advance d l;
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
  d.floor <- d.level;
  d.mirror <- Fragment.empty;
  d.mirror_level <- d.level - 1
