module Reg = Mssp_isa.Reg

type t = {
  regs : int array;
  bound : int;
  dirty : Dirty.t;
  level : int;
  cells : int;
  over : Fragment.t;
  over_lo : int;
  over_hi : int;
  mem_cells : int;
}

let slots = Reg.count
let all_slots = (1 lsl slots) - 1

(* slot [i]'s cell, so walks in cell order allocate no [Cell.Reg] *)
let cells =
  Array.init slots (fun i -> if i = 0 then Cell.Pc else Cell.Reg (Reg.of_int i))

let slot = function
  | Cell.Pc -> 0
  | Cell.Reg r -> Reg.to_int r
  | Cell.Mem _ -> invalid_arg "Live_in.slot: memory cell"

let address b ~none =
  match b with Some (Cell.Mem a, _) -> a | Some _ | None -> none

(* no view: the memory part is the overlay [mem] alone, [mem_cells]
   cells *)
let of_overlay regs bound mem ~mem_cells =
  {
    regs;
    bound;
    dirty = Dirty.none;
    level = 0;
    cells = 0;
    over = mem;
    over_lo = address (Fragment.min_binding_opt mem) ~none:max_int;
    over_hi = address (Fragment.max_binding_opt mem) ~none:min_int;
    mem_cells;
  }

let reg_file ~pc s =
  let regs = Full.copy_regs s in
  regs.(0) <- pc;
  regs

let checkpoint ~pc s dirty =
  let level = Dirty.seal dirty in
  let cells = Dirty.cells dirty in
  {
    regs = reg_file ~pc s;
    bound = all_slots;
    dirty;
    level;
    cells;
    over = Fragment.empty;
    over_lo = max_int;
    over_hi = min_int;
    mem_cells = cells;
  }

let of_pc pc =
  let regs = Array.make slots 0 in
  regs.(0) <- pc;
  of_overlay regs 1 Fragment.empty ~mem_cells:0

let of_fragment ?cardinal f =
  let regs = Array.make slots 0 and bound = ref 0 in
  let mem =
    Fragment.filter
      (fun c v ->
        match c with
        | Cell.Mem _ -> true
        | Cell.Pc | Cell.Reg _ ->
          let i = slot c in
          regs.(i) <- v;
          bound := !bound lor (1 lsl i);
          false)
      f
  in
  let unlisted = match cardinal with Some n -> n - Fragment.cardinal f | None -> 0 in
  of_overlay regs !bound mem ~mem_cells:(Fragment.cardinal mem + unlisted)

let is_bound li i = li.bound land (1 lsl i) <> 0

(* bits set in a 32-bit mask, by summing in parallel: per fork, for the
   run's own fold *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let cardinal li = popcount32 li.bound + li.mem_cells

let in_overlay a li = a >= li.over_lo && a <= li.over_hi

let find_mem a li ~default =
  if in_overlay a li then
    match Fragment.find_opt (Cell.mem a) li.over with
    | Some v -> v
    | None -> Dirty.find li.dirty ~level:li.level ~cells:li.cells a ~default
  else Dirty.find li.dirty ~level:li.level ~cells:li.cells a ~default

let binds_mem a li =
  (in_overlay a li && Fragment.mem (Cell.mem a) li.over)
  || Dirty.binds li.dirty ~level:li.level ~cells:li.cells a

let find_opt c li =
  match c with
  | Cell.Mem a ->
    if binds_mem a li then Some (find_mem a li ~default:0) else None
  | Cell.Pc | Cell.Reg _ ->
    let i = slot c in
    if is_bound li i then Some li.regs.(i) else None

let add c v li =
  match c with
  | Cell.Mem a ->
    let mem_cells = if binds_mem a li then li.mem_cells else li.mem_cells + 1 in
    {
      li with
      over = Fragment.add c v li.over;
      over_lo = min a li.over_lo;
      over_hi = max a li.over_hi;
      mem_cells;
    }
  | Cell.Pc | Cell.Reg _ ->
    let i = slot c in
    let regs = Array.copy li.regs in
    regs.(i) <- v;
    { li with regs; bound = li.bound lor (1 lsl i) }

(* the memory bindings as one fragment: the view's, under the overlay *)
let mem_fragment li =
  if li.cells = 0 then li.over
  else
    Fragment.superimpose
      (Dirty.frozen li.dirty ~level:li.level ~cells:li.cells)
      li.over

let shipped li =
  if li.dirty == Dirty.none then li
  else
    of_overlay li.regs li.bound
      (Fragment.superimpose (Dirty.layer li.dirty ~level:li.level) li.over)
      ~mem_cells:li.mem_cells

let fold f li acc =
  let acc = ref acc in
  for i = 0 to slots - 1 do
    if is_bound li i then acc := f cells.(i) li.regs.(i) !acc
  done;
  Fragment.fold f (mem_fragment li) !acc

let to_fragment li =
  let f = ref (mem_fragment li) in
  for i = 0 to slots - 1 do
    if is_bound li i then f := Fragment.add cells.(i) li.regs.(i) !f
  done;
  !f

let equal a b =
  let rec slots_equal i =
    i = slots
    || ((not (is_bound a i)) || a.regs.(i) = b.regs.(i))
       && slots_equal (i + 1)
  in
  a.bound = b.bound && slots_equal 0
  && a.mem_cells = b.mem_cells
  && Fragment.equal (mem_fragment a) (mem_fragment b)
