module Reg = Mssp_isa.Reg

type t = {
  regs : int array;
  bound : int;
  mem : Fragment.t;
  mem_cells : int;
  mem_lo : int;
  mem_hi : int;
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

(* the record over a memory fragment, with its address bounds *)
let make regs bound mem mem_cells =
  let address b ~none =
    match b with Some (Cell.Mem a, _) -> a | Some _ | None -> none
  in
  {
    regs;
    bound;
    mem;
    mem_cells;
    mem_lo = address (Fragment.min_binding_opt mem) ~none:max_int;
    mem_hi = address (Fragment.max_binding_opt mem) ~none:min_int;
  }

let of_state ~pc s ~mem ~mem_cells =
  let regs = Array.make slots 0 in
  regs.(0) <- pc;
  for i = 1 to slots - 1 do
    regs.(i) <- Full.get_reg s (Reg.of_int i)
  done;
  make regs all_slots mem mem_cells

let of_pc pc =
  let regs = Array.make slots 0 in
  regs.(0) <- pc;
  make regs 1 Fragment.empty 0

let of_fragment f =
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
  make regs !bound mem (Fragment.cardinal mem)

let is_bound li i = li.bound land (1 lsl i) <> 0

let rec popcount n = if n = 0 then 0 else 1 + popcount (n land (n - 1))
let cardinal li = popcount li.bound + li.mem_cells

let find_mem a li =
  if a < li.mem_lo || a > li.mem_hi then None
  else Fragment.find_opt (Cell.mem a) li.mem

let find_opt c li =
  match c with
  | Cell.Mem a -> find_mem a li
  | Cell.Pc | Cell.Reg _ ->
    let i = slot c in
    if is_bound li i then Some li.regs.(i) else None

let add c v li =
  match c with
  | Cell.Mem a ->
    let mem_cells =
      if Fragment.mem c li.mem then li.mem_cells else li.mem_cells + 1
    in
    {
      li with
      mem = Fragment.add c v li.mem;
      mem_cells;
      mem_lo = min a li.mem_lo;
      mem_hi = max a li.mem_hi;
    }
  | Cell.Pc | Cell.Reg _ ->
    let i = slot c in
    let regs = Array.copy li.regs in
    regs.(i) <- v;
    { li with regs; bound = li.bound lor (1 lsl i) }

let fold f li acc =
  let acc = ref acc in
  for i = 0 to slots - 1 do
    if is_bound li i then acc := f cells.(i) li.regs.(i) !acc
  done;
  Fragment.fold f li.mem !acc

let to_fragment li =
  let f = ref li.mem in
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
  a.bound = b.bound && slots_equal 0 && Fragment.equal a.mem b.mem
