type t = int Cell.Map.t

let empty = Cell.Map.empty
let is_empty = Cell.Map.is_empty
let cardinal = Cell.Map.cardinal
let singleton = Cell.Map.singleton
let add = Cell.Map.add
let remove = Cell.Map.remove
let find_opt = Cell.Map.find_opt
let mem = Cell.Map.mem
let min_binding_opt = Cell.Map.min_binding_opt
let max_binding_opt = Cell.Map.max_binding_opt
let of_list bindings = List.fold_left (fun m (c, v) -> add c v m) empty bindings
let to_list = Cell.Map.bindings
let domain f = Cell.Map.fold (fun c _ acc -> Cell.Set.add c acc) f Cell.Set.empty
let fold = Cell.Map.fold
let iter = Cell.Map.iter
let filter = Cell.Map.filter

let superimpose s0 s1 =
  Cell.Map.union (fun _cell _v0 v1 -> Some v1) s0 s1

let consistent s1 s2 =
  Cell.Map.for_all
    (fun c v -> match find_opt c s2 with Some v' -> v = v' | None -> false)
    s1

let pc f = find_opt Cell.Pc f
let equal = Cell.Map.equal Int.equal
let compare = Cell.Map.compare Int.compare

let pp fmt f =
  Format.fprintf fmt "@[<hv 1>{";
  let first = ref true in
  iter
    (fun c v ->
      if not !first then Format.fprintf fmt ";@ ";
      first := false;
      Format.fprintf fmt "%a=%d" Cell.pp c v)
    f;
  Format.fprintf fmt "}@]"

let show f = Format.asprintf "%a" pp f
