type surface = Live_in_corrupt | Mem_bit_flip | Commit_corrupt

let all_surfaces = [ Live_in_corrupt; Mem_bit_flip; Commit_corrupt ]
let absorbable_surfaces = [ Live_in_corrupt; Mem_bit_flip ]

let surface_name = function
  | Live_in_corrupt -> "live_in_corrupt"
  | Mem_bit_flip -> "mem_bit_flip"
  | Commit_corrupt -> "commit_corrupt"

type action = {
  surface : surface;
  seed : int;
  p : float;
  window : (int * int) option;
  magnitude : int;
  quiet : bool;
}

let action ?window ?(magnitude = 0) surface ~seed ~p =
  { surface; seed; p = Float.max 0.0 (Float.min 1.0 p); window; magnitude;
    quiet = false }

type t = { actions : action list }

let make actions = { actions }

let quiet surface ~seed ~p =
  make [ { (action surface ~seed ~p) with quiet = true } ]

let absorbable t =
  not (List.exists (fun a -> a.surface = Commit_corrupt) t.actions)

let pp_action fmt a =
  Format.fprintf fmt "%s(seed %d, p=%g%s%s)" (surface_name a.surface) a.seed
    a.p
    (match a.window with
    | None -> ""
    | Some (lo, hi) -> Printf.sprintf ", window [%d,%d)" lo hi)
    (if a.magnitude = 0 then ""
     else Printf.sprintf ", magnitude %d" a.magnitude)

let pp fmt t =
  Format.fprintf fmt "@[<h>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ")
       pp_action)
    t.actions

let to_string t = Format.asprintf "%a" pp t
