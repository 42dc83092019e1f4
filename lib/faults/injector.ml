(* Surface-specific seed-mixing constants. Each surface MUST keep its
   constant: the commit-corruption and fault-plan golden traces, the
   fuzz grid's honest-fault-injection point and the audit tables pin
   those exact streams. *)
let mix = function
  | Plan.Live_in_corrupt -> 0x9E3779B9
  | Plan.Commit_corrupt -> 0xB5297A4D
  | Plan.Mem_bit_flip -> 0x7F4A7C15

let surface_index = function
  | Plan.Live_in_corrupt -> 0
  | Plan.Mem_bit_flip -> 1
  | Plan.Commit_corrupt -> 2

let n_surfaces = 3

type armed = { act : Plan.action; state : int ref }

type t = armed list array

let make (plan : Plan.t) =
  let slots = Array.make n_surfaces [] in
  List.iter
    (fun (a : Plan.action) ->
      let i = surface_index a.Plan.surface in
      let state = ref ((a.Plan.seed lxor mix a.Plan.surface) land max_int) in
      slots.(i) <- slots.(i) @ [ { act = a; state } ])
    plan.Plan.actions;
  slots

(* The legacy 48-bit LCG (java.util.Random's multiplier), thresholded on
   the top 32 bits — identical to the old fault_rng/chaos_rng. *)
let step armed =
  let s = armed.state in
  s := ((!s * 25214903917) + 11) land ((1 lsl 48) - 1);
  float_of_int (!s lsr 16) /. float_of_int (1 lsl 32) < armed.act.Plan.p

let in_window (a : Plan.action) cycle =
  match a.Plan.window with
  | None -> true
  | Some (lo, hi) -> cycle >= lo && cycle < hi

(* step every armed action so one action's presence never reshapes
   another's stream; first in-window hit wins. [cycle] is an argument of
   the loop, not captured by a closure, so an armed plan that never
   fires allocates nothing per opportunity *)
let rec fire_from cycle hit = function
  | [] -> hit
  | armed :: rest ->
    let fired = step armed && in_window armed.act cycle in
    let hit = match hit with None when fired -> Some armed.act | _ -> hit in
    fire_from cycle hit rest

let fire t surface ~cycle = fire_from cycle None t.(surface_index surface)
