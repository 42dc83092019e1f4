(* Surface-specific seed-mixing constants. Live_in_corrupt and
   Commit_corrupt MUST keep their constants: the commit-corruption
   golden trace and the fuzz grid's honest-fault-injection point pin
   those exact streams. *)
let mix = function
  | Plan.Live_in_corrupt -> 0x9E3779B9
  | Plan.Commit_corrupt -> 0xB5297A4D
  | Plan.Mem_bit_flip -> 0x7F4A7C15
  | Plan.Checkpoint_drop -> 0x2545F491
  | Plan.Checkpoint_delay -> 0x165667B1
  | Plan.Slave_stall -> 0x27D4EB2F
  | Plan.Verify_transient -> 0x85EBCA6B

let surface_index = function
  | Plan.Live_in_corrupt -> 0
  | Plan.Mem_bit_flip -> 1
  | Plan.Checkpoint_drop -> 2
  | Plan.Checkpoint_delay -> 3
  | Plan.Slave_stall -> 4
  | Plan.Verify_transient -> 5
  | Plan.Commit_corrupt -> 6

let n_surfaces = 7

type armed = { act : Plan.action; state : int ref }

type t = { slots : armed list array; policy : Plan.policy }

let make (plan : Plan.t) =
  let slots = Array.make n_surfaces [] in
  List.iter
    (fun (a : Plan.action) ->
      let i = surface_index a.Plan.surface in
      let state = ref ((a.Plan.seed lxor mix a.Plan.surface) land max_int) in
      slots.(i) <- slots.(i) @ [ { act = a; state } ])
    plan.Plan.actions;
  { slots; policy = plan.Plan.policy }

let policy t = t.policy

let has t surface = t.slots.(surface_index surface) <> []

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

let fire t surface ~cycle =
  match t.slots.(surface_index surface) with
  | [] -> None
  | armed_list ->
    (* step every armed action so one action's presence never reshapes
       another's stream; first in-window hit wins *)
    List.fold_left
      (fun hit armed ->
        let fired = step armed && in_window armed.act cycle in
        match hit with Some _ -> hit | None -> if fired then Some armed.act else None)
      None armed_list
