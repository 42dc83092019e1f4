(* The adaptation loop: a two-candidate search over one training
   profile.

   Round 0 distills statically. Round 1 distills the same program from
   the same profile with feedback — the config's task size as the merge
   target — so [merge] drops the inner-loop markers and [faint-writes]
   strips the loop-carried chains no remaining boundary observes. Both
   run under the same config. Every round's final state is the
   sequential one (the machine verifies each commit), so the rounds
   compare by simulated cycles alone and the loop keeps the faster
   halted one. Everything is deterministic: same program, profile and
   config give bit-identical rounds. *)

module Distill = Mssp_distill.Distill

type round = {
  index : int;  (** 0 = static distillation, 1 = adapted *)
  feedback : Distill.feedback option;  (** what this round was told *)
  distilled : Distill.t;
  result : Mssp_machine.result;
}

type t = {
  rounds : round list;  (** round 0, then round 1 *)
  best : round;
      (** the faster halted round (round 0 wins ties); round 0 when the
          adapted round did not halt *)
}

let round_cycles r = r.result.Mssp_machine.stats.Mssp_machine.cycles

let run ?rounds:(_ : int option) ?(options = Distill.default_options) ~config
    program profile =
  let exec index feedback =
    let options = { options with Distill.feedback } in
    let d = Distill.distill ~options program profile in
    { index; feedback; distilled = d; result = Mssp_machine.run ~config d }
  in
  let static = exec 0 None in
  let adapted =
    exec 1 (Some { Distill.fb_target_size = config.Mssp_config.task_size })
  in
  let halted r = r.result.Mssp_machine.stop = Mssp_machine.Halted in
  let best =
    if
      halted adapted
      && ((not (halted static)) || round_cycles adapted < round_cycles static)
    then adapted
    else static
  in
  { rounds = [ static; adapted ]; best }

let pp_round fmt r =
  Format.fprintf fmt "round %d: %d cycles, %d squashes (%s)" r.index
    (round_cycles r) r.result.Mssp_machine.stats.Mssp_machine.squashes
    (match r.feedback with
    | None -> "static"
    | Some fb ->
      Printf.sprintf "merge to %d + faint-writes" fb.Distill.fb_target_size)
