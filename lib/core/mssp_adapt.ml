(* The adaptation loop: close the distiller's feedback input over the
   machine's squash attribution.

   Round 0 distills statically and runs. Every later round turns the
   previous run's measured squash rate into a [Distill.feedback] record
   — high rate: split tasks finer; low rate: merge inner-loop markers
   and elide faint writes (verify/commit absorbs a stale value in the
   residual reads) — re-distills, and re-runs. Every round's final
   state is the sequential one (the machine verifies each commit), so
   rounds are comparable by simulated cycles alone and the loop simply
   keeps the fastest halted round. Everything is deterministic: same
   program, profile, config and round count give bit-identical rounds. *)

module Distill = Mssp_distill.Distill
module Pass = Mssp_distill.Pass

type round = {
  index : int;  (** 0 = static distillation *)
  feedback : Distill.feedback option;  (** what this round was told *)
  distilled : Distill.t;
  result : Mssp_machine.result;
}

type t = {
  rounds : round list;  (** execution order, round 0 first *)
  best : round;
      (** fewest simulated cycles among halted rounds (earliest round
          wins ties); round 0 when no adapted round halted *)
}

let feedback_of ~(config : Mssp_config.t) (r : Mssp_machine.result) =
  let sr = Mssp_machine.squash_rate r in
  {
    Distill.fb_squash_rate = sr;
    fb_target_size = config.Mssp_config.task_size;
    fb_elide = sr <= Pass.split_threshold;
  }

let run ?(rounds = 1) ?(options = Distill.default_options) ~config program
    profile =
  let exec index feedback =
    let options = { options with Distill.feedback } in
    let d = Distill.distill ~options program profile in
    { index; feedback; distilled = d; result = Mssp_machine.run ~config d }
  in
  let round0 = exec 0 None in
  let rec go acc prev i =
    if i > rounds then List.rev acc
    else
      let r = exec i (Some (feedback_of ~config prev.result)) in
      go (r :: acc) r (i + 1)
  in
  let all = round0 :: go [] round0 1 in
  let halted r = r.result.Mssp_machine.stop = Mssp_machine.Halted in
  let cycles r = r.result.Mssp_machine.stats.Mssp_machine.cycles in
  let best =
    List.fold_left
      (fun best r ->
        if halted r && ((not (halted best)) || cycles r < cycles best) then r
        else best)
      round0 all
  in
  { rounds = all; best }

let round_cycles r = r.result.Mssp_machine.stats.Mssp_machine.cycles
let round_squashes r = r.result.Mssp_machine.stats.Mssp_machine.squashes

let pp_round fmt r =
  Format.fprintf fmt "round %d: %d cycles, %d squashes%s" r.index
    (round_cycles r) (round_squashes r)
    (match r.feedback with
    | None -> " (static)"
    | Some fb ->
      Format.asprintf " (squash rate %.3f, elide %b)" fb.Distill.fb_squash_rate
        fb.Distill.fb_elide)
