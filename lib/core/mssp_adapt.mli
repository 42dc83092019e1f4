(** The adaptation loop: a two-candidate search over one training
    profile.

    Round 0 is the static distillation. Round 1 re-distills the same
    program against the same profile with a
    {!Mssp_distill.Distill.feedback} record whose merge target is the
    config's [task_size]: [merge] drops the markers whose spacing cannot
    fill a task, and [faint-writes] strips the loop-carried chains no
    remaining boundary observes. Both run under the same machine config.
    Since the machine verifies every commit, each round's final
    architected state is the sequential one however aggressive the
    distillation got — rounds compare by simulated cycles alone, and
    {!t.best} is simply the faster halted one.

    No round depends on another's run: the squash rates a feedback loop
    would read stay far below any threshold worth reacting to (at most
    0.0028 squashes per commit on every kernel at 1/2/4/8 slaves).
    Deterministic end to end, so the chosen round — and the E19 bench
    guard built on it — is bit-identical across hosts. *)

type round = {
  index : int;  (** 0 = static distillation, 1 = adapted *)
  feedback : Mssp_distill.Distill.feedback option;
  distilled : Mssp_distill.Distill.t;
  result : Mssp_machine.result;
}

type t = {
  rounds : round list;  (** round 0, then round 1 *)
  best : round;
      (** the faster halted round, round 0 winning ties; round 0 when
          the adapted round did not halt *)
}

val run :
  ?rounds:int ->
  ?options:Mssp_distill.Distill.options ->
  config:Mssp_config.t ->
  Mssp_isa.Program.t ->
  Mssp_profile.Profile.t ->
  t
(** [run ~config program profile] runs round 0 and round 1. [options]
    (default {!Mssp_distill.Distill.default_options}) is the base of
    both distillations; round 1 sets its [feedback]. [?rounds] is a
    no-effect pin, like [Mssp_config.pool]: a frozen caller passes
    [~rounds:1], and every value gives the same two rounds. *)

val round_cycles : round -> int
val pp_round : Format.formatter -> round -> unit
