(** The differential cross-oracle.

    One generated program is judged by three independent layers:

    + the {e SEQ reference}: the sequential machine over the same loaded
      image (original + distilled), the ground truth;
    + the {e MSSP machine} across a grid of configurations and
      distillers — honest, aggressive, identity, the four adversarial
      masters, the amnesiac master under dual mode, fault injection and
      control-only mode — every run with the shadow
      refinement checker on where it applies;
    + the {e formal models}: Lemma 2 (task evolution = [seq]), Theorem 2
      (safety on the complete state) and jumping refinement of a sampled
      abstract run ({!Mssp_formal.Refinement.check_trace}), on programs
      small enough for fragment-level replay.

    A divergence is any of: MSSP not halting cleanly, final architected
    state differing from SEQ on any observable cell, a nonzero shadow
    refinement-violation count, a stats inconsistency (retired
    instructions ≠ SEQ retirement, squash reasons not summing, …), or a
    [Violation] verdict from the formal layer. *)

type failure = {
  point : string;  (** grid-point (or formal-layer) name *)
  reason : string;
}

type verdict =
  | Passed of int  (** number of machine runs compared *)
  | Skipped of string
      (** the reference run did not halt cleanly within its fuel —
          out of the oracle's scope, like [test_equivalence] *)
  | Failed of failure list

type distiller =
  | Honest
  | Aggressive
  | Identity
  | Adversaries
  | Amnesiac
  | Subset of string list
      (** the distiller pass pipeline restricted to exactly these passes
          (in this order, resolved via {!Mssp_distill.Distill.resolve}),
          run with the pass-checker on: a checker violation is an oracle
          failure with reason ["pass-checker: ..."] and the package never
          reaches the machine *)
  | Adapted
      (** the default passes with feedback whose merge target is the
          point's [task_size] — the adaptation loop's round 1
          ({!Mssp_core.Mssp_adapt}) — run with the pass-checker on like
          a [Subset] *)

type point = {
  name : string;
  distiller : distiller;
  config : Mssp_core.Mssp_config.t;
}

val default_grid : unit -> point list
(** The standard nine-point grid described above. *)

val switchable_passes : string list
(** The six named distiller passes the subset axis draws from. *)

val valid_order : string list -> string list
(** Normalize a pass-name list into a permutation-valid pipeline:
    [compact] last if present, [repair] directly after [harden]. *)

val random_subset : seed:int -> string list
(** Deterministic random subset of {!switchable_passes} in a random
    valid order — the [passes/random] grid point's pipeline. *)

val distill_grid : seed:int -> unit -> point list
(** The pass-subset grid: honest control, the empty pipeline, every
    switchable pass alone, a seed-derived random subset in a random
    (valid) order and the [adapted] candidate (merge + faint-writes) —
    ten points, all checker-on, all required to land on the SEQ state. *)

val checked_pipeline :
  point ->
  (Mssp_distill.Pass.t list * Mssp_distill.Distill.options, string) result
  option
(** The passes and options a [Subset] or [Adapted] point runs under the
    pass-checker ([Error] names an unknown pass); [None] for the other
    distillers. *)

val broken_pass_point : string -> point
(** A grid point running one {e deliberately broken} pass
    ([broken-harden], [broken-stores] or [broken-forks]) alone: the distiller mutation
    smoke test — the pass-checker must fail it. Never part of any
    default grid. *)

val chaos_point : seed:int -> p:float -> point
(** A grid point whose verify/commit unit is {e deliberately broken}
    (a quiet [Commit_corrupt] fault plan, {!Mssp_faults.Plan.quiet}):
    the mutation smoke test proving the oracle catches a buggy machine.
    Never part of {!default_grid}. *)

val plan_grid : plan:Mssp_faults.Plan.t -> unit -> point list
(** The program x plan grid: an honest control point, the plan on a
    plain machine, and the plan under dual mode. For an {e absorbable}
    plan every point must agree with SEQ — only stats and cycles may
    move; feeding a non-absorbable plan
    (e.g. with a [Commit_corrupt] action) here is the fault-plan
    mutation smoke test. *)

val formal_failures : seed:int -> Mssp_isa.Program.t -> failure list
(** The formal layer on one program, in this order: Lemma 2
    (["formal/lemma2"]), Theorem 2 (["formal/theorem2"]), absorbability
    of committed chains (["formal/absorb"]) and jumping refinement of an
    abstract run sampled with [seed] (["formal/refinement"],
    {!Mssp_formal.Refinement.check_trace}). Fragment states replay the
    whole run per [seq] step: affordable on small programs only. Shared
    by {!check} and [mssp_sim formal]. *)

val check :
  ?grid:point list ->
  ?fuel:int ->
  ?formal:bool ->
  ?formal_seed:int ->
  Mssp_isa.Program.t ->
  verdict
(** Judge one program: every package of every grid point, in grid
    order, against a SEQ reference run once per distinct package (the
    [Honest] points share one). [fuel] (default 5M) bounds the reference
    run; [formal] (default true) enables {!formal_failures} on programs
    of at most 150 SEQ instructions. *)

val failing : ?grid:point list -> ?fuel:int -> Mssp_isa.Program.t -> bool
(** [check] as a shrinker predicate: [true] iff [Failed]. A candidate
    whose reference run stops halting is [Skipped], hence not failing. *)

val trace_failure :
  ?grid:point list ->
  ?fuel:int ->
  Mssp_isa.Program.t ->
  (string * Mssp_trace.Trace.event list * failure list) option
(** {!check}'s walk with the structured event bus on, stopping at the
    first failing package: [(point-name, event stream, failures)], the
    event trail that explains a shrunk witness (no events when the
    pass-checker failed the package). [None] if nothing fails (or the
    reference run no longer halts). The machine is deterministic, so
    this reproduces the untraced failure exactly. *)

val pp_failure : Format.formatter -> failure -> unit
