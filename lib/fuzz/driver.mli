(** Fuzzing campaigns: generate, judge, shrink, persist.

    A campaign derives one program seed per iteration from the campaign
    seed, generates a program ({!Gen}), judges it ({!Oracle.check}) and,
    on failure, shrinks it against the same grid ({!Shrink.minimize})
    and writes a provenance-commented repro into the corpus directory
    ({!Corpus.save}). Campaigns are deterministic: same seed, same
    programs, same verdicts.

    With [~jobs:n] (n > 1) the campaign splits into [n] independent
    shards fanned across domains ({!Mssp_exec.Pool.map_runs}); shard
    [w] is a serial campaign with seed [seed + w], so any
    parallel-found divergence replays exactly with
    [fuzz --jobs 1 --seed (seed + w) --count <shard count>] (the replay
    line is printed next to the finding). Verdicts and logs are
    deterministic either way; only the log's shard interleaving differs
    from a serial run. *)

(** The grid axis a campaign judges its programs on. Each grid is a
    function of the program seed, so one-line replays hold on every axis. *)
type axis =
  | Standard  (** the campaign's [grid] (default {!Oracle.default_grid}) *)
  | Faults
      (** program x plan fuzzing: each iteration derives an
          always-absorbable fault plan from the program seed
          ({!Gen.plan}), judges the program on {!Oracle.plan_grid} and
          shrinks failing witnesses over both coordinates *)
  | Distill
      (** {!Oracle.distill_grid}, the pass-subset axis and the adapted
          candidate with the pass-checker on; a failing checked point
          dumps the shrunk witness's per-pass diff + JSON artifacts
          under [_distill_failures/] *)

type finding = {
  program_seed : int;
  program : Mssp_isa.Program.t;  (** as generated *)
  shrunk : Mssp_isa.Program.t;  (** minimized witness *)
  plan : Mssp_faults.Plan.t option;
      (** fault-plan fuzzing only: the jointly minimized plan
          coordinate of the witness ({!Shrink.minimize_pair}) *)
  failures : Oracle.failure list;  (** of the original program *)
  repro_path : string option;  (** where the shrunk witness was saved *)
  trace_path : string option;
      (** JSONL event trail of the shrunk witness's first failing grid
          point, beside the repro ([campaign ~trace:true] + [out]) *)
}

type report = {
  programs : int;
  skipped : int;
  runs : int;  (** machine runs compared across all grid points *)
  findings : finding list;
}

val campaign :
  ?grid:Oracle.point list ->
  ?fuel:int ->
  ?weights:Gen.weights ->
  ?axis:axis ->
  ?size:int ->
  ?shrink_budget:int ->
  ?out:string ->
  ?save:int ->
  ?trace:bool ->
  ?log:(string -> unit) ->
  ?jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  report
(** [weights] (default {!Gen.default_weights}) selects the program
    generator's shape-weight profile — e.g. {!Gen.smc_heavy} for the
    nightly self-modifying-code leg; every replay line assumes the same
    profile, so campaigns under a non-default profile replay with the
    same flag. [axis] (default [Standard]) picks the grid; [grid] is
    used on the [Standard] axis only. [size] (default 0 = vary per
    program in [6, 24]) fixes the shape count; [shrink_budget] (default
    500) bounds predicate evaluations per finding; [out] enables corpus
    persistence; [save] (default 0) additionally writes the first [save]
    {e passing} programs into [out] as corpus seeds, so interesting
    generated programs are replayed as regressions by later runs;
    [trace] (default false) re-runs each shrunk witness with the event
    bus on, writes its JSONL event trail as [<repro>.trace.jsonl] beside
    the repro and folds the squash attribution into the repro's comment
    (needs [out]); [log] receives one-line progress messages; [jobs]
    (default 1) fans the campaign out across that many worker domains
    as per-worker-seeded shards (corpus seed saves then come from shard
    0 only). *)
