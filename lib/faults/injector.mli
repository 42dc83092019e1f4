(** The runtime of a {!Plan.t}: per-action PRNG states, queried by the
    machine at each fault opportunity.

    Deterministic by construction: every action owns an LCG stream
    seeded from its [seed] and its surface, and {!fire} steps {e every}
    armed action of the queried surface exactly once per call —
    independent of windows, of other surfaces and of whether an earlier
    action in the list already fired. Same plan, same opportunity
    sequence, same decisions.

    The [Live_in_corrupt] and [Commit_corrupt] streams are pinned bit
    for bit (seed-mixing constant, 48-bit LCG, threshold) by the
    commit-corruption golden trace and the fuzz grid's soft-error
    point. *)

type t

val make : Plan.t -> t

val fire : t -> Plan.surface -> cycle:int -> Plan.action option
(** One opportunity on [surface] at absolute time [cycle]: step every
    armed action of that surface once and return the first whose coin
    landed inside its window, if any. *)
