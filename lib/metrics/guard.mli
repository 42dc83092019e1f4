(** The verdict of an A/B performance guard, kept free of clocks so it
    can be fed synthetic timings.

    A guard times a baseline [a] (twice, to measure clock noise) and a
    candidate [b], forms a ratio and holds it to a bound. Whether a
    broken bound fails the run depends on the gate: a wall-clock ratio
    is only decidable on a host with enough cores and a clock that
    agrees with itself. *)

type bound =
  | At_most of float  (** overhead: [b_s / a_s <= x] *)
  | At_least of float  (** speedup: [a_s / b_s >= x] *)

type gate =
  | Always
  | Min_cores of int
  | Quiet of { cores : int; noise : float }
      (** at least [cores] cores and measured noise at most [noise] *)

type verdict = Pass | Fail | Reported  (** reported, not enforced *)

val ratio : bound -> a:float -> b:float -> float
(** The ratio the bound reads: [b /. a] for [At_most], [a /. b] for
    [At_least]. *)

val holds : bound -> float -> bool

val noise : float -> float -> float
(** Relative disagreement of two timings of the same baseline:
    [|a1 - a2| / min a1 a2]. *)

val verdict : bound -> gate -> cores:int -> noise:float -> float -> verdict
(** [verdict bound gate ~cores ~noise ratio]: [Reported] when the gate
    does not hold on this host, else whether the bound holds. *)

val describe : bound -> string
(** ["b/a <= 1.02"] or ["a/b >= 2.00"]. *)
