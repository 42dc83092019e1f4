(** Host parallelism across whole runs, built on stdlib [Domain] and
    [Atomic] only. A simulation itself always runs on one domain; what
    fans out is independent simulations (bench experiment points, fuzz
    campaign shards). *)

val map_runs : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_runs ~jobs f items] computes [List.map f items] on up to
    [min jobs (List.length items)] helper domains (at most 64) plus the
    calling domain, which works too. Results are returned in item
    order; with [jobs <= 1] (or fewer than two items) it {e is}
    [List.map f items]. Every helper is joined before the call returns;
    if any [f] raised, the exception of the lowest-index item is then
    re-raised with its backtrace. [f] must not print or touch shared
    mutable state — collect output and fold it in after the call
    returns. Nested calls multiply the helper count: keep the product
    of their [jobs] well under OCaml's 128-domain cap. *)
