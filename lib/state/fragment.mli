(** Partial machine states ("state fragments").

    A fragment is a finite map from {!Cell.t} to values. Fragments are the
    paper's machine states [S ∈ 𝒮]: live-in sets, live-out sets, cumulative
    writes [Δ], and the states of the abstract formal models are all
    fragments. They "need not hold members for all ISA-visible cells"
    (paper §4.1).

    The three operations the paper's proofs rest on are implemented here
    exactly as axiomatized in Definition 8:
    - {!superimpose} ([S₀ ← S₁]): overwrite [S₀] with [S₁];
    - {!consistent} ([S₁ ⊑ S₂]): every cell of [S₁] is in [S₂] with the
      same value;
    - these satisfy associativity, containment and idempotency — checked
      by property tests in [test/test_state.ml]. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val singleton : Cell.t -> int -> t
val add : Cell.t -> int -> t -> t
val remove : Cell.t -> t -> t
val find_opt : Cell.t -> t -> int option
val mem : Cell.t -> t -> bool

val min_binding_opt : t -> (Cell.t * int) option
val max_binding_opt : t -> (Cell.t * int) option
(** The lowest and the highest binding in cell order: on a fragment of
    memory cells, those of the lowest and highest address. *)

val of_list : (Cell.t * int) list -> t
val to_list : t -> (Cell.t * int) list
(** Bindings in increasing cell order. *)

val domain : t -> Cell.Set.t
val fold : (Cell.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Cell.t -> int -> unit) -> t -> unit
(** In increasing cell order. *)

val filter : (Cell.t -> int -> bool) -> t -> t

val superimpose : t -> t -> t
(** [superimpose s0 s1] is [s0 ← s1]: the state resulting when [s0] is
    overwritten by [s1]. Cells of [s0] not covered by [s1] appear
    unchanged. Associative; [empty] is its unit. *)

val consistent : t -> t -> bool
(** [consistent s1 s2] is [s1 ⊑ s2]: all cells of [s1] are available in
    [s2] and both agree on their values. A partial order. *)

val pc : t -> int option
(** Value of the PC cell, if bound. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val show : t -> string
