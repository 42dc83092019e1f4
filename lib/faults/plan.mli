(** The fault-plan DSL: a deterministic, seeded schedule of typed fault
    actions against the speculative domain.

    A {e plan} is a list of {!action}s. Each action targets exactly one
    {!surface} with a per-opportunity probability [p], an optional
    absolute-cycle window, and its own PRNG stream (derived from [seed]
    and the surface), so adding or removing one action never perturbs
    another's decisions — the property that makes plans shrinkable.

    The machine consults the plan at fixed {e opportunities} (one per
    spawn for the live-in surfaces, one per verified commit for
    [Commit_corrupt]); every consultation steps the action's PRNG
    whether or not the window admits the cycle, so a window only masks
    outcomes — it never reshapes the random stream.

    {b The absorbability rule} (HACKING.md "Fault surfaces and the
    absorbability rule"): [Live_in_corrupt] and [Mem_bit_flip] corrupt
    {e values} in the speculative domain only, so by the task-safety
    theorem the machine must absorb any plan over them — final
    architected state identical to SEQ, only stats/cycles move.
    [Commit_corrupt] breaks the (non-speculative) verify/commit unit
    itself and exists solely so mutation smoke tests can prove the
    differential oracle catches a non-absorbable plan. {!absorbable}
    encodes exactly this predicate. *)

type surface =
  | Live_in_corrupt
      (** corrupt one predicted live-in binding of a fresh checkpoint
          (whole-word xor) *)
  | Mem_bit_flip
      (** flip one bit of one predicted {e memory} live-in binding: a
          soft error in the speculative domain's storage *)
  | Commit_corrupt
      (** NOT absorbable: corrupt one committed memory live-out after a
          verified commit (a broken commit unit on purpose). Only for
          mutation smoke tests. *)

val all_surfaces : surface list
(** Every surface, [Commit_corrupt] included, in declaration order. *)

val absorbable_surfaces : surface list
(** The surfaces a correct machine must absorb. *)

val surface_name : surface -> string
(** Stable snake_case name (used in trace events and reports). *)

type action = private {
  surface : surface;
  seed : int;  (** this action's own PRNG stream *)
  p : float;  (** per-opportunity firing probability, clamped to [0,1] *)
  window : (int * int) option;
      (** absolute-cycle window [lo, hi): outside it the action never
          fires (its PRNG still steps — see the module preamble) *)
  magnitude : int;
      (** surface-specific intensity: bit index (mod 62) for
          [Mem_bit_flip]; ignored elsewhere. 0 picks a surface
          default. *)
  quiet : bool;
      (** suppress the [Fault] trace event when this action fires —
          only for {!quiet} plans, whose event streams predate the
          fault subsystem and are pinned by golden traces *)
}

val action :
  ?window:int * int -> ?magnitude:int -> surface -> seed:int -> p:float -> action
(** Smart constructor; clamps [p] into [0,1], never sets [quiet]. *)

type t = { actions : action list }

val make : action list -> t

val quiet : surface -> seed:int -> p:float -> t
(** A one-action plan whose action is [quiet]: it fires without a
    [Fault] trace event. [quiet Live_in_corrupt] is the soft-error point
    of the fuzz grids; [quiet Commit_corrupt] is the deliberately broken
    commit unit of the mutation smoke tests and of the
    commit-corruption golden trace, whose event stream predates the
    [Fault] event. *)

val absorbable : t -> bool
(** No [Commit_corrupt] action. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** One-line rendering for logs and repro comments. *)
