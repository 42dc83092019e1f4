(** Live-in value prediction.

    Three composable predictors — last-value, stride, finite-context —
    trained online from the actual cell values the verification unit
    observes, optionally warmed from the profiler's per-cell observation
    streams. A deterministic tournament selects per cell by saturating
    confidence counters with seeded tie-breaking, so a run's predictions
    are bit-identical on every host.

    Predictions are consulted at checkpoint construction ({!refine}):
    a confident prediction overrides the master's live-in value for that
    cell. Correctness never depends on the override — a wrong value is a
    live-in mismatch the machine squashes and absorbs. *)

type mode =
  | Off
  | Last_value
  | Stride
  | Context
  | Tournament
  | Broken
      (** TEST ONLY: returns the first value ever observed per cell, with
          inflated (unconditional) confidence — mutation-testing material
          for the absorbability oracle. Never in {!modes}. *)

val modes : mode list
(** The honest modes, differential-suite order: off, last-value, stride,
    context, tournament. *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option
val pp_mode : Format.formatter -> mode -> unit

type t

val create : ?seed:int -> mode -> t
(** A fresh predictor. [seed] only feeds the tournament tie-break hash. *)

val mode : t -> mode

val observe : t -> Mssp_state.Cell.t -> int -> unit
(** [observe t cell actual] scores every component's standing prediction
    against [actual] (hit +1 / miss -2, saturating), then trains all of
    them on it. Call in a deterministic order. *)

val observe_master : t -> Mssp_state.Cell.t -> supplied:int -> actual:int -> unit
(** Score the MASTER's checkpoint value for a cell against the verified
    actual — the incumbent entry of the tournament. Master confidence
    starts saturated (the distilled master is trusted by default) and
    follows the same +1/-2 rule; {!refine} only overrides a cell once a
    component's confidence strictly exceeds it. *)

val master_confidence : t -> Mssp_state.Cell.t -> int
(** Current master confidence for a cell ([conf_max] when untracked). *)

val predict : t -> Mssp_state.Cell.t -> int option
(** The mode's prediction for a cell, [None] below the confidence
    threshold (or with no training). [Off] never predicts. *)

val refine : t -> Mssp_state.Live_in.t -> Mssp_state.Live_in.t
(** Override bindings in a checkpoint live-in where a component is both
    confident and STRICTLY more confident than the master for that cell.
    The cell set is preserved; [Pc] is never touched. Does not train. *)

val conf_threshold : int
(** Minimum confidence at which a component may override a live-in. *)

val history_window : int
(** Context-predictor history length. *)

val components : t -> Mssp_state.Cell.t -> (string * int option * int) list
(** Per component: name, current prediction, confidence — introspection
    for tests and tooling. *)

val chosen : t -> Mssp_state.Cell.t -> string option
(** The tournament's current pick for a cell, if any component clears the
    threshold. *)

val confidence : t -> Mssp_state.Cell.t -> string -> int
(** Confidence of a named component for a cell (0 if untrained). *)

val warmup_of_profile : Mssp_profile.Profile.t -> (int * int list) list
(** The profiler's per-address observation streams in ascending address
    order — the deterministic warm-up a config can carry. *)

val warm : t -> (int * int list) list -> unit
(** Replay observation streams into the predictor ([Mem] cells). *)
