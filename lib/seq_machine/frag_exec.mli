(** Pure sequential execution over state fragments.

    This is the executable form of the paper's §6 machinery: [next] and
    [seq] restricted to partial states, [δ]/[Δ] (cumulative writes), and
    the {e completeness} predicates. The formal models (Lemma 3,
    Theorem 2) are built on it.

    A fragment is {e complete} for one step when it holds the PC, the cell
    the PC points at, and every cell the decoded instruction reads
    (Definition 9's informal reading, made exact by the executor itself:
    completeness is "no read comes back unavailable"). *)

type stop =
  | Halted
  | Faulted of Exec.fault
  | Incomplete of Mssp_state.Cell.t
      (** execution reached a state lacking this cell *)

val pp_stop : Format.formatter -> stop -> unit

val next : Mssp_state.Fragment.t -> (Mssp_state.Fragment.t, stop) result
(** One instruction ahead; [S ← δ(S)]. Pure. *)

val seq : Mssp_state.Fragment.t -> int -> (Mssp_state.Fragment.t, stop) result
(** [seq s n]: [n] instructions ahead. [Error (Incomplete c)] as soon as a
    step needs an unavailable cell. Halting early is not an error
    (matching {!Machine.seq}: [next] fixes halted states). *)

val delta : Mssp_state.Fragment.t -> (Mssp_state.Fragment.t, stop) result
(** The paper's [δ(S)]: writes of the next instruction, not applied. *)

val cumulative :
  Mssp_state.Fragment.t -> int -> (Mssp_state.Fragment.t, stop) result
(** The paper's [Δ(S, n)] (Definition 10): [Δ(S,0) = ∅];
    [Δ(S,n) = Δ(S,n-1) ← δ(seq(S,n-1))]. Stops accumulating at a halt
    (further [δ] are empty). *)

val reads1 : Mssp_state.Fragment.t -> (Mssp_state.Cell.Set.t, stop) result
(** Cells the next instruction reads, including PC and the fetch cell —
    the completeness requirement for one step. *)

val complete1 : Mssp_state.Fragment.t -> bool
(** Complete for one instruction: the next step needs no unavailable cell.
    Halted and faulted states are complete (their [next] reads nothing
    beyond fetch). *)

val n_complete : Mssp_state.Fragment.t -> int -> bool
(** The paper's [n]-completeness: complete now, and [next S] is
    [(n-1)]-complete. *)
