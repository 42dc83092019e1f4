(** A checkpoint's live-in: the predicted values the master ships with
    each task.

    At every task boundary the paper's master "checkpoints its
    speculative state and ships (start-PC, predicted live-in values)".
    Here that is a flat register file — the PC and the 31 registers in
    one [int array], with a mask of the slots it binds — over a memory
    part. The memory part of a fork's checkpoint is a view of the
    master's write layers ({!Dirty}): its writes since its last seed as
    they stood at that fork, read in place. Building one per fork seals
    a layer and copies one 32-word array; nothing grows with the number
    of cells the master has written.

    A small {!Fragment} overlay sits over the view: cells bound by
    {!add} (fault plans), and the whole memory part
    of a live-in with no view ({!of_fragment}, {!freeze}).

    A view is valid while its checkpoint is live; the machine folds
    layers only under older checkpoints, so every live view stays
    exact. Anything that keeps a live-in past its checkpoint (a trace
    sink) keeps {!freeze}'s fragment form.

    As a partial state a live-in is the fragment {!to_fragment}: the same
    cells with the same values. {!fold} and the trace serializers walk
    them in {!Cell} order — the PC, the registers by index, then memory
    by ascending address. *)

type t = private {
  regs : int array;
      (** 32 values: slot 0 is the PC, slot [i] register [i]. A
          slot's value is its binding when the slot is bound, and
          meaningless otherwise. Never written once built *)
  bound : int;  (** bit [i] set iff slot [i] is bound *)
  dirty : Dirty.t;  (** the master's write layers; {!Dirty.none} for no view *)
  level : int;  (** the view's seal in [dirty] *)
  cells : int;  (** memory cells the view binds *)
  over : Fragment.t;  (** memory bindings over the view; no PC or register *)
  over_lo : int;
  over_hi : int;
      (** the lowest and highest address [over] binds ([max_int] and
          [min_int] when it binds none): a lookup outside them skips the
          tree *)
  mem_cells : int;  (** memory cells bound, view and overlay, carried so
                        counting is O(1) *)
}

val checkpoint : pc:int -> Full.t -> Dirty.t -> t
(** [checkpoint ~pc s d] seals [d]'s open layer and binds the PC to
    [pc], every register to its value in [s], and the memory cells of
    the sealed view: what a master in state [s], having written [d],
    ships at a fork. O(registers). *)

val of_pc : int -> t
(** Binds the PC only: the checkpoint of a master that predicts no
    values. *)

val of_fragment : Fragment.t -> t
val to_fragment : t -> Fragment.t
(** The two are inverse: [to_fragment (of_fragment f)] equals [f]. *)

val freeze : t -> t
(** The same bindings with no view: the memory part as one persistent
    fragment, valid after the checkpoint dies. What the machine emits to
    a tracer. *)

val cardinal : t -> int
(** Bindings, PC included, in O(1). *)

val find_opt : Cell.t -> t -> int option

val find_mem : int -> t -> default:int -> int
(** [find_mem a li ~default] is [a]'s value in [li], or [default] when
    [li] does not bind [a]. Allocation-free on the view; an address
    inside the overlay's bounds pays one {!Fragment} lookup. *)

val add : Cell.t -> int -> t -> t
(** [add c v li] is [li] with [c] bound to [v]; [li] is unchanged. The PC
    or a register copies the register file; a memory cell is one
    {!Fragment.add} into the overlay. The view, and so its [level], stay
    [li]'s. *)

val fold : (Cell.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** In {!Cell} order, as {!Fragment.fold} walks {!to_fragment}. *)

val equal : t -> t -> bool
(** Same bindings; values of unbound slots are ignored. *)
