(** A checkpoint's live-in: the predicted values the master ships with
    each task.

    At every task boundary the paper's master "checkpoints its
    speculative state and ships (start-PC, predicted live-in values)".
    Here that is a flat register file — the PC and the 31 registers in
    one [int array], with a mask of the slots it binds — over the
    master's dirty memory as a {!Fragment.t} held by reference. Building
    one per fork is one 32-word array and two descents of the dirty set
    for its address bounds; the memory part is shared with the master,
    never copied.

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
  mem : Fragment.t;  (** the memory bindings; binds no PC or register *)
  mem_cells : int;  (** [Fragment.cardinal mem], carried so counting is O(1) *)
  mem_lo : int;
  mem_hi : int;
      (** the lowest and highest address [mem] binds ([max_int] and
          [min_int] when it binds none): most memory reads a task makes
          outside the live-in fall outside them and skip the tree *)
}

val of_state : pc:int -> Full.t -> mem:Fragment.t -> mem_cells:int -> t
(** [of_state ~pc s ~mem ~mem_cells] binds the PC to [pc], every register
    to its value in [s], and the memory cells of [mem], which must bind
    memory cells only, [mem_cells] of them. O(registers + log |mem|):
    [mem] is held by reference. *)

val of_pc : int -> t
(** Binds the PC only: the checkpoint of a master that predicts no
    values. *)

val of_fragment : Fragment.t -> t
val to_fragment : t -> Fragment.t
(** The two are inverse: [to_fragment (of_fragment f)] equals [f]. *)

val cardinal : t -> int
(** Bindings, PC included, in O(1). *)

val find_opt : Cell.t -> t -> int option

val find_mem : int -> t -> int option
(** [find_mem a li] is [find_opt (Cell.mem a) li]; an address outside
    [mem_lo, mem_hi] costs two comparisons. *)

val add : Cell.t -> int -> t -> t
(** [add c v li] is [li] with [c] bound to [v]; [li] is unchanged. The PC
    or a register copies the register file; a memory cell is one
    {!Fragment.add}. *)

val fold : (Cell.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** In {!Cell} order, as {!Fragment.fold} walks {!to_fragment}. *)

val equal : t -> t -> bool
(** Same bindings; values of unbound slots are ignored. *)
