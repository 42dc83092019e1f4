(** Flat mutable cell→value buffers for the task fast path.

    A journal is the hot-loop counterpart of {!Mssp_state.Fragment.t}: a
    slave instruction resolves registers and the PC by direct array/flag
    access and memory by one probe of an int-keyed index, instead of
    paying a balanced-tree lookup per cell. Tasks keep their live-in
    prediction, recorded reads and buffered writes in journals while
    running, and convert to fragments only at the commit boundary (or
    for tests and diagnostics).

    {b Iteration order is a contract.} Memory bindings carry an
    insertion-order log, and {!iter}/{!for_all} walk it in first-binding
    order (after [Pc] and the registers in index order). For a reads
    journal that log {e is} the first-read stream: verification, squash
    attribution and predictor training replay the task's first-reads in
    serial first-read order, no matter the index's capacity — which is
    what makes [mem_size] invisible. *)

type t

val create : ?mem_size:int -> unit -> t
(** Empty journal; [mem_size] pre-sizes the memory table (capacity only
    — the iteration order above never depends on it). *)

(* fine-grained accessors — the executor's per-cell fast path *)

val has_pc : t -> bool
val pc : t -> int option

val pc_value : t -> int
(** Unchecked PC read; meaningful only when [has_pc j]. *)

val set_pc : t -> int -> unit

val has_reg : t -> int -> bool
(** [has_reg j i]: register index [i] (as {!Mssp_isa.Reg.to_int}) bound? *)

val reg : t -> int -> int
(** Unchecked read of a bound register; meaningful only when
    [has_reg j i]. *)

val set_reg : t -> int -> int -> unit

val mem_index : t -> int -> int
(** [mem_index j a] is the position of address [a]'s binding, or [-1]
    when [a] is unbound. Allocation-free: the slave step's probe. *)

val mem_at : t -> int -> int
(** [mem_at j i] is the value at a position {!mem_index} returned;
    meaningful only for [i >= 0]. *)

val find_mem : t -> int -> int option

val set_mem : t -> int -> int -> unit
(** Bind or rebind a memory cell; a fresh address is appended to the
    insertion-order log. *)

(* generic cell interface *)

val set : t -> Mssp_state.Cell.t -> int -> unit
val find : t -> Mssp_state.Cell.t -> int option
val mem : t -> Mssp_state.Cell.t -> bool
val cardinal : t -> int

val iter : (Mssp_state.Cell.t -> int -> unit) -> t -> unit
(** [Pc] first, registers in index order, then memory in first-binding
    order — the serial first-read replay order for a reads journal. *)

val for_all : (Mssp_state.Cell.t -> int -> bool) -> t -> bool
(** Same order as {!iter}. *)

val to_fragment : t -> Mssp_state.Fragment.t

val of_fragment : Mssp_state.Fragment.t -> t
(** The whole fragment flattened into a journal. Tasks no longer hold
    their live-in this way ({!Task.make} reads memory live-ins from the
    fragment by reference); the live-in lookup tests use it as the
    oracle. *)
