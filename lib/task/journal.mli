(** Flat mutable cell→value buffers for the task fast path.

    A journal is the hot-loop counterpart of {!Mssp_state.Fragment.t}: a
    slave instruction resolves registers and the PC by direct array/flag
    access and memory by one hashtable probe, instead of paying a
    balanced-tree lookup per cell. Tasks keep their live-in prediction,
    recorded reads and buffered writes in journals while running, and
    convert to fragments only at the commit boundary (or for tests and
    diagnostics).

    {b Iteration order is a contract.} Memory bindings carry an
    insertion-order log alongside the hashtable, and {!iter}/{!for_all}
    walk it in first-binding order (after [Pc] and the registers in
    index order). For a reads journal that log {e is} the staged
    first-read stream: verification, squash attribution and predictor
    training replay the task's first-reads in serial first-read order,
    no matter whether the per-instruction interpreter or the block
    engine staged them, and no matter the table's capacity — which is
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
val find_mem : t -> int -> int option

val set_mem : t -> int -> int -> unit
(** Bind or rebind a memory cell; a fresh address is appended to the
    insertion-order log. *)

(* the batched read-set interface — the slave block journal's staging
   path *)

val record_mem : t -> int -> int -> unit
(** [record_mem j a v] stages a {e fresh} first-read binding: appends
    [a] to the log and adds it to the table without the rebind probe
    {!set_mem} pays. The caller guarantees [find_mem j a = None] (block
    dispatch has just probed); violating that duplicates the binding. *)

val mem_avoids : t -> lo:int -> hi:int -> bool
(** [mem_avoids j ~lo ~hi] is [true] when no memory binding lies in
    [\[lo, hi\]] (inclusive). [O(1)] and conservative — computed from
    the journal's running address bounds, so [false] only means "maybe
    bound inside". The block executor uses it to decide whether a code
    span could be shadowed by a task's write buffer or live-in set. *)

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
