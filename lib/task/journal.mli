(** Flat mutable cell→value buffers for the task fast path.

    A journal is the hot-loop counterpart of {!Mssp_state.Fragment.t}: a
    slave instruction resolves registers and the PC by direct array/flag
    access and memory by one probe of an int-keyed index, instead of
    paying a balanced-tree lookup per cell. Tasks keep their recorded
    reads and buffered writes in journals while running; verification
    and commit walk them as ints, and they convert to fragments only
    for tests, diagnostics and fault injection.

    Memory bindings sit in a {!Mssp_state.Mem_log}: an insertion-order
    log (an address array and a value array), indexed by an
    open-addressed table over one [int] array. Binding a cell allocates
    nothing until the log is full, when the log doubles and the table is
    rebuilt at twice its size (load at most one half).

    {b Journals are recycled.} {!clear} empties a journal in
    O(bindings) and keeps its capacity, so the machine hands each
    task's pair back to a free list after commit or squash and the next
    task records into tables that have already grown to the body's
    footprint: in the steady state a task body, its verification and
    its commit allocate nothing. A cleared journal behaves exactly like
    a fresh one.

    {b Iteration order is a contract.} {!iter}/{!for_all} walk [Pc],
    the registers in index order, then the memory log in first-binding
    order. For a reads journal that log {e is} the first-read stream:
    verification, squash attribution and predictor training replay the
    task's first-reads in serial first-read order, no matter the
    table's capacity or how often the journal was recycled — which is
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
(** [mem_at j i] is the value at log position [i] (one {!mem_index}
    returned, or below {!mem_count}); meaningful only for
    [0 <= i < mem_count j]. *)

val mem_count : t -> int
(** Number of memory bindings: the log's length. *)

val mem_addr : t -> int -> int
(** [mem_addr j i] is the address at log position [i], for
    [0 <= i < mem_count j]: with {!mem_at}, the allocation-free walk of
    the memory log in first-binding order. *)

val find_mem : t -> int -> int option

val set_mem : t -> int -> int -> unit
(** Bind or rebind a memory cell; a fresh address is appended to the
    insertion-order log. *)

val clear : t -> unit
(** Unbind everything, keeping the capacity: afterwards the journal
    behaves exactly like [create ()] (bindings, positions, order), with
    its grown tables. O(bindings); allocates nothing. *)

val is_empty : t -> bool
(** No cell bound: a fresh or cleared journal. *)

val occupied_slots : t -> int
(** Non-empty slots in the memory index: [mem_count j] always, so 0
    after {!clear} (for the reuse tests). *)

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
    their live-in this way ({!Task.make} reads a
    {!Mssp_state.Live_in.t} by reference); the live-in lookup tests use
    it as the oracle. *)
