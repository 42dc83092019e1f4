(** A flat, recyclable map from addresses to values, in first-binding
    order.

    Bindings sit in an insertion-order log (an address array and a value
    array), indexed by an open-addressed table over one [int] array: a
    slot holds a log position + 1, 0 marks it empty, and a probe walks
    linearly from the address's Fibonacci home. Binding an address
    allocates nothing until the log is full, when the log doubles and
    the table is rebuilt at twice its size (load at most one half).
    Lookups are int compares: no option result, no boxed key, no
    allocation. Any [int] is a valid address, negative ones included.

    {!clear} empties a log in O(bindings) and keeps its capacity, so an
    owner that recycles its logs stops allocating once they have grown
    to the footprint it needs. A cleared log behaves exactly like a
    fresh one.

    The slaves' journals ([Mssp_task.Journal]) keep their memory cells
    in one; the master's write layers ({!Dirty}) are made of them. *)

type t

val create : ?size:int -> unit -> t
(** Empty log; [size] pre-sizes it (capacity only: the log order never
    depends on it). *)

val index : t -> int -> int
(** [index l a] is the log position of [a]'s binding, or [-1] when [a]
    is unbound; an address outside the bounds of every address bound
    since the last {!clear} costs two compares. Allocation-free. *)

val get : t -> int -> int
(** [get l i] is the value at log position [i]; meaningful only for
    [0 <= i < count l]. *)

val set_at : t -> int -> int -> unit
(** [set_at l i v] rebinds log position [i] to [v], for
    [0 <= i < count l]. *)

val count : t -> int
(** Number of bindings: the log's length. *)

val addr : t -> int -> int
(** [addr l i] is the address at log position [i], for
    [0 <= i < count l]: with {!get}, the allocation-free walk of the log
    in first-binding order. *)

val add : t -> int -> int -> unit
(** [add l a v] appends the binding of [a], which must be unbound. *)

val set : t -> int -> int -> unit
(** Bind or rebind [a]; a fresh address is appended to the log. *)

val clear : t -> unit
(** Unbind everything, keeping the capacity. O(bindings); allocates
    nothing. *)

val occupied_slots : t -> int
(** Non-empty slots in the index: [count l] always, so 0 after
    {!clear} (for the reuse tests). *)
