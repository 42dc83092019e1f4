(** The master's memory writes since its last seed, as the checkpoints
    it ships see them.

    At each task boundary the paper's master "checkpoints its
    speculative state and ships (start-PC, predicted live-in values)".
    The values it ships for memory are its writes since it was last
    seeded from architected state, as they stood at that fork, while
    it keeps running and writing. Here they are flat write layers over
    one flat base table, all {!Mem_log}s:

    - {b Layers.} There is one open-addressed layer per fork interval.
      A store overwrites in place in the open (top) layer; {!seal}, at a
      fork, closes it and opens a recycled one, in O(1).
    - {b Views.} The checkpoint of a fork sees the layers sealed up to
      and including its own, newest first, then the base: the master's
      latest write before that fork, for every cell it had written
      ({!find}, allocation-free). Its cell count is the base's count at
      its seal, so counting is O(1) and exact.
    - {b Folding.} {!fold} merges the oldest sealed layers but the
      newest into the base once no live checkpoint is older than the
      fork that sealed them, and clears them for reuse. Every live view
      stays exact; a view older than a folded layer is stale, and
      reading it raises.
    - {b Reset.} {!reset} (a reseed) clears everything and makes every
      view stale.

    A traced fork ships its own layer ({!layer}): superimposed oldest
    first, the layers sealed since the reset rebuild each view. *)

type t

val create : unit -> t

val none : t
(** Never written: what a live-in with no master view refers to. *)

val store : t -> int -> int -> unit
(** [store d a v]: the master wrote [v] at [a]. Allocation-free once the
    layer and the base have grown to the footprint. *)

val seal : t -> int
(** Close the open layer at a fork and open the next; returns the sealed
    layer's level, which names the fork's view. *)

val cells : t -> int
(** Addresses written since the reset: a view sealed just now sees
    exactly this many. *)

val find : t -> level:int -> cells:int -> int -> default:int -> int
(** [find d ~level ~cells a ~default] is the value of [a] in the view
    sealed at [level] with [cells] cells, or [default] when the view
    does not bind [a]. One probe of the base when it does not; no
    allocation. @raise Invalid_argument on a stale view. *)

val binds : t -> level:int -> cells:int -> int -> bool
(** Whether that view binds [a]. *)

val frozen : t -> level:int -> cells:int -> Fragment.t
(** The view's memory as a fragment, rebuilt: O(cells). *)

val layer : t -> level:int -> Fragment.t
(** The writes of the fork interval sealed at [level], last values.
    @raise Invalid_argument once the layer is folded or reset. *)

val fold : t -> upto:int -> unit
(** Fold every sealed layer at or below level [upto] into the base and
    recycle it: [upto] is the level of the oldest live checkpoint
    ([max_int] when none is live). The newest sealed layer stays. *)

val reset : t -> unit
(** Forget every write: the master was reseeded. O(bindings). *)
