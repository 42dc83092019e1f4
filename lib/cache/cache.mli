(** Set-associative cache model with LRU replacement.

    Purely a timing/locality model: it tracks which lines are resident,
    not their contents (data always comes from the functional simulation).
    Used by the per-core timing models — each master/slave core owns a
    private L1 backed by the shared L2 ({!Hierarchy}).

    {b Storage by footprint.} The sets are grouped into chunks of
    consecutive sets, each chunk one [int array] of at most 256 words
    (a minor-heap block; a single set of more than 128 ways makes a
    larger one) holding each way's tag next to its last-use tick. A
    chunk is built the first time one of its sets is touched, so
    {!make} costs O(chunks) words — the default 1,024-set, 8-way L2 is
    64 chunk slots, not two 8,192-slot arrays — and {!invalidate_all}
    costs O(chunks) plus a refill of the chunks built so far.

    {b The hit memo.} Each cache remembers the last two distinct lines
    it was asked for and where their ticks live. An access to either
    skips the set/tag arithmetic and the way search; it still ticks,
    counts and refreshes the line's LRU tick, so no hit, miss, LRU
    order or counter differs from the plain search. The memo is exact
    for [ways >= 2]: the older memo line was touched just before the
    newest one, so it holds the newest tick left in its set and a fill
    for the newest line cannot pick it as the LRU victim; a memo hit
    fills nothing. One L2 shared by several hierarchies is one cache
    object, so every core's accesses pass through the same memo. With
    [ways = 1] the fill for a new line may evict the previous one, so
    only the newest line is kept. {!invalidate_all} clears the memo.
    A memo entry's validity is carried by its slot, never by a sentinel
    line: with one-word lines every [int] is a line. For the same
    reason a way's validity is carried by its last-use tick (0 until
    first filled and after {!invalidate_all}), never by a sentinel
    tag. *)

type config = {
  sets : int;  (** number of sets; power of two *)
  ways : int;  (** associativity *)
  line_words : int;  (** words per line; power of two *)
}

val config : ?sets:int -> ?ways:int -> ?line_words:int -> unit -> config
(** Defaults: 64 sets, 4 ways, 8 words/line (a 16 KiB-equivalent L1). *)

type stats = { mutable accesses : int; mutable misses : int }

type t

val make : config -> t
val access : t -> int -> bool
(** [access c addr] touches the line containing [addr]; [true] on hit.
    On a miss the line is filled (LRU victim evicted). *)

val repeat_hits : t -> int -> unit
(** [repeat_hits c n] is [n] more accesses to the line [c] was last
    asked for, in closed form: the tick and the access count advance by
    [n] and the line's last-use tick becomes the new tick. This is
    exactly what [n] calls of {!access} on that line do. The line is the
    memo's newest, so each of them is a memo hit that fills nothing and
    leaves both memo lines where they are, for any associativity
    ([ways = 1] included). Raises [Invalid_argument] if [n < 0] or if
    [c] has no access since it was made or last invalidated. *)

val invalidate_all : t -> unit
(** Drop every resident line — squash recovery discards speculative
    cache state. *)

val stats : t -> stats
val miss_rate : t -> float
val reset_stats : t -> unit

(** A two-level hierarchy with fixed latencies: L1 hit, L2 hit, memory.
    The L2 is typically shared (one [Hierarchy.t] per core sharing one
    {!t} L2 via [make_shared]). *)
module Hierarchy : sig
  type latencies = { l1_hit : int; l2_hit : int; memory : int }

  val latencies : ?l1_hit:int -> ?l2_hit:int -> ?memory:int -> unit -> latencies
  (** Defaults: 1 / 12 / 100 cycles. *)

  type nonrec t

  val make : ?l1:config -> ?l2:config -> ?lat:latencies -> unit -> t
  (** Private L1 and L2. L2 default: 1024 sets, 8 ways, 8 words/line. *)

  val make_shared : ?l1:config -> lat:latencies -> l2:t -> unit -> t
  (** Private L1 in front of another hierarchy's L2 (shared). *)

  val access : t -> int -> int
  (** Cycles to satisfy an access at this level of the hierarchy. *)

  val repeat_hits : t -> int -> int
  (** [repeat_hits h n] is [n] more accesses to the address [h] was last
      asked for: the last access left its line in the L1, so each is an
      L1 hit and the L2 sees none of them. It is {!Cache.repeat_hits} on
      the L1 and returns their cycles, [n × l1_hit]. A master that jumps
      to itself fetches one address and nothing else, so its idle loop
      is one call. Raises as {!Cache.repeat_hits} does. *)

  val invalidate_l1 : t -> unit
  (** Squash: drop the private L1; the shared L2 holds architected data
      and survives. *)

  val l1_stats : t -> stats
  (** The private L1's live counters (trace/metrics). *)

  val l2_stats : t -> stats
  (** The (possibly shared) L2's live counters. *)
end
