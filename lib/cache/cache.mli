(** Set-associative cache model with LRU replacement.

    Purely a timing/locality model: it tracks which lines are resident,
    not their contents (data always comes from the functional simulation).
    Used by the per-core timing models — each master/slave core owns a
    private L1 backed by the shared L2 ({!Hierarchy}). *)

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

  val invalidate_l1 : t -> unit
  (** Squash: drop the private L1; the shared L2 holds architected data
      and survives. *)

  val l1_stats : t -> stats
  (** The private L1's live counters (trace/metrics). *)

  val l2_stats : t -> stats
  (** The (possibly shared) L2's live counters. *)
end
