(** The superblock execution engine — the interpreter's pre-decoded fast
    path.

    A {e superblock} is a straight-line region of code: it extends
    {e through} conditional branches (their fall-through continues the
    region) and ends at a transfer that cannot fall through
    ([Jmp]/[Jal]/[Jr]/[Jalr]/[Halt]), an undecodable word, or a length
    cap. The engine decodes such a region once, from the words currently
    in memory, into a flat instruction array, and executes whole blocks
    per dispatch: the COW page lookup, per-word decode and PC write are
    hoisted out of the per-instruction loop.

    This is an {e optimization over}, not a departure from, the single
    instruction semantics of {!Exec} (paper §4.1): block execution is
    bit-identical to repeated {!Exec.step} — same final state, same
    instruction/load/store counters (each instruction still charges its
    fetch, the [Halt] fixed-point probe included), same stop ordering
    (fuel before the instruction, [stop_at] after it, [stop_at] winning
    at the boundary). The equivalence is enforced by differential tests
    and the SBLKG bench guard rather than assumed.

    {b Self-modifying code.} Fetch goes through memory, so pre-decoded
    blocks can go stale. Every store executed by the engine — and every
    external store the owner reports via {!note_store} — probes a
    per-page table; a store into a page holding cached blocks drops all
    blocks on that page, and if the engine is inside a block at that
    moment it leaves the block after the store and re-dispatches from
    fresh memory. Invalidation is page-granular (pages mirror
    [Full]'s geometry), conservative and cheap: one array read per store
    on the miss path. *)

type block = { b_start : int; b_instrs : Mssp_isa.Instr.t array }

type counters = {
  mutable c_instructions : int;
  mutable c_loads : int;
  mutable c_stores : int;
}
(** Traffic charged by a {!run} call, with single-step parity: loads
    count every memory read including instruction fetches, stores every
    memory write. The caller folds these into its own accounting. *)

val fresh_counters : unit -> counters

type stop =
  | Fuel  (** the per-call instruction budget ran out *)
  | Stop_at  (** the [stop_at] predicate matched the next PC *)
  | Halted
  | Fault of Exec.fault

type t

val create : ?images:Mssp_isa.Program.t list -> unit -> t
(** Fresh engine with an empty block cache. [images] (default none)
    accelerate decode via {!Mssp_isa.Program.decode_all} and give warmed
    block lookups an O(1) direct-mapped table over the images' address
    span; blocks outside any image are still discovered and cached at
    run time. The engine reads code through the state passed to {!run},
    never through the images — they are a decode memo, validated
    word-by-word, so they cannot go stale. *)

val warm : t -> Mssp_state.Full.t -> unit
(** Pre-build blocks at every static straight-line-region entry of the
    engine's images (per {!Mssp_cfg.Cfg.superblock_starts}), reading the
    words currently in [state]. Idempotent: only the first call does
    work. Mid-region entries are discovered at run time. *)

val note_store : t -> int -> unit
(** Report a store to address [a] performed {e outside} the engine (a
    task commit, fault-plan chaos, any direct [Full.set_mem] on the
    state the engine executes): drops cached blocks on the stored-to
    page. Required for correctness only when the engine persists across
    such writes; stores executed by the engine itself are handled
    internally. *)

val run :
  t ->
  Mssp_state.Full.t ->
  counters ->
  fuel:int ->
  min_steps:int ->
  stop_at:(int -> bool) option ->
  stop
(** Run from the state's current PC until [Halt], a fault, [fuel]
    retired instructions, or — after at least [min_steps] retirements —
    an instruction whose successor PC satisfies [stop_at]. Stop
    conditions replicate the single-step drivers exactly: fuel is
    checked {e before} each instruction, [stop_at] {e after} each
    retirement, and [stop_at] wins over fuel when both hold. On return
    the architectural PC is in place and [ctr] holds this call's
    traffic. *)

val blocks_built : t -> int
(** Lifetime count of blocks decoded (cache misses). *)

val invalidations : t -> int
(** Lifetime count of blocks dropped by store invalidation. *)

val decoder : t -> pc:int -> word:int -> Mssp_isa.Instr.t option
(** The engine's image-accelerated decode function (agrees with
    [Instr.decode]); usable as {!Exec.step}'s [?decode]. *)

(** Speculative block caches — the slave rung of the ladder.

    A task body fetches through a journal stack (write buffer → live-in
    → architected view), not a {!Mssp_state.Full.t}, so it cannot share
    the engine above; what it {e can} share is the region shape, the
    page-granular store invalidation and the leave-after-a-store SMC
    rule. [Spec] is that core, parameterized over the owner's fetch
    resolution. Owners are strictly private (one cache per task run —
    block validity depends on the task's own write buffer), which is
    also what keeps pooled execution race-free: no cross-domain block
    sharing, ever. *)
module Spec : sig
  type sblock = {
    s_start : int;
    s_instrs : Mssp_isa.Instr.t array;
    s_words : int array;  (** the fetched words, for first-read staging *)
    s_live : bool array;
        (** word resolved outside the owner's write buffer — its fetch
            is a first-read candidate the executor must stage *)
    mutable s_covered : int;
        (** prefix \[0, s_covered) whose fetch first-reads the current
            run has already staged; the executor skips their probes and
            advances the watermark as it records *)
    mutable s_cover_gen : int;
        (** the {!new_run} generation [s_covered] belongs to: a
            dispatch under a different generation must reset the
            watermark to 0 before trusting it (the cache outlives task
            runs, the staging state must not) *)
  }

  type t

  val create : decode:(pc:int -> word:int -> Mssp_isa.Instr.t option) -> unit -> t
  (** Empty cache using [decode] (agreeing with [Instr.decode]) for
      region building. *)

  val new_run : t -> int
  (** Open a new task run against this cache and return its generation
      stamp. Blocks built earlier keep their decoded bodies but their
      [s_covered] watermarks carry an older [s_cover_gen], so the new
      run re-stages every first-read exactly once. *)

  val clear : t -> unit
  (** Drop every cached block (the recovery hammer: a recovery segment
      executes stores straight into architected state with no per-store
      report, so all bets on cached words are off). *)

  val lookup : t -> int -> sblock option

  val build :
    t -> fetch:(int -> (int * bool) option) -> int -> sblock option
  (** Decode the straight-line region entered at [pc], resolving words
      through [fetch]: [Some (word, live)] with [live] marking a
      resolution outside the write buffer; [None] (the I/O region, an
      unbound cell) ends the region, as do undecodable words, transfers
      that cannot fall through, and the length cap. [None] overall when
      the very first word refuses — the caller's single-step fallback
      then owns the fault/I/O probe. No journal staging and no access
      traffic happen here; execution charges fetches itself. *)

  val lookup_or_build :
    t -> fetch:(int -> (int * bool) option) -> int -> sblock option

  val note_store : t -> int -> bool
  (** Report a store into the owner's address space: drops exactly the
      cached blocks whose word span contains the stored-to address,
      [true] if any block was dropped — the executor must then leave
      the block it is inside after the store, exactly like the master
      engine's in-block invalidation rule. One page range check on the
      miss path; precise (span-containment) invalidation on a page hit,
      because kernel data commonly shares a page with kernel code
      ([Dsl.alloc] places buffers right after the program) and dropping
      whole pages would rebuild every loop block on every data store. *)

  val built : t -> int
  val dropped : t -> int
end
