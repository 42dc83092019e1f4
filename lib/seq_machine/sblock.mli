(** The slave block cache: pre-decoded straight-line regions for
    speculative task bodies ({!Mssp_task.Task.run} with
    [~block_journal:true]).

    A {e block} is a straight-line region of code: it extends
    {e through} conditional branches (their fall-through continues the
    region) and ends at a transfer that cannot fall through
    ([Jmp]/[Jal]/[Jr]/[Jalr]/[Halt]), an undecodable or unfetchable
    word, or a length cap. A task body fetches through a journal stack
    (write buffer → live-in → architected view), not a
    {!Mssp_state.Full.t}, so the cache is parameterized over the
    owner's fetch resolution, and it records each fetched word and
    whether it is a first-read candidate so the executor can stage
    first-reads in serial order.

    {b Self-modifying code.} Fetch goes through memory, so cached blocks
    can go stale: the owner reports every store into its address space
    ({!note_store}), which drops exactly the blocks spanning the stored
    address, and the executor leaves a block after a store that dropped
    anything. Owners are strictly private — block validity depends on
    the task's own write buffer — and a cache is never shared between
    concurrently running tasks. *)

type block = {
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

val lookup_or_build :
  t -> fetch:(int -> (int * bool) option) -> int -> block option
(** The cached block entered at [pc], or else a new one: the
    straight-line region entered at [pc], decoded from words resolved
    through [fetch]. [Some (word, live)] resolves a word, [live]
    marking a resolution outside the write buffer; [None] (the I/O
    region, an unbound cell) ends the region, as do undecodable words,
    transfers that cannot fall through, and the length cap. [None]
    overall when the very first word refuses — the caller's
    single-step fallback then owns the fault/I/O probe. No journal
    staging and no access traffic happen here; execution charges
    fetches itself. *)

val note_store : t -> int -> bool
(** Report a store into the owner's address space: drops exactly the
    cached blocks whose word span contains the stored-to address,
    [true] if any block was dropped — the executor must then leave
    the block it is inside after the store. One page range check on the
    miss path; precise (span-containment) invalidation on a page hit,
    because kernel data commonly shares a page with kernel code
    ([Dsl.alloc] places buffers right after the program) and dropping
    whole pages would rebuild every loop block on every data store. *)
