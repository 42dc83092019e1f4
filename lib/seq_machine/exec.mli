(** Instruction semantics — the paper's [next]/[δ].

    The ISA is evaluated in three places. One is the specification;
    the other two are checked against it, which makes "slaves implement
    the same ISA as the reference sequential machine" (paper §4.1) a
    tested property rather than a hope:

    - the {e specification} ({!step}, {!observed_step}, {!delta}),
      generic over where state lives through read/write callbacks. The
      single-step SEQ machine ({!Machine.step}), the refinement shadow
      and the formal models run on it.
    - the {e direct step} on a {!Mssp_state.Full.t} ({!exec}, and
      {!timed_exec} which charges a cache hierarchy and then calls
      {!exec}): whole SEQ runs, recovery segments, the profiler, the
      master and the timed baselines. Checked against the specification
      by test_sblock (whole runs against a loop of {!Machine.step}), by
      test_profile (the profiler against a hash-table profiler over
      {!Machine.step}), by the fuzz oracle (its SEQ reference runs on
      the direct step, every MSSP run's refinement shadow single-steps
      the specification) and, for the cache charges, by test_baseline's
      closure-charged timed-step differential.
    - the {e slave journal step} ({!Mssp_task.Task.run}), which
      evaluates each instruction straight on a task's journal stack
      (write buffer, live-in, architected state). Checked against a spec slave — a
      single-step loop of {!step} over the same resolution — by the
      reference differential in test_sjournal: status, retirement
      count, write buffer, memory touches and the ordered first-read
      stream, on hand-written shapes and on generated programs.

    Reads return [int option]: [None] means the cell is unavailable in the
    backing store — possible only for partial stores (the fragments of
    the formal models, {!Frag_exec}). Execution is then abandoned with
    {!outcome.Missing}, the executable counterpart of the paper's
    {e completeness} precondition (Definition 9: [δ] is defined only on
    complete states). *)

type fault = Undecodable of { pc : int; word : int }
    (** The word fetched at [pc] is not a valid instruction encoding. A
        faulting machine makes no state change; [Fault] is deterministic,
        so SEQ determinism is preserved even on garbage code. *)

type outcome =
  | Stepped  (** writes applied, PC updated *)
  | Halted  (** [Halt] reached: no writes, PC unchanged (a fixed point) *)
  | Fault of fault  (** no writes, PC unchanged (a fixed point) *)
  | Missing of Mssp_state.Cell.t
      (** a cell needed by fetch/decode/execute is unavailable; no writes
          performed (all reads precede all writes within one instruction) *)

val pp_fault : Format.formatter -> fault -> unit

val step :
  read:(Mssp_state.Cell.t -> int option) ->
  write:(Mssp_state.Cell.t -> int -> unit) ->
  outcome
(** Execute one instruction: fetch at the PC read through [read], decode
    (via {!default_decode}), evaluate, perform writes through [write]
    (including the PC update). Reads of the hardwired zero register do
    not go through [read]; writes to it are discarded before reaching
    [write]. All reads happen before any write. *)

val default_decode : pc:int -> word:int -> Mssp_isa.Instr.t option
(** The generic decoder: [Instr.decode_cached word]. *)

val delta :
  read:(Mssp_state.Cell.t -> int option) ->
  (Mssp_state.Fragment.t, outcome) result
(** [delta ~read] is the paper's [δ(S)]: the fragment of changes that
    executing the next instruction would make (always including the PC
    cell), without applying them. [Error o] when the step does not
    produce writes ([Halted], [Fault], [Missing]); never [Error Stepped]. *)

val observed_step :
  read:(Mssp_state.Cell.t -> int option) ->
  write:(Mssp_state.Cell.t -> int -> unit) ->
  (Mssp_state.Cell.t * int) list * Mssp_state.Fragment.t * outcome
(** Like {!step}, but also returns the cells read with the values obtained
    (in access order, including PC and the fetched instruction cell) and
    the fragment of writes performed. This is how slaves record live-ins
    and accumulate live-outs.

    The access order is part of the executor's contract, per
    instruction: [Pc] first, then the instruction cell [Mem pc], then
    operands in the order of {!step}'s semantics (e.g. [Ld]: base
    register, then the loaded address; [St]: base, then the stored
    register; [Out]: the register, then [Mem out_count]). The slave
    journal step reads in this order too, so a slave's first three
    recorded reads are always [Pc], [Mem start_pc], then the first
    instruction's operands. (Live-in journals are keyed stores, so only
    first-read values are retained; the order contract is what makes
    "first" well defined.) *)

(** {2 The direct step} *)

val exec : Mssp_state.Full.t -> pc:int -> Mssp_isa.Instr.t -> unit
(** [exec s ~pc instr] executes [instr], already fetched and decoded at
    [pc] (the PC of [s]), straight on [s]'s register and memory arrays,
    with the semantics of {!step}: no callbacks, option returns or cell
    boxes, so a step allocates nothing. The caller owns the fetch and
    any traffic accounting. [instr] must not be [Halt] (a fixed point
    the caller detects at decode). *)

(** {2 The timed step}

    The master's instruction step and the {!Mssp_baseline} machines'
    ([sequential], [oracle_parallel]). It charges one
    {!Mssp_cache.Cache.Hierarchy.access} per memory touch in {!step}'s
    access order — the fetch at the PC first, then the data read or
    write; [Out] charges its count read, slot write and count write in
    that order — and then runs {!exec}. The cache therefore sees the
    same address sequence as a {!step} whose callbacks charge every
    [Mem] cell. *)

val timed_exec :
  Mssp_cache.Cache.Hierarchy.t ->
  on_store:(int -> int -> unit) ->
  Mssp_state.Full.t ->
  pc:int ->
  Mssp_isa.Instr.t ->
  int
(** [timed_exec cache ~on_store s ~pc instr] charges [instr]'s accesses,
    fetch included, then {!exec}s it, and returns the cycles the
    accesses cost. [on_store a v] is called for every memory store,
    before the instruction's writes land (the master writes its write
    layers here). [instr] must not be [Halt]. *)

val timed_step :
  on_store:(int -> int -> unit) ->
  Mssp_cache.Cache.Hierarchy.t ->
  Mssp_state.Full.t ->
  int
(** Fetch the word at [s]'s PC, decode it with {!default_decode}, then
    {!timed_exec} it. Returns the access cycles of the retired
    instruction, or {!timed_stopped} when the word is [Halt] or does not
    decode: the fetch is still charged (as {!step} charges it) and [s]
    is left unchanged, so the caller tells the two apart by decoding the
    word at the PC again. *)

val timed_stopped : int
(** The negative value {!timed_step} returns when it retires nothing. *)

val no_store : int -> int -> unit
(** An [on_store] hook that records nothing. *)
