(** Speculative tasks — the unit of work MSSP distributes to slaves.

    A task executes the {e original} program from [start_pc] until it
    reaches [end_pc] (the next task's start), the program halts, or its
    instruction budget runs out. It never touches architected state:
    reads are satisfied from its own write buffer, then the master's
    live-in prediction, then architected state, which it only reads. Every value obtained from outside its own writes
    is {e recorded}; the verification unit later replays those recordings
    against architected state — the memoization check that makes
    commits safe (paper Definition 6 via Theorem 2: recorded live-ins
    consistent with architected state ⊑, plus the executability of every
    step, imply task safety).

    The executor, {!run}, is one direct step per instruction with the
    semantics of {!Mssp_seq.Exec.step}; it realizes the paper's
    task-evolution rule (Definition 5): each step advances the live-out
    fragment by [next].

    The prediction is a {!Mssp_state.Live_in.t}, read in place: its
    flat register file for the PC and registers, its view of the
    master's write layers for memory. The recordings and the write buffer live in flat
    {!Journal.t} buffers (register arrays and an int-keyed memory
    index), so an instruction pays no balanced-tree lookups once its
    cells are recorded. Verification ({!live_ins_consistent}) and commit
    ({!commit_into}) walk the journals as ints; {!writes_fragment}
    renders the write buffer as a fragment for commit-fault injection
    and tests. *)

type fail_reason =
  | Budget_exhausted  (** never reached [end_pc]: master mispredicted
                          the boundary, or the task diverged *)
  | Fault of Mssp_seq.Exec.fault
  | Io_speculative of Mssp_state.Cell.t
      (** the task tried to touch the non-idempotent memory-mapped I/O
          region (paper §7): speculation is forbidden there, so the task
          fails and the access re-executes non-speculatively during
          recovery, in program order *)

type completion =
  | Reached_boundary  (** arrived at [end_pc] *)
  | Program_halted  (** executed [Halt]: this is the program's last task *)

type status = Running | Complete of completion | Failed of fail_reason

val pp_status : Format.formatter -> status -> unit

type t = {
  id : int;
  start_pc : int;
  end_pc : int option;  (** [None]: run until [Halt] only *)
  end_occurrence : int;
      (** the task completes at the [end_occurrence]-th arrival at
          [end_pc] — loop-header boundaries are passed many times within
          one multi-iteration task, and the master tells the slave which
          pass is the boundary (it counted its own marker passes) *)
  mutable end_seen : int;  (** arrivals at [end_pc] so far *)
  budget : int;
  live_in : Mssp_state.Live_in.t;
      (** master's prediction; binds [Pc]. Held by reference, never
          copied: the PC, registers and memory live-ins are read from it
          directly *)
  reads : Journal.t;
      (** recorded live-ins: first-read value of every cell obtained from
          outside the write buffer *)
  writes : Journal.t;  (** live-outs (write buffer) *)
  mutable executed : int;  (** the paper's [k] — instructions so far *)
  mutable status : status;
  decode : pc:int -> word:int -> Mssp_isa.Instr.t option;
      (** decoder for fetched words; a pre-decoded image decoder here
          short-circuits per-word decode without changing the access
          sequence *)
}

val make :
  id:int ->
  start_pc:int ->
  end_pc:int option ->
  end_occurrence:int ->
  budget:int ->
  live_in:Mssp_state.Live_in.t ->
  decode:(pc:int -> word:int -> Mssp_isa.Instr.t option) ->
  reads:Journal.t ->
  writes:Journal.t ->
  t
(** A fresh task ([⟨S_in, n, S_in, 0⟩] in the paper's tuple form). The
    [Pc ↦ start_pc] binding is added to [live_in] if absent — the task's
    start position is itself a live-in and is verified like any other.

    [decode] must agree with [Instr.decode]: {!Mssp_seq.Exec.default_decode},
    or, as the machine passes, an {!Mssp_isa.Program.image_decoder} over
    the original and distilled images. Every fetch still reads memory
    through the journal stack, so the access sequence and the recorded
    live-ins are the same with any agreeing decoder.

    [reads] and [writes] become the task's recordings and write buffer;
    they must be empty ({!Journal.create} or {!Journal.clear}ed), else
    [Invalid_argument]. The machine passes a recycled pair, so a task
    records into tables already grown by earlier bodies; tests and tools
    pass fresh journals.

    Cost is O(1), independent of how many cells [live_in] binds: the
    task holds it by reference. A register read resolves write buffer,
    then the live-in's register file, then architected state; a memory
    read resolves write buffer, then {!Mssp_state.Live_in.find_mem},
    then architected state — the same values, in the same order, as a
    task whose whole live-in had been flattened into a journal. *)

val run : ?on_access:(int -> unit) -> t -> Mssp_state.Full.t -> status
(** [run t arch] steps until the task leaves [Running] (no-op unless
    [Running]). A read that neither the write buffer nor the live-in
    binds reads through to the architected state [arch] (the MICRO'02
    machine); the obtained value is recorded and verified at commit.

    Each step evaluates one instruction with the semantics of
    {!Mssp_seq.Exec.step} straight on the journal stack: it reads the PC,
    fetches [Mem pc], decodes through [t.decode] and reads its operands
    in [Exec.step]'s order, each read resolving write buffer, then
    live-in, then [arch], and recording the value on its first read; its
    writes land in the write buffer. The step allocates nothing once its
    cells are recorded. Equal, in status, [executed], write buffer,
    [on_access] sequence and first-read stream (content {e and} order),
    to a single-step loop of [Exec.step] over the same resolution
    (test_sjournal's reference differential).

    [on_access a] is invoked for every memory address touched — the
    fetch, loads, stores; [Out] touches its count, slot and count — the
    hook the timing model's caches observe.

    The task only reads [arch], which must not change while [run]
    executes. *)

val live_in_size : t -> int
(** Number of recorded live-in bindings (drives verification cost). *)

val live_out_size : t -> int
(** Number of buffered live-out bindings (drives commit cost). *)

val writes_fragment : t -> Mssp_state.Fragment.t
(** The write buffer as a fragment (allocates; for tests/tools). *)

val live_ins_consistent : t -> Mssp_state.Full.t -> bool
(** [live_ins_consistent t arch] is the verification unit's memoization
    check [reads(t) ⊑ arch], straight off the journal: the PC, the
    register mask and the memory log walked as ints against
    [Full.pc]/[get_reg]/[get_mem]. Allocates nothing. *)

val first_inconsistent :
  t -> Mssp_state.Full.t -> (Mssp_state.Cell.t * int * int) option
(** The mismatch witness for squash attribution:
    [Some (cell, predicted, actual)] for the first recorded live-in that
    disagrees with architected state, [None] iff
    {!live_ins_consistent}. Journal order, so deterministic for a given
    run. *)

val commit_into : t -> Mssp_state.Full.t -> unit
(** [commit_into t arch] superimposes the write buffer onto [arch] — the
    commit operation [S ← live_out(t)] — in journal order, as ints
    through [Full.set_pc]/[set_reg]/[set_mem]. Allocates nothing beyond
    what [arch]'s own stores do (a page privatized on first write). *)

val iter_writes : (Mssp_state.Cell.t -> int -> unit) -> t -> unit
(** Iterate the write buffer in journal order (allocation-free). *)

val iter_reads : (Mssp_state.Cell.t -> int -> unit) -> t -> unit
(** Iterate the first-read journal (the recorded live-in uses and the
    values the task consumed for them) in journal order — the
    verification unit's view. *)

val pp : Format.formatter -> t -> unit
