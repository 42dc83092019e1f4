(** Configuration of the MSSP machine: structure and timing.

    Timing parameters are in cycles and mirror the relative magnitudes of
    the MICRO 2002 evaluation: single-cycle issue on every core, a
    private L1 per core, a shared L2 holding architected state, tens of
    cycles to move a checkpoint across the chip, and a verification cost
    proportional to the number of live-ins checked. *)

type timing = {
  master_base : int;  (** cycles per distilled instruction before caches *)
  slave_base : int;  (** cycles per original instruction before caches *)
  spawn_latency : int;  (** checkpoint transfer master -> slave *)
  verify_base : int;  (** fixed verification cost per task *)
  verify_per_live_in : int;
  verify_parallelism : int;
      (** live-ins compared per [verify_per_live_in] cycles — the
          verification unit checks many cells at once, like a wide CAM
          against the L2 *)
  commit_base : int;  (** fixed commit cost per task *)
  commit_per_live_out : int;
  commit_parallelism : int;  (** live-outs written per cost unit *)
  restart_latency : int;  (** master reseed after a squash *)
  recovery_per_instr : int;
      (** extra per-instruction cost of non-speculative recovery
          (architected state is in the L2, not a private L1) *)
  l1 : Mssp_cache.Cache.config;  (** per-core private L1 *)
  lat : Mssp_cache.Cache.Hierarchy.latencies;
}

val default_timing : timing

type t = {
  slaves : int;  (** number of slave processors *)
  max_in_flight : int;  (** checkpoint window (spawned, uncommitted) *)
  task_size : int;
      (** master instructions between checkpoints: the master skips
          [Fork] markers until it has executed this many instructions
          since the last checkpoint — dynamic task sizing, standing in
          for the paper's unrolling-based sizing. Original-program task
          length ≈ [task_size × distillation ratio]. *)
  task_budget : int;  (** per-task instruction bound *)
  isolated_slaves : bool;
      (** slaves see only master-supplied data (abstract-model mode)
          rather than falling back to architected state *)
  control_only_master : bool;
      (** checkpoints carry only the start PC, no value predictions:
          slaves read everything from architected state. This models
          plain task-level speculative parallelization (Multiscalar-style
          control speculation without MSSP's value forwarding) — the
          comparison that shows why the master predicts {e values}, not
          just control flow. *)
  verify_refinement : bool;
      (** maintain a shadow SEQ machine and check, at every commit and
          recovery, that architected state equals the shadow — the
          executable jumping-refinement witness (costly; for tests) *)
  dual_mode : bool;
      (** the real machine's forward-progress guarantee: when speculation
          stops paying (several squashes with no commit in between), drop
          to plain sequential execution for [dual_burst] instructions
          before re-engaging the master. Restores the ≥1x performance
          floor under hostile/hopeless distilled code. *)
  dual_trigger : int;
      (** consecutive squashes without an intervening commit that trip
          the fallback *)
  dual_burst : int;  (** sequential instructions per fallback burst *)
  faults : Mssp_faults.Plan.t option;
      (** the fault-plan subsystem ({!Mssp_faults.Plan}): a seeded
          schedule of typed value faults against the speculative domain
          (live-in corruption, memory bit-flips). [None] (the default)
          compiles every injection site down to one predictable branch —
          zero cost, bit-identical behavior (test_faults checks
          cycles, events and words). A [Commit_corrupt] action
          breaks the verify/commit unit on purpose, for the
          differential fuzzer's mutation smoke test only. *)
  predict : Mssp_predict.Predict.mode;
      (** has no effect; kept only because the repo benchmark sets or
          reads it. It goes with [pool]. *)
  predict_seed : int;
      (** has no effect, like [predict], and kept for the same pin. *)
  tracer : Mssp_trace.Trace.t option;
      (** recording sinks for the structured event stream
          ({!Mssp_trace.Trace}): the machine builds every task-lifecycle
          event on every run and folds it into its stats; [Some t] also
          delivers each one to [t]'s sinks. [None] (the default) records
          nothing; the run is the same either way. Attach a collector
          or ring buffer before the run. *)
  interrupt : (unit -> string option) option;
      (** cooperative cancellation hook: polled once per dispatched
          simulation event (between events, never mid-instruction-batch).
          Returning [Some reason] stops the machine with the structured
          [Interrupted reason] stop — architected state is left at the
          last committed boundary, consistent but partial. This is how
          [mssp_sim run --timeout] turns a runaway workload into a
          structured failure instead of a hung CI job. [None] (the
          default) compiles the poll site down to one predictable branch
          — runs are bit-identical to a build without the hook. The
          closure runs on the event-loop domain; keep it cheap (an
          [Atomic.get], a clock read). *)
  pool : int option;
      (** has no effect: task bodies always run on the event-loop
          domain. Kept only because the repo benchmark pins
          [pool = Some 0]; it goes once that pin does. *)
  superblock : bool;
      (** has no effect: the master, the slaves and recovery each have
          one executor. Kept only because the repo benchmark pins it;
          it goes with [pool]. *)
  slave_block_journal : bool;
      (** has no effect, like [superblock], and kept for the same pin. *)
  master_chunk : int;
      (** run-away guard: a master producing no fork for this many
          instructions is stopped (execution continues correctly via
          recovery) *)
  max_cycles : int;  (** hard stop for the whole simulation *)
  max_squashes : int;  (** hard stop *)
  recovery_fuel : int;
      (** instruction bound on a single non-speculative recovery segment;
          a segment that exhausts it stops the machine with the
          structured [Recovery_fuel] reason rather than replaying
          forever (e.g. a recovery that lands in an infinite loop with
          no task entry in it) *)
  timing : timing;
}

val default : t
(** 4 slaves, window 8, task size 50, budget 5000, fallback mode,
    refinement check off, recovery fuel 200M instructions. *)

val with_slaves : int -> t -> t
(** Convenience: set slave count and scale the window to 2x slaves. *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering of the structural knobs (not the timing). *)
