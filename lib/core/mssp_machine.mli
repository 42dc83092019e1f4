(** The MSSP machine — the paper's primary contribution, executable.

    One master processor runs the distilled program, peeling off a
    checkpoint (predicted live-ins) at every [Fork] and handing tasks to
    a pool of slave processors that execute the {e original} program
    concurrently. An in-order verification/commit unit applies each
    oldest completed task's live-outs to architected state iff its
    recorded live-ins match that state; any mismatch squashes all
    in-flight work, re-executes non-speculatively up to the next task
    boundary, and restarts the master there.

    Correctness never depends on the master or the distilled code: with
    [verify_refinement] on, the machine checks at every commit and
    recovery step that architected state equals a shadow sequential
    machine — the executable form of the paper's jumping refinement
    (MSSP transition ⇒ a [seq] transition sequence on the ψ-projection).

    The simulator is event-driven and deterministic. Functionally, a
    task executes eagerly when its end boundary becomes known (the next
    checkpoint's start PC) and a slave is free; its completion, the
    verification and the commit are then scheduled with the configured
    latencies. Timing therefore models: master speed (with private L1),
    checkpoint transfer, slave execution (with private L1), architected
    (shared L2) access, verification/commit serialization, and squash/
    restart penalties. *)

type stats = {
  mutable cycles : int;
  mutable master_instructions : int;
  mutable tasks_spawned : int;
  mutable tasks_committed : int;
  mutable instructions_committed : int;  (** via committed tasks *)
  mutable tasks_discarded : int;  (** in-flight work lost to squashes *)
  mutable squashes : int;
  mutable squash_mismatch : int;
  mutable squash_task_failed : int;
  mutable squash_master_dead : int;
  mutable recovery_segments : int;
  mutable recovery_instructions : int;  (** non-speculative instructions *)
  mutable sequential_bursts : int;  (** dual-mode fallback episodes *)
  mutable sequential_instructions : int;
      (** instructions retired inside dual-mode bursts (subset of
          [recovery_instructions]) *)
  mutable faults_injected : int;
      (** fault-plan actions that fired (all surfaces) *)
  mutable live_ins_checked : int;
  mutable live_outs_committed : int;
  mutable predict_hits : int;
      (** recorded first-reads that matched architected state at
          verification, over examined head tasks (predictor enabled) *)
  mutable predict_misses : int;
  mutable slave_busy_cycles : int;
  mutable task_sizes : int list;  (** committed task lengths *)
  mutable live_in_counts : int list;  (** recorded live-ins per committed task *)
}

type stop_reason =
  | Halted
  | Cycle_limit
  | Squash_limit
  | Recovery_fuel
      (** a single recovery segment exhausted [config.recovery_fuel] —
          non-speculative execution never reached a task entry *)
  | Interrupted of string
      (** the cooperative cancellation hook ([config.interrupt]) asked
          the machine to stop, carrying its reason (e.g. ["timeout"]).
          Architected state is the last committed boundary — consistent
          but partial; callers (such as [run --timeout]) must treat the
          result as cancelled, never as a completed run *)
  | Wedged
      (** the event queue drained before the program halted — a machine
          bug surfaced honestly; should never occur *)

type result = {
  arch : Mssp_state.Full.t;  (** final architected state *)
  stop : stop_reason;
  stats : stats;
  refinement_violations : int;
      (** commits/recoveries where architected state diverged from the
          shadow SEQ machine; 0 unless the machine is broken *)
}

val stop_string : stop_reason -> string
(** ["halted"], ["cycle_limit"], ["squash_limit"], ["recovery_fuel"],
    ["interrupted"], ["wedged"] — the rendering carried by
    the trace stream's [Halt] event. *)

val run :
  ?config:Mssp_config.t -> Mssp_distill.Distill.t -> result
(** Simulate the distilled package's original program under MSSP until
    the program halts (or a safety limit trips). Architected state starts
    as the freshly loaded program image.

    With [config.tracer = Some t], the run emits the structured event
    stream of {!Mssp_trace.Trace} into [t]: [Fork]/[Predict] per
    checkpoint, [Slave_start]/[Slave_finish] per task execution,
    [Verify] (with pass/mismatch-witness/incomplete outcome) and
    [Commit] or [Squash] per head task, [Recovery]/[Restart] per squash,
    end-of-run [Counter] samples (cache, memory image, sim kernel), and
    exactly one final [Halt]. With [tracer = None] the simulation is
    bit-identical and pays one branch per would-be event. *)

val total_committed : result -> int
(** Instructions retired into architected state: committed-task
    instructions plus non-speculative recovery instructions. *)

val mean_task_size : result -> float
val mean_live_ins : result -> float

val squash_rate : result -> float
(** Squashes per committed task. *)

val slave_occupancy : result -> config:Mssp_config.t -> float
(** Mean fraction of slave processors busy over the run. *)

val pp_stats : Format.formatter -> stats -> unit
