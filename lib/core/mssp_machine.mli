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

(** The run's aggregates, built once when the run ends. [cycles],
    [master_instructions], [sequential_instructions], [faults_injected],
    [task_sizes] and [live_in_counts] are the machine's own counts: no
    event carries them. Every other field is read off the fold of the
    run's event stream ({!Mssp_trace.Trace.Summary}), so a recorded
    stream reproduces it exactly. *)
type stats = {
  cycles : int;  (** the clock at the stop; the [Halt] event's cycle *)
  master_instructions : int;
  tasks_spawned : int;
  tasks_committed : int;
  instructions_committed : int;  (** via committed tasks *)
  tasks_discarded : int;  (** in-flight work lost to squashes *)
  squashes : int;
  squash_mismatch : int;
  squash_task_failed : int;
  squash_master_dead : int;
  recovery_segments : int;
  recovery_instructions : int;  (** non-speculative instructions *)
  sequential_bursts : int;  (** dual-mode fallback episodes *)
  sequential_instructions : int;
      (** instructions retired inside dual-mode bursts (subset of
          [recovery_instructions]) *)
  faults_injected : int;  (** fault-plan actions fired, quiet ones included *)
  live_ins_checked : int;
  live_outs_committed : int;
  predict_hits : int;
      (** always 0: has no effect; kept only because the repo benchmark
          sets or reads it *)
  predict_misses : int;  (** always 0, like [predict_hits] *)
  slave_busy_cycles : int;
      (** slave time from each task's start to its finish, cut short at
          the squash that discards it or at the stop *)
  task_sizes : int list;  (** committed task lengths *)
  live_in_counts : int list;  (** recorded live-ins per committed task *)
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
  ?config:Mssp_config.t ->
  ?wrap_store:((int -> int -> unit) -> int -> int -> unit) ->
  Mssp_distill.Distill.t ->
  result
(** Simulate the distilled package's original program under MSSP until
    the program halts (or a safety limit trips). Architected state starts
    as the freshly loaded program image.

    Every run builds the structured event stream of {!Mssp_trace.Trace}:
    [Fork]/[Predict] per checkpoint, [Slave_start]/[Slave_finish] per
    task execution, [Verify] (with pass/mismatch-witness/incomplete
    outcome) and [Commit] or [Squash] per head task,
    [Recovery]/[Restart] per squash, end-of-run [Counter] samples
    (cache, memory image, sim kernel), and exactly one final [Halt].
    Each event goes into the run's own fold, which {!stats} is read
    from, and, with [config.tracer = Some t], to [t]'s sinks too; a
    tracer only records, it changes nothing about the run.

    [wrap_store] wraps the hook through which every master store reaches
    the master's write layers, once per run: host profiling measures the
    hook's allocation this way ([tools/hostprof --words]). The wrapper
    must pass each store on to the hook it is given. *)

val checkpoint_live_in :
  Mssp_config.t ->
  entry:int ->
  Mssp_state.Full.t ->
  dirty:Mssp_state.Dirty.t ->
  Mssp_state.Live_in.t
(** [checkpoint_live_in cfg ~entry s ~dirty] is the live-in a master in
    state [s] ships at a fork to [entry], having written [dirty] since
    its last seed: the PC alone with [cfg.control_only_master]; else the
    PC and every register over a view of [dirty], whose open layer it
    seals. Its cost does not depend on how many cells [dirty] holds. *)

val fold_check : dropped:int -> Mssp_trace.Trace.Summary.t -> stats -> string
(** The verdict line under a recorded stream's summary. When the
    recording kept the whole stream ([dropped = 0]): whether its fold
    agrees with the run's [stats] on commits, squashes (all four
    counts) and discarded tasks, which it does unless a sink lost
    events. Otherwise: that the stream is truncated and was not
    compared, since a fold of the last events cannot add up to the
    run. *)

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
