module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Instr = Mssp_isa.Instr
module Reg = Mssp_isa.Reg
module Seq_machine = Mssp_seq.Machine
module Exec = Mssp_seq.Exec
module Program = Mssp_isa.Program
module Task = Mssp_task.Task
module Distill = Mssp_distill.Distill
module Sim = Mssp_sim_engine.Sim
module Hierarchy = Mssp_cache.Cache.Hierarchy
module Trace = Mssp_trace.Trace
module Fplan = Mssp_faults.Plan
module Inject = Mssp_faults.Injector
module Predict = Mssp_predict.Predict

type squash_reason =
  | Live_in_mismatch  (** recorded live-ins ≠ architected state *)
  | Task_failed of Task.fail_reason
  | Master_dead  (** master halted/faulted/ran away with work remaining *)

type stats = {
  mutable cycles : int;
  mutable master_instructions : int;
  mutable tasks_spawned : int;
  mutable tasks_committed : int;
  mutable instructions_committed : int;
  mutable tasks_discarded : int;
  mutable squashes : int;
  mutable squash_mismatch : int;
  mutable squash_task_failed : int;
  mutable squash_master_dead : int;
  mutable recovery_segments : int;
  mutable recovery_instructions : int;
  mutable sequential_bursts : int;
  mutable sequential_instructions : int;
      (** instructions retired in dual-mode sequential bursts (a subset
          of [recovery_instructions]) *)
  mutable faults_injected : int;
  mutable live_ins_checked : int;
  mutable live_outs_committed : int;
  mutable predict_hits : int;
  mutable predict_misses : int;
      (** per-cell value-prediction accuracy at verification, counted
          only when a predictor is enabled ([config.predict]); both stay
          0 — and every other field stays bit-identical — with
          prediction off *)
  mutable slave_busy_cycles : int;
  mutable task_sizes : int list;
  mutable live_in_counts : int list;
}

let fresh_stats () =
  {
    cycles = 0;
    master_instructions = 0;
    tasks_spawned = 0;
    tasks_committed = 0;
    instructions_committed = 0;
    tasks_discarded = 0;
    squashes = 0;
    squash_mismatch = 0;
    squash_task_failed = 0;
    squash_master_dead = 0;
    recovery_segments = 0;
    recovery_instructions = 0;
    sequential_bursts = 0;
    sequential_instructions = 0;
    faults_injected = 0;
    live_ins_checked = 0;
    live_outs_committed = 0;
    predict_hits = 0;
    predict_misses = 0;
    slave_busy_cycles = 0;
    task_sizes = [];
    live_in_counts = [];
  }

(* Refine the machine's coarse squash taxonomy into the trace layer's
   six-way one. [Trace.coarse] collapses it back; the round trip is what
   lets the attribution fold reproduce the three stats counters. *)
let trace_reason = function
  | Live_in_mismatch -> Trace.Bad_prediction
  | Task_failed Task.Budget_exhausted -> Trace.Fuel_exhausted
  | Task_failed (Task.Fault f) ->
    Trace.Task_fault (Format.asprintf "%a" Exec.pp_fault f)
  | Task_failed (Task.Missing_cell c) -> Trace.Missing_cell (Cell.show c)
  | Task_failed (Task.Io_speculative c) ->
    Trace.Speculative_io (Cell.show c)
  | Master_dead -> Trace.Master_dead

type stop_reason =
  | Halted
  | Cycle_limit
  | Squash_limit
  | Recovery_fuel
  | Interrupted of string
  | Wedged

let stop_string = function
  | Halted -> "halted"
  | Cycle_limit -> "cycle_limit"
  | Squash_limit -> "squash_limit"
  | Recovery_fuel -> "recovery_fuel"
  | Interrupted _ -> "interrupted"
  | Wedged -> "wedged"

type result = {
  arch : Full.t;
  stop : stop_reason;
  stats : stats;
  refinement_violations : int;
}

(* A checkpoint: one task-to-be in the in-flight window. Its end boundary
   becomes known when the master produces the *next* checkpoint (or
   dies); the task executes once the end is known and a slave is free. *)
type checkpoint = {
  cp_id : int;
  cp_entry : int;
  cp_live_in : Fragment.t;
  cp_master_li : Fragment.t;
      (** the master's own live-in prediction, before predictor
          refinement and fault injection — what the master-confidence
          attribution scores at verify time. The same fragment as
          [cp_live_in] (shared reference, no cost) when no predictor is
          refining *)
  mutable cp_end : (int option * int) option;
      (** [None] until the end boundary is known, then the end PC ([None]
          when the master died first) and which arrival at it is the
          boundary: the master's count of its own passes over that marker
          within this task *)
  mutable cp_task : Task.t option;
  mutable cp_finished : bool;
}

(* The machine: the run's fixed context, then the state of its four parts
   (master, window and slaves, commit unit, squash and recovery), which
   the event handlers below share. *)
type t = {
  cfg : Mssp_config.t;
  d : Distill.t;
  sim : Sim.t;
  stats : stats;
  arch : Full.t;
      (** architected state, holding BOTH images: the original program
          (PC at its entry) and the distilled program (the master's code
          is ordinary memory, as on the real machine) *)
  shadow : Full.t option;  (** SEQ twin of [arch] ([verify_refinement]) *)
  mutable violations : int;
  decode : pc:int -> word:int -> Instr.t option;
      (** the master's, the slaves' and recovery's decoder: pre-decoded
          images of both programs, checked against each fetched word *)
  entries : (int, unit) Hashtbl.t;  (** task entries: recovery stops here *)
  tracing : bool;
  emit : Trace.event -> unit;
      (** every emission site is guarded by [if tracing then], so a
          disabled run pays one predictable branch per would-be event
          and never allocates one *)
  inj : Inject.t option;
      (** the fault plan's injector; [None] makes every fault site one
          predictable branch *)
  predictor : Predict.t option;
      (** consulted at [spawn] (before fault injection) and trained at
          verification from the actual values of the head task's
          first-reads; [None] with [Predict.Off] *)
  mutable stop : stop_reason option;  (** [None] while the machine runs *)
  mutable interrupt_countdown : int;
  (* master *)
  master_cache : Hierarchy.t;  (** owns the shared L2 the slaves attach to *)
  mutable m_state : Full.t;
  mutable m_dirty : Fragment.t;
      (** memory the master wrote since its last seed — cumulative, so a
          checkpoint's live-in prediction covers everything the slave may
          need from any older in-flight task (the hardware's speculative
          version forwarding) *)
  m_store : int -> int -> unit;  (** the timed step's hook into [m_dirty] *)
  mutable m_dead : bool;
  mutable m_pending : (int * Fragment.t) option;
      (** a checkpoint parked by a full window; the master waits *)
  mutable m_since_cp : int;
      (** instructions since the last checkpoint — the task-size pacing
          counter; [Fork] markers are skipped while it is below
          [cfg.task_size] *)
  m_passes : (int, int) Hashtbl.t;
      (** per-boundary-site marker passes since the last checkpoint;
          tells the slave which arrival at the end PC is the boundary *)
  (* window and slaves *)
  window : checkpoint Queue.t;
  mutable last_cp : checkpoint option;
  mutable next_cp_id : int;
  slave_caches : Hierarchy.t array;
  slave_free : bool array;
  view : Task.view;
  (* commit unit *)
  mutable commit_busy : bool;
  (* squash and recovery *)
  mutable fruitless_squashes : int;  (** dual mode: squashes since a commit *)
}

(* With [cfg.interrupt] armed, the hook (an unknown closure — typically
   an [Atomic.get]) is only invoked every [interrupt_stride]th event, so
   the armed hot path pays a decrement and a branch, not an indirect
   call. At simulator speeds 1024 events is far under a millisecond, so
   a wall-clock hook such as [mssp_sim run --timeout] still stops the
   run promptly. *)
let interrupt_stride = 1024

let create (cfg : Mssp_config.t) (d : Distill.t) =
  let t = cfg.timing in
  let sim = Sim.create () in
  let arch = Full.create () in
  Full.load arch d.original;
  Full.load ~set_entry:false arch d.distilled;
  let shadow = if cfg.verify_refinement then Some (Full.copy arch) else None in
  let master_cache = Hierarchy.make ~l1:t.l1 ~lat:t.lat () in
  let predictor =
    match cfg.predict with
    | Predict.Off -> None
    | mode ->
      let p = Predict.create ~seed:cfg.predict_seed mode in
      Predict.warm p cfg.predict_warmup;
      Some p
  in
  let m_state = Full.copy arch in
  Full.set_pc m_state d.distilled.entry;
  let entries = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace entries e ()) d.task_entries;
  let tracing, emit =
    match cfg.tracer with
    | None -> (false, fun (_ : Trace.event) -> ())
    | Some tr -> (true, Trace.emit tr)
  in
  let rec m =
    {
      cfg;
      d;
      sim;
      stats = fresh_stats ();
      arch;
      shadow;
      violations = 0;
      decode =
        Program.image_decoder
          [ Program.decode_all d.distilled; Program.decode_all d.original ];
      entries;
      tracing;
      emit;
      inj = Option.map Inject.make cfg.faults;
      predictor;
      stop = None;
      interrupt_countdown = interrupt_stride;
      master_cache;
      m_state;
      m_dirty = Fragment.empty;
      m_store = (fun a v -> m.m_dirty <- Fragment.add (Cell.mem a) v m.m_dirty);
      m_dead = false;
      m_pending = None;
      m_since_cp = cfg.task_size (* fork immediately at start *);
      m_passes = Hashtbl.create 16;
      window = Queue.create ();
      last_cp = None;
      next_cp_id = 0;
      slave_caches =
        Array.init cfg.slaves (fun _ ->
            Hierarchy.make_shared ~l1:t.l1 ~lat:t.lat ~l2:master_cache ());
      slave_free = Array.make cfg.slaves true;
      view =
        (if cfg.isolated_slaves then Task.Isolated else Task.Fallback arch);
      commit_busy = false;
      fruitless_squashes = 0;
    }
  in
  m

let now m = Sim.now m.sim

let halt m reason =
  m.stop <- Some reason;
  (* later-scheduled events are dead; the machine's time is now *)
  m.stats.cycles <- now m

(* Event guard: drop every event once the machine has stopped, stop on
   the cycle limit, and poll the cooperative cancellation hook. *)
let guarded m thunk () =
  match m.stop with
  | Some _ -> ()
  | None -> (
    if now m > m.cfg.max_cycles then halt m Cycle_limit
    else
      match m.cfg.interrupt with
      | None -> thunk ()
      | Some poll ->
        m.interrupt_countdown <- m.interrupt_countdown - 1;
        if m.interrupt_countdown > 0 then thunk ()
        else begin
          m.interrupt_countdown <- interrupt_stride;
          match poll () with
          | Some why -> halt m (Interrupted why)
          | None -> thunk ()
        end)

(* ...and drop stale (squashed) events too *)
let epoch_guarded m thunk =
  let ep = Sim.epoch m.sim in
  guarded m (fun () -> if not (Sim.cancelled m.sim ep) then thunk ())

let advance_shadow m k =
  match m.shadow with
  | None -> ()
  | Some sh ->
    ignore (Seq_machine.seq_in_place sh k : Seq_machine.stop option);
    if not (Full.equal_observable sh m.arch) then
      m.violations <- m.violations + 1

let fault_event m a surface task =
  m.stats.faults_injected <- m.stats.faults_injected + 1;
  if m.tracing && not a.Fplan.quiet then
    m.emit (Trace.Fault { cycle = now m; surface; task })

(* The event handlers of the four parts call and schedule one another,
   so they form one recursive group, in four sections. *)

(* --- master ------------------------------------------------------ *)

let rec master_run m =
  if not m.m_dead && Option.is_none m.m_pending then
    master_go m m.cfg.master_chunk 0

(* Up to [budget] more functional master instructions, [cost] cycles
   accumulated so far. The master-side PC map redirects jumps that landed
   in original code (indirect returns) back into distilled code. The word
   is fetched and decoded once: markers and death cost nothing, and every
   other instruction runs through the closure-free timed step, which
   charges the fetch and the data accesses. *)
and master_go m budget cost =
  if budget = 0 then
    (* run-away master: no checkpoint for a whole chunk *)
    master_stop m cost
  else begin
    let pc0 = Full.pc m.m_state in
    let pc =
      match Hashtbl.find_opt m.d.pc_map pc0 with
      | Some dpc ->
        Full.set_pc m.m_state dpc;
        dpc
      | None -> pc0
    in
    match m.decode ~pc ~word:(Full.get_mem m.m_state pc) with
    | None | Some Instr.Halt -> master_stop m cost
    | Some (Instr.Fork e) ->
      (* Markers are free for the master (a real implementation keeps
         fork sites in a table, not the pipeline). *)
      let occurrence = master_note_pass m e in
      Full.set_pc m.m_state (pc + 1);
      if m.m_since_cp < m.cfg.task_size then
        (* marker skipped: pacing says the task would be too small *)
        master_go m budget cost
      else begin
        (* snapshot the prediction now; the spawn takes effect once the
           accumulated cycles elapse *)
        Hashtbl.reset m.m_passes;
        m.m_since_cp <- 0;
        let li = master_live_in m e in
        Sim.schedule m.sim ~delay:(cost + m.cfg.timing.master_base)
          (epoch_guarded m (fun () -> handle_fork m e li occurrence))
      end
    | Some instr ->
      let c =
        Exec.timed_exec m.master_cache ~on_store:m.m_store m.m_state ~pc instr
      in
      m.stats.master_instructions <- m.stats.master_instructions + 1;
      m.m_since_cp <- m.m_since_cp + 1;
      master_go m (budget - 1) (cost + m.cfg.timing.master_base + c)
  end

and master_note_pass m e =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt m.m_passes e) in
  Hashtbl.replace m.m_passes e n;
  n

and master_live_in m e =
  if m.cfg.control_only_master then Fragment.singleton Cell.Pc e
  else if m.cfg.isolated_slaves then
    Fragment.add Cell.Pc e (Full.snapshot m.m_state)
  else
    List.fold_left
      (fun f r ->
        match Cell.reg r with
        | Some c -> Fragment.add c (Full.get m.m_state c) f
        | None -> f)
      (Fragment.add Cell.Pc e m.m_dirty)
      Reg.all

(* Death (halt, fault or run-away): the master stops until a recovery
   reseeds it, and the last checkpoint's task runs to the program's end. *)
and master_stop m cost =
  m.m_dead <- true;
  if m.tracing then
    m.emit (Trace.Master_stop { cycle = now m; pc = Full.pc m.m_state });
  Sim.schedule m.sim ~delay:cost (epoch_guarded m (fun () -> on_master_dead m))

and on_master_dead m =
  (match m.last_cp with
  | Some cp when Option.is_none cp.cp_end -> cp.cp_end <- Some (None, 1)
  | Some _ | None -> ());
  try_start_tasks m;
  commit_kick m

(* --- window and slaves ------------------------------------------- *)

and handle_fork m e li occurrence =
  (* The fork's identity settles where the PREVIOUS task ends — even if
     the new task cannot be spawned yet for lack of a window slot
     (otherwise a window of 1 deadlocks: the lone task could never
     learn its end). *)
  (match m.last_cp with
  | Some cp when Option.is_none cp.cp_end ->
    cp.cp_end <- Some (Some e, occurrence);
    try_start_tasks m
  | Some _ | None -> ());
  spawn_or_wait m e li

and spawn_or_wait m e li =
  (* a full window parks the checkpoint until a commit frees a slot *)
  if Queue.length m.window >= m.cfg.max_in_flight then
    m.m_pending <- Some (e, li)
  else begin
    spawn m e li;
    master_run m
  end

and spawn m e master_li =
  let id = m.next_cp_id in
  let li =
    match m.predictor with
    | None -> master_li
    | Some p -> Predict.refine p master_li
  in
  let cp =
    {
      cp_id = id;
      cp_entry = e;
      cp_live_in = maybe_corrupt m id li;
      cp_master_li = master_li;
      cp_end = None;
      cp_task = None;
      cp_finished = false;
    }
  in
  m.next_cp_id <- id + 1;
  m.stats.tasks_spawned <- m.stats.tasks_spawned + 1;
  if m.tracing then begin
    m.emit (Trace.Fork { cycle = now m; task = id; entry = e });
    (* the prediction as the slave will see it: post fault injection.
       The fragment is persistent and shared with the checkpoint, so
       this emission is O(1) — no per-binding rendering here *)
    m.emit
      (Trace.Predict { cycle = now m; task = id; live_in = cp.cp_live_in })
  end;
  Queue.add cp m.window;
  m.last_cp <- Some cp;
  try_start_tasks m

(* Checkpoint live-in faults, applied at spawn: [Live_in_corrupt] xors
   one binding (the legacy soft-error model, stream preserved),
   [Mem_bit_flip] flips one bit of one memory binding. Both land in the
   speculative domain only — verification must absorb them. *)
and maybe_corrupt m cp_id li =
  match m.inj with
  | None -> li
  | Some i -> (
    let li =
      match Inject.fire i Fplan.Live_in_corrupt ~cycle:(now m) with
      | Some a when not (Fragment.is_empty li) ->
        let bindings = Fragment.to_list li in
        let c, v = List.nth bindings (cp_id mod List.length bindings) in
        fault_event m a "live_in_corrupt" (Some cp_id);
        Fragment.add c (v lxor 0x5A5A5A5A) li
      | Some _ | None -> li
    in
    match Inject.fire i Fplan.Mem_bit_flip ~cycle:(now m) with
    | Some a -> (
      match mem_bindings li with
      | [] -> li
      | l ->
        let c, v = List.nth l (cp_id mod List.length l) in
        let bit =
          (if a.Fplan.magnitude > 0 then a.Fplan.magnitude else cp_id) mod 62
        in
        fault_event m a "mem_bit_flip" (Some cp_id);
        Fragment.add c (v lxor (1 lsl bit)) li)
    | None -> li)

and mem_bindings f =
  Fragment.fold
    (fun c v acc -> if Cell.is_mem c then (c, v) :: acc else acc)
    f []

and try_start_tasks m =
  (* One pass over the window: each startable checkpoint gets a free
     slave, its body runs inline (charging that slave's cache), and
     its completion is scheduled — all in window order, so slave
     numbering, cache traffic and the event heap's FIFO order follow
     the window. *)
  Queue.iter
    (fun cp ->
      if Option.is_none cp.cp_task && Option.is_some cp.cp_end then
        match find_free_slave m 0 with
        | None -> ()
        | Some s -> start_task m cp s)
    m.window

and find_free_slave m i =
  if i = m.cfg.slaves then None
  else if m.slave_free.(i) then Some i
  else find_free_slave m (i + 1)

and start_task m cp s =
  m.slave_free.(s) <- false;
  let end_pc, end_occurrence = Option.get cp.cp_end in
  let task =
    Task.with_decode m.decode
      (Task.make ~id:cp.cp_id ~start_pc:cp.cp_entry ~end_pc ~end_occurrence
         ~budget:m.cfg.task_budget ~live_in:cp.cp_live_in)
  in
  cp.cp_task <- Some task;
  let cost = run_task_body m s task in
  if m.tracing then
    m.emit (Trace.Slave_start { cycle = now m; task = cp.cp_id; slave = s });
  let t = m.cfg.timing in
  let total = t.spawn_latency + (t.slave_base * task.Task.executed) + cost in
  m.stats.slave_busy_cycles <- m.stats.slave_busy_cycles + total;
  Sim.schedule m.sim ~delay:total
    (epoch_guarded m (fun () ->
         cp.cp_finished <- true;
         if m.tracing then
           m.emit
             (Trace.Slave_finish
                {
                  cycle = now m;
                  task = cp.cp_id;
                  slave = s;
                  executed = task.Task.executed;
                  ok = completed task;
                });
         m.slave_free.(s) <- true;
         try_start_tasks m;
         commit_kick m))

(* Run one task body on slave [s], charging its Mem accesses to that
   slave's cache as it goes; returns the cache cost. *)
and run_task_body m s task =
  let cache = m.slave_caches.(s) in
  let cost = ref 0 in
  let on_access a = cost := !cost + Hierarchy.access cache a in
  ignore (Task.run ~on_access task m.view : Task.status);
  !cost

and completed task =
  match task.Task.status with
  | Task.Complete _ -> true
  | Task.Running | Task.Failed _ -> false

(* --- commit unit ------------------------------------------------- *)

and commit_kick m =
  (* The commit unit re-examines the window head; serialization of the
     actual verify/commit costs happens via the delayed continuation in
     [commit]. Multiple kicks at the same instant are harmless: the head
     is popped before the next event runs. *)
  Sim.schedule m.sim ~delay:0 (epoch_guarded m (fun () -> commit_head m))

and commit_head m =
  if not m.commit_busy then
    match Queue.peek_opt m.window with
    | None -> if m.m_dead then start_squash m Master_dead
    | Some cp when cp.cp_finished -> verify m cp (Option.get cp.cp_task)
    | Some _ -> ()

and verify m cp task =
  let n_live_ins = Task.live_in_size task in
  m.stats.live_ins_checked <- m.stats.live_ins_checked + n_live_ins;
  let completed = completed task in
  let consistent = completed && Task.live_ins_consistent task m.arch in
  if m.tracing then begin
    let outcome =
      if consistent then Trace.Pass
      else if completed then
        match Task.first_inconsistent task m.arch with
        | Some (c, predicted, actual) ->
          Trace.Mismatch { cell = Cell.show c; predicted; actual }
        | None -> assert false (* inconsistent => a witness exists *)
      else
        match task.Task.status with
        | Task.Failed r -> Trace.Incomplete (trace_reason (Task_failed r))
        | Task.Running | Task.Complete _ -> assert false
    in
    m.emit
      (Trace.Verify
         { cycle = now m; task = cp.cp_id; live_ins = n_live_ins; outcome })
  end;
  (match m.predictor with None -> () | Some p -> attribute m p cp task);
  if consistent then commit m cp task n_live_ins
  else
    start_squash m ~task:cp.cp_id
      (match task.Task.status with
      | Task.Complete _ -> Live_in_mismatch
      | Task.Failed r -> Task_failed r
      | Task.Running -> assert false)

(* Value-prediction attribution and online training: every recorded
   first-read is one per-cell prediction; its actual value is what
   architected state holds right now (the task's true start point,
   whether or not this task commits). *)
and attribute m p cp task =
  let hits = ref 0 and misses = ref 0 in
  Task.iter_reads
    (fun c v ->
      match c with
      | Cell.Pc -> ()
      | Cell.Reg _ | Cell.Mem _ ->
        let actual = Full.get m.arch c in
        (* score the incumbent first: how good was the master's own
           value for this cell (pre-refinement)? *)
        (match Fragment.find_opt c cp.cp_master_li with
        | Some supplied -> Predict.observe_master p c ~supplied ~actual
        | None -> ());
        Predict.observe p c actual;
        if v = actual then incr hits else incr misses)
    task;
  m.stats.predict_hits <- m.stats.predict_hits + !hits;
  m.stats.predict_misses <- m.stats.predict_misses + !misses;
  if m.tracing then
    m.emit
      (Trace.Predict_outcome
         { cycle = now m; task = cp.cp_id; hits = !hits; misses = !misses })

and commit m cp task n_live_ins =
  (* the memoization hit: superimpose the live-outs *)
  ignore (Queue.pop m.window : checkpoint);
  Task.commit_into task m.arch;
  maybe_corrupt_commit m cp.cp_id task;
  let n_outs = Task.live_out_size task in
  let executed = task.Task.executed in
  m.fruitless_squashes <- 0;
  if m.tracing then
    m.emit
      (Trace.Commit
         {
           cycle = now m;
           task = cp.cp_id;
           instructions = executed;
           live_outs = n_outs;
         });
  let s = m.stats in
  s.tasks_committed <- s.tasks_committed + 1;
  s.instructions_committed <- s.instructions_committed + executed;
  s.live_outs_committed <- s.live_outs_committed + n_outs;
  s.task_sizes <- executed :: s.task_sizes;
  s.live_in_counts <- n_live_ins :: s.live_in_counts;
  advance_shadow m executed;
  match task.Task.status with
  | Task.Complete Task.Program_halted -> halt m Halted
  | Task.Complete Task.Reached_boundary | Task.Running | Task.Failed _ ->
    let t = m.cfg.timing in
    let ceil_div a b = (a + b - 1) / max 1 b in
    let cost =
      t.verify_base
      + (t.verify_per_live_in * ceil_div n_live_ins t.verify_parallelism)
      + t.commit_base
      + (t.commit_per_live_out * ceil_div n_outs t.commit_parallelism)
    in
    m.commit_busy <- true;
    Sim.schedule m.sim ~delay:cost
      (epoch_guarded m (fun () ->
           m.commit_busy <- false;
           wake_master m;
           commit_head m))

(* [Commit_corrupt]: the DELIBERATELY broken verify/commit unit. After a
   verified commit, corrupt one committed memory live-out in architected
   state — the machine bug the differential fuzzer's mutation smoke test
   must catch (and shrink). The one non-absorbable surface. *)
and maybe_corrupt_commit m cp_id task =
  match m.inj with
  | None -> ()
  | Some i -> (
    match Inject.fire i Fplan.Commit_corrupt ~cycle:(now m) with
    | Some a -> (
      match mem_bindings (Task.writes_fragment task) with
      | [] -> ()
      | l ->
        let c, v = List.nth l (cp_id mod List.length l) in
        fault_event m a "commit_corrupt" (Some cp_id);
        Full.set m.arch c (v lxor 0x2A))
    | None -> ())

(* a freed window slot takes the parked checkpoint and restarts the
   master *)
and wake_master m =
  match m.m_pending with
  | Some (e, li) ->
    m.m_pending <- None;
    spawn_or_wait m e li
  | None -> ()

(* --- squash and recovery ----------------------------------------- *)

and start_squash ?task m reason =
  let s = m.stats in
  s.squashes <- s.squashes + 1;
  (match reason with
  | Live_in_mismatch -> s.squash_mismatch <- s.squash_mismatch + 1
  | Task_failed _ -> s.squash_task_failed <- s.squash_task_failed + 1
  | Master_dead -> s.squash_master_dead <- s.squash_master_dead + 1);
  (* the Squash event and the discarded count ride with the stats bump,
     not with the recovery: even a squash that trips [max_squashes] (and
     therefore never recovers) throws its window away *)
  s.tasks_discarded <- s.tasks_discarded + Queue.length m.window;
  if m.tracing then
    m.emit
      (Trace.Squash
         {
           cycle = now m;
           task;
           reason = trace_reason reason;
           discarded = Queue.length m.window;
         });
  if s.squashes > m.cfg.max_squashes then halt m Squash_limit
  else start_recovery m

and start_recovery m =
  discard m;
  let outcome, cycles = recovery_segment m in
  match outcome with
  | `Stopped ->
    (* the program halted (or faulted) during recovery: done *)
    Sim.schedule m.sim ~delay:cycles (guarded m (fun () -> halt m Halted))
  | `Fuel -> halt m Recovery_fuel
  | `At_entry -> (
    match Distill.distilled_entry_for m.d (Full.pc m.arch) with
    | None ->
      (* no distilled entry here (shouldn't happen: entries are filtered
         to mapped ones) — keep recovering *)
      Sim.schedule m.sim ~delay:cycles
        (epoch_guarded m (fun () -> start_recovery m))
    | Some dpc ->
      reseed m dpc;
      if m.tracing then m.emit (Trace.Restart { cycle = now m; pc = dpc });
      Sim.schedule m.sim
        ~delay:(cycles + m.cfg.timing.restart_latency)
        (epoch_guarded m (fun () -> master_run m)))

(* Discard all speculative work: the window, the slaves, the L1s and the
   master's pending checkpoint. *)
and discard m =
  Sim.bump_epoch m.sim;
  Queue.clear m.window;
  m.last_cp <- None;
  Array.fill m.slave_free 0 m.cfg.slaves true;
  Hierarchy.invalidate_l1 m.master_cache;
  Array.iter Hierarchy.invalidate_l1 m.slave_caches;
  m.m_dead <- false;
  m.m_pending <- None;
  m.commit_busy <- false

(* Non-speculative execution on architected state: at least one
   instruction, then up to the next task entry (or the program's halt).
   Every squash therefore makes forward progress. In dual mode, a run of
   fruitless squashes extends the segment into a long sequential burst —
   the machine's "revert to normal execution" escape hatch. Returns the
   segment's outcome and cycles. *)
and recovery_segment m =
  let cfg = m.cfg and s = m.stats in
  m.fruitless_squashes <- m.fruitless_squashes + 1;
  let min_steps =
    if cfg.dual_mode && m.fruitless_squashes >= cfg.dual_trigger then begin
      s.sequential_bursts <- s.sequential_bursts + 1;
      cfg.dual_burst
    end
    else 0
  in
  let from_pc = Full.pc m.arch in
  let sm = Seq_machine.of_state ~decode:m.decode m.arch in
  let outcome =
    Seq_machine.run_until sm ~fuel:cfg.recovery_fuel ~min_steps
      ~at:(Hashtbl.mem m.entries)
  in
  let steps = sm.Seq_machine.instructions in
  s.recovery_segments <- s.recovery_segments + 1;
  s.recovery_instructions <- s.recovery_instructions + steps;
  s.sequential_instructions <- s.sequential_instructions + min steps min_steps;
  if m.tracing then
    m.emit
      (Trace.Recovery
         {
           cycle = now m;
           instructions = steps;
           from_pc;
           to_pc = Full.pc m.arch;
           loads = sm.Seq_machine.loads;
           stores = sm.Seq_machine.stores;
           burst = min_steps > 0;
         });
  advance_shadow m steps;
  (outcome, steps * (cfg.timing.slave_base + cfg.timing.recovery_per_instr))

(* Restart the master from architected state at distilled PC [dpc]. *)
and reseed m dpc =
  m.m_state <- Full.copy m.arch;
  m.m_dirty <- Fragment.empty;
  m.m_since_cp <- m.cfg.task_size;
  Hashtbl.reset m.m_passes;
  Full.set_pc m.m_state dpc

(* Settle the stop reason, then emit the end-of-run counter samples and
   exactly one Halt — every run, whatever the stop reason, closes its
   stream the same way. *)
let close m (outcome : Sim.outcome) =
  (* a queue that drained before the machine stopped means it wedged:
     report it rather than masquerade as a clean halt *)
  if Option.is_none m.stop then
    halt m
      (match outcome with Sim.Drained -> Wedged | Sim.Hit_limit -> Cycle_limit);
  let stop = Option.get m.stop in
  if m.tracing then begin
    let cycle = m.stats.cycles in
    let slave_l1 =
      Array.fold_left
        (fun (a, n) h ->
          let s = Hierarchy.l1_stats h in
          (a + s.Mssp_cache.Cache.accesses, n + s.Mssp_cache.Cache.misses))
        (0, 0) m.slave_caches
    in
    let master_l1 = Hierarchy.l1_stats m.master_cache in
    let l2 = Hierarchy.l2_stats m.master_cache in
    List.iter
      (fun (name, value) -> m.emit (Trace.Counter { cycle; name; value }))
      [
        ("cache.master_l1_accesses", master_l1.Mssp_cache.Cache.accesses);
        ("cache.master_l1_misses", master_l1.Mssp_cache.Cache.misses);
        ("cache.slaves_l1_accesses", fst slave_l1);
        ("cache.slaves_l1_misses", snd slave_l1);
        ("cache.shared_l2_accesses", l2.Mssp_cache.Cache.accesses);
        ("cache.shared_l2_misses", l2.Mssp_cache.Cache.misses);
        ("mem.arch_live_pages", Full.live_pages m.arch);
        ("mem.arch_overflow_words", Full.overflow_words m.arch);
        ("sim.events_scheduled", Sim.scheduled m.sim);
        ("sim.events_executed", Sim.executed m.sim);
        ("sim.epochs", Sim.epoch m.sim);
      ];
    m.emit (Trace.Halt { cycle; stop = stop_string stop })
  end;
  { arch = m.arch; stop; stats = m.stats; refinement_violations = m.violations }

let run ?(config = Mssp_config.default) d =
  let m = create config d in
  Sim.schedule m.sim ~delay:0 (guarded m (fun () -> master_run m));
  close m (Sim.run ~limit:config.max_cycles m.sim)

let total_committed (r : result) =
  r.stats.instructions_committed + r.stats.recovery_instructions

let mean_of = function
  | [] -> 0.0
  | l ->
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let mean_task_size (r : result) = mean_of r.stats.task_sizes
let mean_live_ins (r : result) = mean_of r.stats.live_in_counts

let squash_rate (r : result) =
  if r.stats.tasks_committed = 0 then float_of_int r.stats.squashes
  else float_of_int r.stats.squashes /. float_of_int r.stats.tasks_committed

let slave_occupancy (r : result) ~config =
  let total = r.stats.cycles * config.Mssp_config.slaves in
  if total = 0 then 0.0
  else float_of_int r.stats.slave_busy_cycles /. float_of_int total

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>cycles: %d@,\
     master instructions: %d@,\
     tasks: %d spawned, %d committed, %d discarded@,\
     instructions committed via tasks: %d (+%d recovery)@,\
     squashes: %d (mismatch %d, failed %d, master-dead %d)@,\
     sequential bursts: %d (%d instructions), faults injected: %d@,\
     live-ins checked: %d, live-outs committed: %d@,\
     value prediction: %d hits, %d misses@,\
     slave busy cycles: %d@]"
    s.cycles s.master_instructions s.tasks_spawned s.tasks_committed
    s.tasks_discarded s.instructions_committed s.recovery_instructions
    s.squashes s.squash_mismatch s.squash_task_failed s.squash_master_dead
    s.sequential_bursts s.sequential_instructions s.faults_injected
    s.live_ins_checked s.live_outs_committed
    s.predict_hits s.predict_misses s.slave_busy_cycles
