module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Live_in = Mssp_state.Live_in
module Dirty = Mssp_state.Dirty
module Mem_log = Mssp_state.Mem_log
module Full = Mssp_state.Full
module Instr = Mssp_isa.Instr
module Seq_machine = Mssp_seq.Machine
module Exec = Mssp_seq.Exec
module Program = Mssp_isa.Program
module Task = Mssp_task.Task
module Journal = Mssp_task.Journal
module Distill = Mssp_distill.Distill
module Sim = Mssp_sim_engine.Sim
module Hierarchy = Mssp_cache.Cache.Hierarchy
module Trace = Mssp_trace.Trace
module Fplan = Mssp_faults.Plan
module Inject = Mssp_faults.Injector

type stats = {
  cycles : int;
  master_instructions : int;
  tasks_spawned : int;
  tasks_committed : int;
  instructions_committed : int;
  tasks_discarded : int;
  squashes : int;
  squash_mismatch : int;
  squash_task_failed : int;
  squash_master_dead : int;
  recovery_segments : int;
  recovery_instructions : int;
  sequential_bursts : int;
  sequential_instructions : int;
  faults_injected : int;
  live_ins_checked : int;
  live_outs_committed : int;
  predict_hits : int;
  predict_misses : int;
  slave_busy_cycles : int;
  task_sizes : int list;
  live_in_counts : int list;
}

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
  cp_live_in : Live_in.t;
  mutable cp_end_pc : int option;
      (** the end PC once the end boundary is known; [None] when the
          master died first *)
  mutable cp_end_occurrence : int;
      (** 0 until the end boundary is known, then which arrival at
          [cp_end_pc] is the boundary: the master's count of its own
          passes over that marker within this task *)
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
  summary : Trace.Summary.t;
      (** the fold of every event this run emits: the source of every
          [stats] field an event carries *)
  arch : Full.t;
      (** architected state, holding BOTH images: the original program
          (PC at its entry) and the distilled program (the master's code
          is ordinary memory, as on the real machine) *)
  shadow : Full.t option;  (** SEQ twin of [arch] ([verify_refinement]) *)
  mutable violations : int;
  decode : pc:int -> word:int -> Instr.t option;
      (** the master's, the slaves' and recovery's decoder: pre-decoded
          images of both programs, checked against each fetched word *)
  code_lo : int;
  code_hi : int;  (** the distilled image's addresses: [code_lo, code_hi) *)
  entries : (int, unit) Hashtbl.t;  (** task entries: recovery stops here *)
  inj : Inject.t option;
      (** the fault plan's injector; [None] makes every fault site one
          predictable branch *)
  mutable stop : stop_reason option;  (** [None] while the machine runs *)
  mutable interrupt_countdown : int;
  (* the counts no event carries *)
  mutable cycles : int;  (** the clock at the stop *)
  mutable master_instructions : int;
  mutable sequential_instructions : int;
  mutable faults_injected : int;  (** quiet plan actions emit no event *)
  mutable task_sizes : int list;
  mutable live_in_counts : int list;
  (* master *)
  master_cache : Hierarchy.t;  (** owns the shared L2 the slaves attach to *)
  mutable m_state : Full.t;
  m_dirty : Dirty.t;
      (** memory the master wrote since its last seed, one write layer
          per fork interval. Cumulative, so a checkpoint's live-in
          prediction covers everything the slave may need from any older
          in-flight task (the hardware's speculative version forwarding).
          Each checkpoint's live-in views the layers up to its own fork;
          a commit folds the layers no live checkpoint predates *)
  m_store : int -> int -> unit;
      (** the timed step's store hook: into [m_dirty] when live-ins view
          it, else nothing *)
  mutable m_dead : bool;
  mutable m_pending : (int * Live_in.t) option;
      (** a checkpoint parked by a full window; the master waits *)
  mutable m_since_cp : int;
      (** instructions since the last checkpoint — the task-size pacing
          counter; [Fork] markers are skipped while it is below
          [cfg.task_size] *)
  m_passes : Mem_log.t;
      (** per-boundary-site marker passes since the last checkpoint;
          tells the slave which arrival at the end PC is the boundary *)
  (* window and slaves *)
  window : checkpoint Queue.t;
  mutable last_cp : checkpoint option;
  mutable next_cp_id : int;
  slave_caches : Hierarchy.t array;
  slave_free : bool array;
  mutable spare_journals : (Journal.t * Journal.t) list;
      (** cleared reads/writes pairs, handed back by commit and discard:
          at most one pair per window slot is ever allocated, and a
          recycled pair keeps the capacity earlier bodies grew *)
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

let create ?(wrap_store = Fun.id) (cfg : Mssp_config.t) (d : Distill.t) =
  let t = cfg.timing in
  let sim = Sim.create () in
  let arch = Full.create () in
  Full.load arch d.original;
  Full.load ~set_entry:false arch d.distilled;
  let shadow = if cfg.verify_refinement then Some (Full.copy arch) else None in
  let master_cache = Hierarchy.make ~l1:t.l1 ~lat:t.lat () in
  let m_state = Full.copy arch in
  Full.set_pc m_state d.distilled.entry;
  let entries = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace entries e ()) d.task_entries;
  let m_dirty = Dirty.create () in
  {
    cfg;
    d;
    sim;
    summary = Trace.Summary.create ();
    arch;
    shadow;
    violations = 0;
    decode =
      Program.image_decoder
        [ Program.decode_all d.distilled; Program.decode_all d.original ];
    code_lo = d.distilled.base;
    code_hi = Program.limit d.distilled;
    entries;
    inj = Option.map Inject.make cfg.faults;
    stop = None;
    interrupt_countdown = interrupt_stride;
    cycles = 0;
    master_instructions = 0;
    sequential_instructions = 0;
    faults_injected = 0;
    task_sizes = [];
    live_in_counts = [];
    master_cache;
    m_state;
    m_dirty;
    m_store =
      wrap_store
        (if cfg.control_only_master then Exec.no_store
         else fun a v -> Dirty.store m_dirty a v);
    m_dead = false;
    m_pending = None;
    m_since_cp = cfg.task_size (* fork immediately at start *);
    m_passes = Mem_log.create ~size:8 ();
    window = Queue.create ();
    last_cp = None;
    next_cp_id = 0;
    slave_caches =
      Array.init cfg.slaves (fun _ ->
          Hierarchy.make_shared ~l1:t.l1 ~lat:t.lat ~l2:master_cache ());
    slave_free = Array.make cfg.slaves true;
    spare_journals = [];
    commit_busy = false;
    fruitless_squashes = 0;
  }

let now m = Sim.now m.sim

let halt m reason =
  m.stop <- Some reason;
  (* later-scheduled events are dead; the machine's time is now *)
  m.cycles <- now m

(* Every event goes into the run's fold, then to the recording sinks. *)
let emit m ev =
  Trace.Summary.add m.summary ev;
  match m.cfg.tracer with None -> () | Some tr -> Trace.emit tr ev

(* Event admission, run by [Sim.run] before every event, stale ones
   included: drop every event once the machine has stopped, stop on the
   cycle limit, and poll the cooperative cancellation hook. [Sim.run]
   then drops stale (squashed) events: those [Sim.schedule_guarded]
   stamped with an epoch a squash has since bumped. *)
let admit m () =
  match m.stop with
  | Some _ -> false
  | None -> (
    if now m > m.cfg.max_cycles then begin
      halt m Cycle_limit;
      false
    end
    else
      match m.cfg.interrupt with
      | None -> true
      | Some poll ->
        m.interrupt_countdown <- m.interrupt_countdown - 1;
        if m.interrupt_countdown > 0 then true
        else begin
          m.interrupt_countdown <- interrupt_stride;
          match poll () with
          | Some why ->
            halt m (Interrupted why);
            false
          | None -> true
        end)

let advance_shadow m k =
  match m.shadow with
  | None -> ()
  | Some sh ->
    ignore (Seq_machine.seq_in_place sh k : Seq_machine.stop option);
    if not (Full.equal_observable sh m.arch) then
      m.violations <- m.violations + 1

let fault_event m a surface task =
  m.faults_injected <- m.faults_injected + 1;
  if not a.Fplan.quiet then emit m (Trace.Fault { cycle = now m; surface; task })

(* why a failed task squashes, rendered once for its Verify and Squash *)
let failure_reason = function
  | Task.Budget_exhausted -> Trace.Fuel_exhausted
  | Task.Fault f -> Trace.Task_fault (Format.asprintf "%a" Exec.pp_fault f)
  | Task.Io_speculative c -> Trace.Speculative_io (Cell.show c)

(* The live-in a master in state [s], having written [dirty] since its
   last seed, ships at a fork to [entry]: the PC alone for a
   control-only master, else the PC, its registers and a view of
   [dirty], sealed here. *)
let checkpoint_live_in (cfg : Mssp_config.t) ~entry s ~dirty =
  if cfg.control_only_master then Live_in.of_pc entry
  else Live_in.checkpoint ~pc:entry s dirty

(* The event handlers of the four parts call and schedule one another,
   so they form one recursive group, in four sections. *)

(* --- master ------------------------------------------------------ *)

let rec master_run m =
  if not m.m_dead && Option.is_none m.m_pending then
    master_go m m.cfg.master_chunk 0

(* Up to [budget] more functional master instructions, [cost] cycles
   accumulated so far. The master-side PC map redirects jumps that landed
   in original code (indirect returns) back into distilled code; it maps
   original-code PCs only, so a PC inside the distilled image (two
   compares) skips the probe. The word is fetched and decoded once:
   markers and death cost nothing, and every other instruction runs
   through the closure-free timed step, which charges the fetch and the
   data accesses.

   A jump to itself ([jmp 0], the idle master) is run once and its
   other [budget - 1] trips are accounted in closed form, then the
   run-away guard stops the master as the step-by-step loop would: the
   jump changes no state, each further trip decodes the same word at
   the same PC (re-mapped the same way, if at all) and fetches the
   line its first trip left as the L1's newest, and nothing else runs
   inside this synchronous loop. *)
and master_go m budget cost =
  if budget = 0 then
    (* run-away master: no checkpoint for a whole chunk *)
    master_stop m cost
  else begin
    let pc0 = Full.pc m.m_state in
    let pc =
      if pc0 >= m.code_lo && pc0 < m.code_hi then pc0
      else
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
        Mem_log.clear m.m_passes;
        m.m_since_cp <- 0;
        let li = checkpoint_live_in m.cfg ~entry:e m.m_state ~dirty:m.m_dirty in
        Sim.schedule_guarded m.sim ~delay:(cost + m.cfg.timing.master_base)
          (fun () -> handle_fork m e li occurrence)
      end
    | Some (Instr.Jmp 0 as instr)
      when (pc >= m.code_lo && pc < m.code_hi)
           || not (Hashtbl.mem m.d.pc_map pc) ->
      let c =
        Exec.timed_exec m.master_cache ~on_store:m.m_store m.m_state ~pc instr
      in
      let n = budget - 1 in
      let idle = Hierarchy.repeat_hits m.master_cache n in
      m.master_instructions <- m.master_instructions + budget;
      m.m_since_cp <- m.m_since_cp + budget;
      master_stop m
        (cost + (budget * m.cfg.timing.master_base) + c + idle)
    | Some instr ->
      let c =
        Exec.timed_exec m.master_cache ~on_store:m.m_store m.m_state ~pc instr
      in
      m.master_instructions <- m.master_instructions + 1;
      m.m_since_cp <- m.m_since_cp + 1;
      master_go m (budget - 1) (cost + m.cfg.timing.master_base + c)
  end

and master_note_pass m e =
  let i = Mem_log.index m.m_passes e in
  if i >= 0 then begin
    let n = Mem_log.get m.m_passes i + 1 in
    Mem_log.set_at m.m_passes i n;
    n
  end
  else begin
    Mem_log.add m.m_passes e 1;
    1
  end

(* Death (halt, fault or run-away): the master stops until a recovery
   reseeds it, and the last checkpoint's task runs to the program's end. *)
and master_stop m cost =
  m.m_dead <- true;
  emit m (Trace.Master_stop { cycle = now m; pc = Full.pc m.m_state });
  Sim.schedule_guarded m.sim ~delay:cost (fun () -> on_master_dead m)

and on_master_dead m =
  (match m.last_cp with
  | Some cp when cp.cp_end_occurrence = 0 ->
    cp.cp_end_pc <- None;
    cp.cp_end_occurrence <- 1
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
  | Some cp when cp.cp_end_occurrence = 0 ->
    cp.cp_end_pc <- Some e;
    cp.cp_end_occurrence <- occurrence;
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

and spawn m e li =
  let id = m.next_cp_id in
  let cp =
    {
      cp_id = id;
      cp_entry = e;
      cp_live_in = maybe_corrupt m id li;
      cp_end_pc = None;
      cp_end_occurrence = 0;
      cp_task = None;
      cp_finished = false;
    }
  in
  m.next_cp_id <- id + 1;
  emit m (Trace.Fork { cycle = now m; task = id; entry = e });
  (* the prediction as the slave will see it: post fault injection. The
     run's own fold reads only its size; a tracer's sinks may keep it
     past the checkpoint, so they get its fork interval's writes *)
  let live_in =
    match m.cfg.tracer with
    | None -> cp.cp_live_in
    | Some _ -> Live_in.shipped cp.cp_live_in
  in
  emit m (Trace.Predict { cycle = now m; task = id; live_in });
  Queue.add cp m.window;
  m.last_cp <- Some cp;
  try_start_tasks m

(* Checkpoint live-in faults, applied at spawn: [Live_in_corrupt] xors
   one binding, counted in cell order (the legacy soft-error model,
   stream preserved), [Mem_bit_flip] flips one bit of one memory
   binding. Both land in the speculative domain only — verification
   must absorb them. *)
and maybe_corrupt m cp_id li =
  match m.inj with
  | None -> li
  | Some i -> (
    let li =
      match Inject.fire i Fplan.Live_in_corrupt ~cycle:(now m) with
      | Some a when Live_in.cardinal li > 0 ->
        let bindings = Fragment.to_list (Live_in.to_fragment li) in
        let c, v = List.nth bindings (cp_id mod List.length bindings) in
        fault_event m a "live_in_corrupt" (Some cp_id);
        Live_in.add c (v lxor 0x5A5A5A5A) li
      | Some _ | None -> li
    in
    match Inject.fire i Fplan.Mem_bit_flip ~cycle:(now m) with
    | Some a -> (
      match Live_in.fold mem_binding li [] with
      | [] -> li
      | l ->
        let c, v = List.nth l (cp_id mod List.length l) in
        let bit =
          (if a.Fplan.magnitude > 0 then a.Fplan.magnitude else cp_id) mod 62
        in
        fault_event m a "mem_bit_flip" (Some cp_id);
        Live_in.add c (v lxor (1 lsl bit)) li)
    | None -> li)

and mem_binding c v acc = if Cell.is_mem c then (c, v) :: acc else acc

and try_start_tasks m =
  (* One pass over the window: each startable checkpoint gets a free
     slave, its body runs inline (charging that slave's cache), and
     its completion is scheduled — all in window order, so slave
     numbering, cache traffic and the event heap's FIFO order follow
     the window. *)
  Queue.iter
    (fun cp ->
      if Option.is_none cp.cp_task && cp.cp_end_occurrence > 0 then begin
        let s = find_free_slave m 0 in
        if s >= 0 then start_task m cp s
      end)
    m.window

(* the lowest-numbered free slave, or -1 *)
and find_free_slave m i =
  if i = m.cfg.slaves then -1
  else if m.slave_free.(i) then i
  else find_free_slave m (i + 1)

and start_task m cp s =
  m.slave_free.(s) <- false;
  let reads, writes = take_journals m in
  let task =
    Task.make ~id:cp.cp_id ~start_pc:cp.cp_entry ~end_pc:cp.cp_end_pc
      ~end_occurrence:cp.cp_end_occurrence ~budget:m.cfg.task_budget
      ~live_in:cp.cp_live_in ~decode:m.decode ~reads ~writes
  in
  cp.cp_task <- Some task;
  let cost = run_task_body m s task in
  emit m (Trace.Slave_start { cycle = now m; task = cp.cp_id; slave = s });
  let t = m.cfg.timing in
  let total = t.spawn_latency + (t.slave_base * task.Task.executed) + cost in
  Sim.schedule_guarded m.sim ~delay:total (fun () ->
      cp.cp_finished <- true;
      emit m
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
      commit_kick m)

and take_journals m =
  match m.spare_journals with
  | pair :: rest ->
    m.spare_journals <- rest;
    pair
  | [] -> (Journal.create ~mem_size:16 (), Journal.create ~mem_size:16 ())

(* a task the machine is done with hands its journals back, cleared *)
and recycle m task =
  let r = task.Task.reads and w = task.Task.writes in
  Journal.clear r;
  Journal.clear w;
  m.spare_journals <- (r, w) :: m.spare_journals

(* Run one task body on slave [s], charging its Mem accesses to that
   slave's cache as it goes; returns the cache cost. *)
and run_task_body m s task =
  let cache = m.slave_caches.(s) in
  let cost = ref 0 in
  let on_access a = cost := !cost + Hierarchy.access cache a in
  ignore (Task.run ~on_access task m.arch : Task.status);
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
  Sim.schedule_guarded m.sim ~delay:0 (fun () -> commit_head m)

and commit_head m =
  if not m.commit_busy then
    match Queue.peek_opt m.window with
    | None -> if m.m_dead then start_squash m Trace.Master_dead
    | Some cp when cp.cp_finished -> verify m cp (Option.get cp.cp_task)
    | Some _ -> ()

and verify m cp task =
  let live_ins = Task.live_in_size task in
  let outcome =
    match task.Task.status with
    | Task.Complete _ when Task.live_ins_consistent task m.arch -> Trace.Pass
    | Task.Complete _ -> (
      match Task.first_inconsistent task m.arch with
      | Some (c, predicted, actual) ->
        Trace.Mismatch { cell = Cell.show c; predicted; actual }
      | None -> assert false (* inconsistent => a witness exists *))
    | Task.Failed r -> Trace.Incomplete (failure_reason r)
    | Task.Running -> assert false
  in
  emit m (Trace.Verify { cycle = now m; task = cp.cp_id; live_ins; outcome });
  match outcome with
  | Trace.Pass -> commit m cp task live_ins
  | Trace.Mismatch _ -> start_squash m ~task:cp.cp_id Trace.Bad_prediction
  | Trace.Incomplete r -> start_squash m ~task:cp.cp_id r

and commit m cp task n_live_ins =
  (* the memoization hit: superimpose the live-outs *)
  ignore (Queue.pop m.window : checkpoint);
  Task.commit_into task m.arch;
  maybe_corrupt_commit m cp.cp_id task;
  let n_outs = Task.live_out_size task in
  let executed = task.Task.executed in
  m.fruitless_squashes <- 0;
  emit m
    (Trace.Commit
       {
         cycle = now m;
         task = cp.cp_id;
         instructions = executed;
         live_outs = n_outs;
       });
  m.task_sizes <- executed :: m.task_sizes;
  m.live_in_counts <- n_live_ins :: m.live_in_counts;
  advance_shadow m executed;
  recycle m task;
  (* the master's layers no live checkpoint predates; a parked or
     in-flight fork's own layer is the newest sealed, which never folds.
     A fault-injected live-in keeps its fork's level ([Live_in.add]) *)
  Dirty.fold m.m_dirty
    ~upto:
      (if Queue.is_empty m.window then max_int
       else (Queue.peek m.window).cp_live_in.Live_in.level);
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
    Sim.schedule_guarded m.sim ~delay:cost (fun () ->
        m.commit_busy <- false;
        wake_master m;
        commit_head m)

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
      match Fragment.fold mem_binding (Task.writes_fragment task) [] with
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
  (* the Squash event carries the window it throws away, even when the
     squash trips [max_squashes] and therefore never recovers *)
  emit m
    (Trace.Squash
       { cycle = now m; task; reason; discarded = Queue.length m.window });
  if m.summary.squashes > m.cfg.max_squashes then halt m Squash_limit
  else start_recovery m

and start_recovery m =
  discard m;
  let outcome, cycles = recovery_segment m in
  match outcome with
  | `Stopped ->
    (* the program halted (or faulted) during recovery: done *)
    Sim.schedule m.sim ~delay:cycles (fun () -> halt m Halted)
  | `Fuel -> halt m Recovery_fuel
  | `At_entry -> (
    match Distill.distilled_entry_for m.d (Full.pc m.arch) with
    | None ->
      (* no distilled entry here (shouldn't happen: entries are filtered
         to mapped ones) — keep recovering *)
      Sim.schedule_guarded m.sim ~delay:cycles (fun () -> start_recovery m)
    | Some dpc ->
      reseed m dpc;
      emit m (Trace.Restart { cycle = now m; pc = dpc });
      Sim.schedule_guarded m.sim
        ~delay:(cycles + m.cfg.timing.restart_latency)
        (fun () -> master_run m))

(* Discard all speculative work: the window (its started tasks' journals
   go back to the free list), the slaves, the L1s and the master's
   pending checkpoint. *)
and discard m =
  Sim.bump_epoch m.sim;
  Queue.iter
    (fun cp -> match cp.cp_task with Some t -> recycle m t | None -> ())
    m.window;
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
  let cfg = m.cfg in
  m.fruitless_squashes <- m.fruitless_squashes + 1;
  let min_steps =
    if cfg.dual_mode && m.fruitless_squashes >= cfg.dual_trigger then
      cfg.dual_burst
    else 0
  in
  let from_pc = Full.pc m.arch in
  let sm = Seq_machine.of_state ~decode:m.decode m.arch in
  let outcome =
    Seq_machine.run_until sm ~fuel:cfg.recovery_fuel ~min_steps
      ~at:(Hashtbl.mem m.entries)
  in
  let steps = sm.Seq_machine.instructions in
  m.sequential_instructions <- m.sequential_instructions + min steps min_steps;
  emit m
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
  Dirty.reset m.m_dirty;
  m.m_since_cp <- m.cfg.task_size;
  Mem_log.clear m.m_passes;
  Full.set_pc m.m_state dpc

(* Settle the stop reason, emit the end-of-run counter samples and
   exactly one Halt — every run, whatever the stop reason, closes its
   stream the same way — then read the stats off the closed fold. *)
let close m (outcome : Sim.outcome) =
  (* a queue that drained before the machine stopped means it wedged:
     report it rather than masquerade as a clean halt *)
  if Option.is_none m.stop then
    halt m
      (match outcome with Sim.Drained -> Wedged | Sim.Hit_limit -> Cycle_limit);
  let stop = Option.get m.stop in
  let cycle = m.cycles in
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
    (fun (name, value) -> emit m (Trace.Counter { cycle; name; value }))
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
  emit m (Trace.Halt { cycle; stop = stop_string stop });
  let f = m.summary in
  let stats =
    {
      cycles = m.cycles;
      master_instructions = m.master_instructions;
      tasks_spawned = f.forks;
      tasks_committed = f.commits;
      instructions_committed = f.committed_instructions;
      tasks_discarded = f.discarded;
      squashes = f.squashes;
      squash_mismatch = Trace.Summary.squash_mismatch f;
      squash_task_failed = Trace.Summary.squash_task_failed f;
      squash_master_dead = Trace.Summary.squash_master_dead f;
      recovery_segments = f.recoveries;
      recovery_instructions = f.recovery_instructions;
      sequential_bursts = f.bursts;
      sequential_instructions = m.sequential_instructions;
      faults_injected = m.faults_injected;
      live_ins_checked = f.live_ins_checked;
      live_outs_committed = f.committed_live_outs;
      predict_hits = 0;
      predict_misses = 0;
      slave_busy_cycles = f.slave_busy_cycles;
      task_sizes = m.task_sizes;
      live_in_counts = m.live_in_counts;
    }
  in
  { arch = m.arch; stop; stats; refinement_violations = m.violations }

let run ?(config = Mssp_config.default) ?wrap_store d =
  let m = create ?wrap_store config d in
  Sim.schedule m.sim ~delay:0 (fun () -> master_run m);
  close m (Sim.run ~limit:config.max_cycles ~admit:(admit m) m.sim)

let fold_check ~dropped (s : Trace.Summary.t) (st : stats) =
  if dropped > 0 then
    Printf.sprintf
      "stream truncated: the first %d events were dropped; fold not \
       compared with machine stats\n"
      dropped
  else
    Printf.sprintf "fold matches machine stats: %b\n"
      (s.commits = st.tasks_committed
      && s.squashes = st.squashes
      && Trace.Summary.squash_mismatch s = st.squash_mismatch
      && Trace.Summary.squash_task_failed s = st.squash_task_failed
      && Trace.Summary.squash_master_dead s = st.squash_master_dead
      && s.discarded = st.tasks_discarded)

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

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>cycles: %d@,\
     master instructions: %d@,\
     tasks: %d spawned, %d committed, %d discarded@,\
     instructions committed via tasks: %d (+%d recovery)@,\
     squashes: %d (mismatch %d, failed %d, master-dead %d)@,\
     sequential bursts: %d (%d instructions), faults injected: %d@,\
     live-ins checked: %d, live-outs committed: %d@,\
     slave busy cycles: %d@]"
    s.cycles s.master_instructions s.tasks_spawned s.tasks_committed
    s.tasks_discarded s.instructions_committed s.recovery_instructions
    s.squashes s.squash_mismatch s.squash_task_failed s.squash_master_dead
    s.sequential_bursts s.sequential_instructions s.faults_injected
    s.live_ins_checked s.live_outs_committed s.slave_busy_cycles
