module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Instr = Mssp_isa.Instr
module Reg = Mssp_isa.Reg
module Seq_machine = Mssp_seq.Machine
module Exec = Mssp_seq.Exec
module Sblock = Mssp_seq.Sblock
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
  | Live_in_mismatch
  | Task_failed of Task.fail_reason
  | Master_dead
  | Checkpoint_lost
  | Stalled

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
  mutable spawn_retries : int;
  mutable verify_retries : int;
  mutable watchdog_squashes : int;
  mutable slaves_quarantined : int;
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
    spawn_retries = 0;
    verify_retries = 0;
    watchdog_squashes = 0;
    slaves_quarantined = 0;
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
  | Checkpoint_lost -> Trace.Checkpoint_lost
  | Stalled -> Trace.Watchdog_stall

type livelock_snapshot = {
  ll_cycle : int;
  ll_window : int;
  ll_busy_slaves : int;
  ll_quarantined : int;
  ll_master : string;
  ll_head_task : int option;
}

type stop_reason =
  | Halted
  | Cycle_limit
  | Squash_limit
  | Recovery_fuel
  | Livelock of livelock_snapshot
  | Interrupted of string
  | Wedged

let stop_string = function
  | Halted -> "halted"
  | Cycle_limit -> "cycle_limit"
  | Squash_limit -> "squash_limit"
  | Recovery_fuel -> "recovery_fuel"
  | Livelock _ -> "livelock"
  | Interrupted _ -> "interrupted"
  | Wedged -> "wedged"

let pp_livelock fmt s =
  Format.fprintf fmt
    "livelock at cycle %d: window %d, %d busy slave(s), %d quarantined, \
     master %s%s"
    s.ll_cycle s.ll_window s.ll_busy_slaves s.ll_quarantined s.ll_master
    (match s.ll_head_task with
    | Some id -> Printf.sprintf ", head task %d" id
    | None -> "")

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
  mutable cp_end : int option;
  mutable cp_end_occurrence : int;
      (** which arrival at [cp_end] is the boundary: the master's count
          of its own passes over that marker within this task *)
  mutable cp_end_known : bool;
  mutable cp_task : Task.t option;
  mutable cp_finished : bool;
  cp_extra : int;
      (** extra spawn-path latency from fault-plan delivery faults
          (checkpoint delay, drop retries with backoff) *)
  mutable cp_slave : int;  (** slave it was dispatched to, [-1] before *)
  mutable cp_verify_attempts : int;
      (** transient verify errors already retried for this task *)
  mutable cp_deferred : bool;
      (** a verify retry is scheduled; the commit unit must not
          re-examine the head until it fires *)
}

type master = {
  mutable m_state : Full.t;
  mutable m_dirty : Fragment.t;
      (** memory the master wrote since its last seed — cumulative, so a
          checkpoint's live-in prediction covers everything the slave may
          need from any older in-flight task (the hardware's speculative
          version forwarding) *)
  mutable m_dead : bool;
  mutable m_waiting : bool;
  mutable m_pending : (int * Fragment.t) option;
  mutable m_since_cp : int;
      (** instructions since the last checkpoint — the task-size pacing
          counter; [Fork] markers are skipped while it is below
          [config.task_size] *)
  m_passes : (int, int) Hashtbl.t;
      (** per-boundary-site marker passes since the last checkpoint;
          tells the slave which arrival at the end PC is the boundary *)
}

let run ?(config = Mssp_config.default) (d : Distill.t) =
  let cfg = config in
  let t = cfg.timing in
  let sim = Sim.create () in
  let stats = fresh_stats () in
  (* Architected state holds BOTH images: the original program (PC at its
     entry) and the distilled program (the master's code is ordinary
     memory, as on the real machine). *)
  let arch = Full.create () in
  Full.load arch d.original;
  Full.load ~set_entry:false arch d.distilled;
  let shadow = if cfg.verify_refinement then Some (Full.copy arch) else None in
  let violations = ref 0 in
  let advance_shadow k =
    match shadow with
    | None -> ()
    | Some sh ->
      ignore (Seq_machine.seq_in_place sh k : Seq_machine.stop option);
      if not (Full.equal_observable sh arch) then incr violations
  in
  (* caches: master's hierarchy owns the shared L2; slaves attach to it *)
  let master_cache = Hierarchy.make ~l1:t.l1 ~lat:t.lat () in
  let slave_caches =
    Array.init cfg.slaves (fun _ ->
        Hierarchy.make_shared ~l1:t.l1 ~lat:t.lat ~l2:master_cache ())
  in
  let slave_free = Array.make cfg.slaves true in
  (* per-slave quarantine state: a benched slave is never assigned again *)
  let quarantined = Array.make cfg.slaves false in
  let slave_streak = Array.make cfg.slaves 0 in
  let healthy_slaves = ref cfg.slaves in
  let find_free_slave () =
    let rec go i =
      if i = cfg.slaves then None
      else if slave_free.(i) && not quarantined.(i) then Some i
      else go (i + 1)
    in
    go 0
  in
  let window : checkpoint Queue.t = Queue.create () in
  let last_cp = ref None in
  let next_cp_id = ref 0 in
  (* The live-in value predictor. Consulted at checkpoint construction
     ([spawn], before fault injection) and trained at verification time
     from the actual architected values of the head task's first-reads.
     [Off] (the default) means no predictor object at all: zero cost,
     bit-identical everything. *)
  let predictor =
    match cfg.predict with
    | Predict.Off -> None
    | m ->
      let p = Predict.create ~seed:cfg.predict_seed m in
      Predict.warm p cfg.predict_warmup;
      Some p
  in
  let master =
    {
      m_state = Full.copy arch;
      m_dirty = Fragment.empty;
      m_dead = false;
      m_waiting = false;
      m_pending = None;
      m_since_cp = cfg.task_size (* fork immediately at start *);
      m_passes = Hashtbl.create 16;
    }
  in
  Full.set_pc master.m_state d.distilled.entry;
  let entry_set = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace entry_set e ()) d.task_entries;
  let at_entry pc = Hashtbl.mem entry_set pc in
  (* Superblock fast paths ([cfg.superblock]): recovery segments run
     through a persistent block engine over [arch], and the master and
     slaves decode fetched words through pre-decoded images of both
     programs. These are pure engine choices — cycles, stats, squash
     attribution and traces are bit-identical either way (differential
     tests + the SBLKG bench guard). *)
  let image_decode =
    if cfg.superblock then
      Some
        (Program.image_decoder
           [ Program.decode_all d.distilled; Program.decode_all d.original ])
    else None
  in
  let master_decode =
    match image_decode with Some dec -> dec | None -> Exec.default_decode
  in
  (* Created at the first recovery segment — [arch] only becomes the
     engine's execution state then; until that point no blocks exist and
     no store notifications are needed. *)
  let recovery_engine =
    lazy (Sblock.create ~images:[ d.original; d.distilled ] ())
  in
  let engine_live () = cfg.superblock && Lazy.is_val recovery_engine in
  (* Block-aware slave journaling ([cfg.slave_block_journal]): task
     bodies execute from per-SLAVE superblock caches with first-reads
     staged in serial first-read order. The caches persist across a
     slave's task runs — tasks are far too short to amortize block
     building per run. Like [superblock], the switch is a pure engine
     choice: bit-identical cycles, stats and traces either way (the
     sjournal differential suite and the SJRNLG bench guard). *)
  let slave_specs =
    if cfg.slave_block_journal then
      Some
        (Array.init cfg.slaves (fun _ ->
             Sblock.Spec.create ~decode:master_decode ()))
    else None
  in
  let specs_live = slave_specs <> None in
  (* Every store into [arch] performed outside the engines (task
     commits, chaos corruption) must reach the block caches'
     invalidation probes, or a block over self-modified code could go
     stale — across recovery segments (master engine) or across task
     runs (slave caches). *)
  let note_arch_cell c _v =
    match c with
    | Cell.Mem a ->
      if engine_live () then Sblock.note_store (Lazy.force recovery_engine) a;
      (match slave_specs with
      | None -> ()
      | Some specs ->
        Array.iter
          (fun e -> ignore (Sblock.Spec.note_store e a : bool))
          specs)
    | Cell.Pc | Cell.Reg _ -> ()
  in
  (* The event bus. Every emission site is guarded by [if tracing then],
     so a disabled run pays exactly one predictable branch per would-be
     event and never allocates one. *)
  let tracing, temit =
    match cfg.tracer with
    | None -> (false, fun (_ : Trace.event) -> ())
    | Some tr -> (true, Trace.emit tr)
  in
  (* The fault subsystem. A [Mssp_faults.Plan.t] is compiled into one
     injector whose per-surface PRNG streams drive every fault site.
     [inj = None] (no plan) makes every site below a single predictable
     branch — zero cost, guarded by FAULTG in perf-smoke. *)
  let inj = Option.map Inject.make cfg.faults in
  let policy =
    match inj with Some i -> Inject.policy i | None -> Fplan.default_policy
  in
  let fault_event a surface task =
    stats.faults_injected <- stats.faults_injected + 1;
    if tracing && not a.Fplan.quiet then
      temit (Trace.Fault { cycle = Sim.now sim; surface; task })
  in
  (* Checkpoint live-in faults, applied at spawn: [Live_in_corrupt]
     xors one binding (the legacy soft-error model, stream preserved),
     [Mem_bit_flip] flips one bit of one memory binding. Both land in
     the speculative domain only — verification must absorb them. *)
  let maybe_corrupt cp_id li =
    match inj with
    | None -> li
    | Some i ->
      let li =
        match Inject.fire i Fplan.Live_in_corrupt ~cycle:(Sim.now sim) with
        | Some a when not (Fragment.is_empty li) ->
          let bindings = Fragment.to_list li in
          let c, v = List.nth bindings (cp_id mod List.length bindings) in
          fault_event a "live_in_corrupt" (Some cp_id);
          Fragment.add c (v lxor 0x5A5A5A5A) li
        | Some _ | None -> li
      in
      (match Inject.fire i Fplan.Mem_bit_flip ~cycle:(Sim.now sim) with
      | Some a -> (
        let mems =
          Fragment.fold
            (fun c v acc -> if Cell.is_mem c then (c, v) :: acc else acc)
            li []
        in
        match mems with
        | [] -> li
        | l ->
          let c, v = List.nth l (cp_id mod List.length l) in
          let bit =
            (if a.Fplan.magnitude > 0 then a.Fplan.magnitude else cp_id)
            mod 62
          in
          fault_event a "mem_bit_flip" (Some cp_id);
          Fragment.add c (v lxor (1 lsl bit)) li)
      | None -> li)
  in
  (* [Commit_corrupt]: the DELIBERATELY broken
     verify/commit unit. After a verified commit, corrupt one committed
     memory live-out in architected state — the machine bug the
     differential fuzzer's mutation smoke test must catch (and shrink).
     The one non-absorbable surface. *)
  let maybe_corrupt_commit cp_id task =
    match inj with
    | None -> ()
    | Some i -> (
      match Inject.fire i Fplan.Commit_corrupt ~cycle:(Sim.now sim) with
      | Some a -> (
        let mems =
          Fragment.fold
            (fun c v acc -> if Cell.is_mem c then (c, v) :: acc else acc)
            (Task.writes_fragment task) []
        in
        match mems with
        | [] -> ()
        | l ->
          let c, v = List.nth l (cp_id mod List.length l) in
          fault_event a "commit_corrupt" (Some cp_id);
          Full.set arch c (v lxor 0x2A);
          if engine_live () || specs_live then note_arch_cell c 0)
      | None -> ())
  in
  (* dual-mode: squashes with no commit in between *)
  let fruitless_squashes = ref 0 in
  (* adaptive degradation: consecutive sequential bursts with no commit
     in between double the next burst (capped at 64x) *)
  let burst_streak = ref 0 in
  (* per-slave quarantine: consecutive head squashes of a slave's tasks *)
  let quarantine_on = cfg.quarantine_after > 0 && inj <> None in
  let task_view =
    if cfg.isolated_slaves then Task.Isolated
    else Task.Fallback (fun c -> Full.get arch c)
  in
  (* Run one task body on slave [s], charging its Mem accesses to that
     slave's cache as it goes; returns the cache cost. *)
  let run_task_body s task =
    let cache = slave_caches.(s) in
    let cost = ref 0 in
    let on_access c =
      match c with
      | Cell.Mem a -> cost := !cost + Hierarchy.access cache a
      | Cell.Pc | Cell.Reg _ -> ()
    in
    let engine = Option.map (fun specs -> specs.(s)) slave_specs in
    ignore
      (Task.run ~on_access ~block_journal:cfg.slave_block_journal ?engine task
         task_view
        : Task.status);
    !cost
  in
  let running = ref true in
  let commit_busy = ref false in
  let stop_reason = ref Halted in
  let halt_machine reason =
    running := false;
    stop_reason := reason;
    (* later-scheduled events are dead; the machine's time is now *)
    stats.cycles <- Sim.now sim
  in
  (* Event guard: drop stale (squashed) events, stop on the cycle limit,
     and poll the cooperative cancellation hook. With [interrupt = None]
     the poll is one predictable branch per event, like the tracer; when
     armed, the hook (an unknown closure — typically an [Atomic.get])
     is only invoked every 1024th event, so the armed hot path pays a
     decrement and a branch, not an indirect call. At simulator speeds
     1024 events is far under a millisecond, so a wall-clock hook such
     as [mssp_sim run --timeout] still stops the run promptly. *)
  let interrupt_stride = 1024 in
  let interrupt_countdown = ref interrupt_stride in
  let guarded thunk () =
    if !running then
      if Sim.now sim > cfg.max_cycles then halt_machine Cycle_limit
      else
        match cfg.interrupt with
        | None -> thunk ()
        | Some poll ->
          decr interrupt_countdown;
          if !interrupt_countdown > 0 then thunk ()
          else begin
            interrupt_countdown := interrupt_stride;
            match poll () with
            | Some why -> halt_machine (Interrupted why)
            | None -> thunk ()
          end
  in
  let epoch_guarded thunk =
    let ep = Sim.epoch sim in
    guarded (fun () -> if not (Sim.cancelled sim ep) then thunk ())
  in

  let master_note_pass e =
    let n =
      match Hashtbl.find_opt master.m_passes e with Some n -> n | None -> 0
    in
    Hashtbl.replace master.m_passes e (n + 1);
    n + 1
  in
  (* --- master ------------------------------------------------------ *)
  let master_live_in e =
    if cfg.control_only_master then Fragment.singleton Cell.Pc e
    else if cfg.isolated_slaves then
      Fragment.add Cell.Pc e (Full.snapshot master.m_state)
    else begin
      let f = ref (Fragment.add Cell.Pc e master.m_dirty) in
      List.iter
        (fun r ->
          match Cell.reg r with
          | Some c -> f := Fragment.add c (Full.get master.m_state c) !f
          | None -> ())
        Reg.all;
      !f
    end
  in
  (* The master's executor callbacks, hoisted out of the instruction
     loop: they read the current [m_state] through the mutable [master]
     record, so one pair of closures serves the whole run (including
     across post-squash reseeds), and the per-instruction cycle cost
     accumulates in [master_cost]. *)
  let master_cost = ref 0 in
  let master_read c =
    (match c with
    | Cell.Mem a -> master_cost := !master_cost + Hierarchy.access master_cache a
    | Cell.Pc | Cell.Reg _ -> ());
    Some (Full.get master.m_state c)
  in
  let master_write c v =
    (match c with
    | Cell.Mem a ->
      master_cost := !master_cost + Hierarchy.access master_cache a;
      master.m_dirty <- Fragment.add c v master.m_dirty
    | Cell.Pc | Cell.Reg _ -> ());
    Full.set master.m_state c v
  in
  (* One functional master instruction; returns its cost, a fork, or
     death (halt/fault/trap). The master-side PC map redirects jumps that
     landed in original code (indirect returns) back into distilled
     code. *)
  let master_step () =
    let pc0 = Full.pc master.m_state in
    let pc =
      match Hashtbl.find_opt d.pc_map pc0 with
      | Some dpc ->
        Full.set_pc master.m_state dpc;
        dpc
      | None -> pc0
    in
    let word = Full.get_mem master.m_state pc in
    match master_decode ~pc ~word with
    | None -> `Dead
    | Some Instr.Halt -> `Dead
    | Some (Instr.Fork e) -> `Fork e
    | Some _ -> (
      master_cost := t.master_base;
      match
        Exec.step_with ~decode:master_decode ~read:master_read
          ~write:master_write
      with
      | Exec.Stepped ->
        stats.master_instructions <- stats.master_instructions + 1;
        `Cost !master_cost
      | Exec.Halted | Exec.Fault _ -> `Dead
      | Exec.Missing _ -> assert false)
  in
  (* Spawn-path delivery faults: [Checkpoint_delay] adds latency to the
     checkpoint transfer; [Checkpoint_drop] models message loss — the
     master re-sends with exponential backoff up to [spawn_retries]
     attempts, then gives up ([`Lost]) and falls back to recovery. *)
  let spawn_path_faults () =
    match inj with
    | None -> `Proceed 0
    | Some i ->
      let delay =
        match Inject.fire i Fplan.Checkpoint_delay ~cycle:(Sim.now sim) with
        | Some a ->
          fault_event a "checkpoint_delay" (Some !next_cp_id);
          if a.Fplan.magnitude > 0 then a.Fplan.magnitude
          else 4 * t.spawn_latency
        | None -> 0
      in
      if not (Inject.has i Fplan.Checkpoint_drop) then `Proceed delay
      else begin
        let rec attempt k acc =
          match Inject.fire i Fplan.Checkpoint_drop ~cycle:(Sim.now sim) with
          | None -> `Proceed (delay + acc)
          | Some a ->
            fault_event a "checkpoint_drop" (Some !next_cp_id);
            if k >= policy.Fplan.spawn_retries then `Lost
            else begin
              stats.spawn_retries <- stats.spawn_retries + 1;
              attempt (k + 1) (acc + (policy.Fplan.spawn_backoff * (1 lsl k)))
            end
        in
        attempt 0 0
      end
  in
  (* Forward declarations: the component processes call each other. *)
  let rec master_run () =
    if master.m_dead || master.m_waiting then ()
    else begin
      let rec go budget cost_acc =
        if budget = 0 then begin
          (* run-away master: no checkpoint for a whole chunk *)
          master.m_dead <- true;
          if tracing then
            temit
              (Trace.Master_stop
                 { cycle = Sim.now sim; pc = Full.pc master.m_state });
          Sim.schedule sim ~delay:cost_acc (epoch_guarded on_master_dead)
        end
        else
          match master_step () with
          | `Cost c ->
            master.m_since_cp <- master.m_since_cp + 1;
            go (budget - 1) (cost_acc + c)
          | `Fork e when master.m_since_cp < cfg.task_size ->
            (* marker skipped: pacing says the task would be too small.
               Markers are free for the master (a real implementation
               keeps fork sites in a table, not the pipeline). *)
            ignore (master_note_pass e : int);
            Full.set_pc master.m_state (Full.pc master.m_state + 1);
            go budget cost_acc
          | `Fork e ->
            (* step past the fork and snapshot the prediction now; the
               spawn takes effect once the accumulated cycles elapse *)
            let occurrence = master_note_pass e in
            Hashtbl.reset master.m_passes;
            Full.set_pc master.m_state (Full.pc master.m_state + 1);
            master.m_since_cp <- 0;
            let li = master_live_in e in
            Sim.schedule sim ~delay:(cost_acc + t.master_base)
              (epoch_guarded (fun () -> handle_fork e li occurrence))
          | `Dead ->
            master.m_dead <- true;
            if tracing then
              temit
                (Trace.Master_stop
                   { cycle = Sim.now sim; pc = Full.pc master.m_state });
            Sim.schedule sim ~delay:cost_acc (epoch_guarded on_master_dead)
      in
      go cfg.master_chunk 0
    end
  and handle_fork e li occurrence =
    (* The fork's identity settles where the PREVIOUS task ends — even if
       the new task cannot be spawned yet for lack of a window slot
       (otherwise a window of 1 deadlocks: the lone task could never
       learn its end). *)
    (match !last_cp with
    | Some cp when not cp.cp_end_known ->
      cp.cp_end <- Some e;
      cp.cp_end_occurrence <- occurrence;
      cp.cp_end_known <- true;
      try_start_tasks ()
    | Some _ | None -> ());
    ignore (occurrence : int);
    if Queue.length window >= cfg.max_in_flight then begin
      master.m_waiting <- true;
      master.m_pending <- Some (e, li)
    end
    else if spawn e li then master_run ()
  and spawn e li =
    (* Returns false when the checkpoint was lost on the spawn path:
       [start_squash] already bumped the epoch and the master must not
       be driven further by this (stale) event. *)
    match spawn_path_faults () with
    | `Lost ->
      start_squash Checkpoint_lost;
      false
    | `Proceed extra ->
      let master_li = li in
      let li =
        match predictor with None -> li | Some p -> Predict.refine p li
      in
      let li = maybe_corrupt !next_cp_id li in
      let cp =
        {
          cp_id = !next_cp_id;
          cp_entry = e;
          cp_live_in = li;
          cp_master_li = master_li;
          cp_end = None;
          cp_end_occurrence = 1;
          cp_end_known = false;
          cp_task = None;
          cp_finished = false;
          cp_extra = extra;
          cp_slave = -1;
          cp_verify_attempts = 0;
          cp_deferred = false;
        }
      in
      incr next_cp_id;
      stats.tasks_spawned <- stats.tasks_spawned + 1;
      if tracing then begin
        temit (Trace.Fork { cycle = Sim.now sim; task = cp.cp_id; entry = e });
        (* the prediction as the slave will see it: post fault injection.
           The fragment is persistent and shared with the checkpoint, so
           this emission is O(1) — no per-binding rendering here *)
        temit
          (Trace.Predict
             { cycle = Sim.now sim; task = cp.cp_id; live_in = cp.cp_live_in })
      end;
      Queue.add cp window;
      last_cp := Some cp;
      try_start_tasks ();
      true
  and on_master_dead () =
    (match !last_cp with
    | Some cp when not cp.cp_end_known ->
      cp.cp_end <- None;
      cp.cp_end_known <- true
    | Some _ | None -> ());
    try_start_tasks ();
    commit_kick ()
  (* --- slaves ------------------------------------------------------ *)
  and try_start_tasks () =
    (* One pass over the window: each startable checkpoint gets a free
       slave, its body runs inline (charging that slave's cache), and
       its completion and watchdog are scheduled — all in window order,
       so slave numbering, cache traffic, fault-stream draws and the
       event heap's FIFO order follow the window. *)
    Queue.iter
      (fun cp ->
        if cp.cp_task = None && cp.cp_end_known then
          match find_free_slave () with
          | None -> ()
          | Some s -> start_task cp s)
      window
  and start_task cp s =
    slave_free.(s) <- false;
    cp.cp_slave <- s;
    let task =
      Task.make ~id:cp.cp_id ~start_pc:cp.cp_entry ~end_pc:cp.cp_end
        ~end_occurrence:cp.cp_end_occurrence ~budget:cfg.task_budget
        ~live_in:cp.cp_live_in
    in
    let task =
      match image_decode with
      | Some dec -> Task.with_decode dec task
      | None -> task
    in
    cp.cp_task <- Some task;
    let cost = run_task_body s task in
    if tracing then
      temit
        (Trace.Slave_start { cycle = Sim.now sim; task = cp.cp_id; slave = s });
    let total =
      t.spawn_latency + cp.cp_extra + (t.slave_base * task.Task.executed) + cost
    in
    stats.slave_busy_cycles <- stats.slave_busy_cycles + total;
    let stalled =
      match inj with
      | None -> false
      | Some i -> (
        match Inject.fire i Fplan.Slave_stall ~cycle:(Sim.now sim) with
        | Some a ->
          fault_event a "slave_stall" (Some cp.cp_id);
          true
        | None -> false)
    in
    if stalled then
      (* the completion message never arrives: park a no-op past
         the horizon so the run hangs (to the cycle limit) unless
         a watchdog or the liveness layer intervenes *)
      Sim.schedule sim
        ~delay:(cfg.max_cycles + 1)
        (epoch_guarded (fun () -> ()))
    else
      Sim.schedule sim ~delay:total
        (epoch_guarded (fun () ->
             cp.cp_finished <- true;
             if tracing then
               temit
                 (Trace.Slave_finish
                    {
                      cycle = Sim.now sim;
                      task = cp.cp_id;
                      slave = s;
                      executed = task.Task.executed;
                      ok =
                        (match task.Task.status with
                        | Task.Complete _ -> true
                        | Task.Running | Task.Failed _ -> false);
                    });
             slave_free.(s) <- true;
             try_start_tasks ();
             commit_kick ()));
    (* per-task cycle watchdog: a task not finished after
       [watchdog_cycles] is declared stalled — squash and
       re-dispatch via recovery. Squash-stale via the epoch guard;
       honest completions land first and mark [cp_finished]. *)
    match policy.Fplan.watchdog_cycles with
    | Some w when inj <> None ->
      Sim.schedule sim ~delay:w
        (epoch_guarded (fun () ->
             if not cp.cp_finished then begin
               stats.watchdog_squashes <- stats.watchdog_squashes + 1;
               if tracing then
                 temit
                   (Trace.Watchdog
                      {
                        cycle = Sim.now sim;
                        task = cp.cp_id;
                        slave = s;
                        waited = w;
                      });
               start_squash ~task:cp.cp_id ~slave:s Stalled
             end))
    | Some _ | None -> ()
  (* --- verify/commit unit ------------------------------------------ *)
  and commit_kick () =
    (* The commit unit re-examines the window head; serialization of the
       actual verify/commit costs happens via the delayed continuation in
       [commit_head]. Multiple kicks at the same instant are harmless:
       the head is popped before the next event runs. *)
    Sim.schedule sim ~delay:0 (epoch_guarded commit_head)
  and commit_head () =
    if !commit_busy then ()
    else
      match Queue.peek_opt window with
      | None -> if master.m_dead then start_squash Master_dead else ()
      | Some cp ->
      if (not cp.cp_finished) || cp.cp_deferred then ()
      else if transient_verify_fault cp then ()
      else begin
        let task = Option.get cp.cp_task in
        let n_live_ins = Task.live_in_size task in
        stats.live_ins_checked <- stats.live_ins_checked + n_live_ins;
        let completed =
          match task.Task.status with
          | Task.Complete _ -> true
          | Task.Running | Task.Failed _ -> false
        in
        let consistent = completed && Task.live_ins_consistent task arch in
        if tracing then begin
          let outcome =
            if consistent then Trace.Pass
            else if completed then
              match Task.first_inconsistent task arch with
              | Some (c, predicted, actual) ->
                Trace.Mismatch { cell = Cell.show c; predicted; actual }
              | None -> assert false (* inconsistent => a witness exists *)
            else
              Trace.Incomplete
                (match task.Task.status with
                | Task.Failed r -> trace_reason (Task_failed r)
                | Task.Running | Task.Complete _ -> assert false)
          in
          temit
            (Trace.Verify
               {
                 cycle = Sim.now sim;
                 task = cp.cp_id;
                 live_ins = n_live_ins;
                 outcome;
               })
        end;
        (* Value-prediction attribution and online training: every
           recorded first-read is one per-cell prediction; its actual
           value is what architected state holds right now (the task's
           true start point, whether or not this task commits). *)
        (match predictor with
        | None -> ()
        | Some p ->
          let hits = ref 0 and misses = ref 0 in
          Task.iter_reads
            (fun c v ->
              match c with
              | Cell.Pc -> ()
              | Cell.Reg _ | Cell.Mem _ ->
                let actual = Full.get arch c in
                (* score the incumbent first: how good was the master's
                   own value for this cell (pre-refinement)? *)
                (match Fragment.find_opt c cp.cp_master_li with
                | Some supplied ->
                  Predict.observe_master p c ~supplied ~actual
                | None -> ());
                Predict.observe p c actual;
                if v = actual then incr hits else incr misses)
            task;
          stats.predict_hits <- stats.predict_hits + !hits;
          stats.predict_misses <- stats.predict_misses + !misses;
          if tracing then
            temit
              (Trace.Predict_outcome
                 {
                   cycle = Sim.now sim;
                   task = cp.cp_id;
                   hits = !hits;
                   misses = !misses;
                 }));
        if consistent then begin
          (* the memoization hit: superimpose the live-outs *)
          ignore (Queue.pop window : checkpoint);
          Task.commit_into task arch;
          if engine_live () || specs_live then
            Task.iter_writes note_arch_cell task;
          maybe_corrupt_commit cp.cp_id task;
          let n_outs = Task.live_out_size task in
          fruitless_squashes := 0;
          burst_streak := 0;
          if quarantine_on && cp.cp_slave >= 0 then
            slave_streak.(cp.cp_slave) <- 0;
          if tracing then
            temit
              (Trace.Commit
                 {
                   cycle = Sim.now sim;
                   task = cp.cp_id;
                   instructions = task.Task.executed;
                   live_outs = n_outs;
                 });
          stats.tasks_committed <- stats.tasks_committed + 1;
          stats.instructions_committed <-
            stats.instructions_committed + task.Task.executed;
          stats.live_outs_committed <- stats.live_outs_committed + n_outs;
          stats.task_sizes <- task.Task.executed :: stats.task_sizes;
          stats.live_in_counts <- n_live_ins :: stats.live_in_counts;
          advance_shadow task.Task.executed;
          let ceil_div a b = (a + b - 1) / max 1 b in
          let cost =
            t.verify_base
            + (t.verify_per_live_in * ceil_div n_live_ins t.verify_parallelism)
            + t.commit_base
            + (t.commit_per_live_out * ceil_div n_outs t.commit_parallelism)
          in
          match task.Task.status with
          | Task.Complete Task.Program_halted -> halt_machine Halted
          | Task.Complete Task.Reached_boundary | Task.Running | Task.Failed _
            ->
            commit_busy := true;
            Sim.schedule sim ~delay:cost
              (epoch_guarded (fun () ->
                   commit_busy := false;
                   wake_master ();
                   commit_head ()))
        end
        else begin
          let reason =
            match task.Task.status with
            | Task.Complete _ -> Live_in_mismatch
            | Task.Failed r -> Task_failed r
            | Task.Running -> assert false
          in
          start_squash ~task:cp.cp_id ~slave:cp.cp_slave reason
        end
      end
  (* Transient verification-unit error: the check is retried after an
     exponential backoff, up to [verify_retries] times per task; the
     head is held ([cp_deferred]) so no same-instant kick re-rolls. *)
  and transient_verify_fault cp =
    match inj with
    | None -> false
    | Some _ when cp.cp_verify_attempts >= policy.Fplan.verify_retries ->
      false
    | Some i -> (
      match Inject.fire i Fplan.Verify_transient ~cycle:(Sim.now sim) with
      | Some a ->
        fault_event a "verify_transient" (Some cp.cp_id);
        stats.verify_retries <- stats.verify_retries + 1;
        let backoff =
          policy.Fplan.verify_backoff * (1 lsl cp.cp_verify_attempts)
        in
        cp.cp_verify_attempts <- cp.cp_verify_attempts + 1;
        cp.cp_deferred <- true;
        Sim.schedule sim ~delay:(max 1 backoff)
          (epoch_guarded (fun () ->
               cp.cp_deferred <- false;
               commit_head ()));
        true
      | None -> false)
  and wake_master () =
    if master.m_waiting then begin
      master.m_waiting <- false;
      match master.m_pending with
      | Some (e, li) ->
        master.m_pending <- None;
        if Queue.length window >= cfg.max_in_flight then begin
          master.m_waiting <- true;
          master.m_pending <- Some (e, li)
        end
        else if spawn e li then master_run ()
      | None -> master_run ()
    end
  (* --- squash and recovery ----------------------------------------- *)
  and start_squash ?task ?slave reason =
    stats.squashes <- stats.squashes + 1;
    (match reason with
    | Live_in_mismatch -> stats.squash_mismatch <- stats.squash_mismatch + 1
    | Task_failed _ | Checkpoint_lost | Stalled ->
      stats.squash_task_failed <- stats.squash_task_failed + 1
    | Master_dead -> stats.squash_master_dead <- stats.squash_master_dead + 1);
    (* adaptive degradation: a slave whose tasks keep getting squashed
       (no commit of its work in between) is benched — but never the
       last healthy one *)
    (if quarantine_on then
       match slave with
       | Some s when s >= 0 ->
         slave_streak.(s) <- slave_streak.(s) + 1;
         if
           slave_streak.(s) >= cfg.quarantine_after
           && (not quarantined.(s))
           && !healthy_slaves > 1
         then begin
           quarantined.(s) <- true;
           decr healthy_slaves;
           stats.slaves_quarantined <- stats.slaves_quarantined + 1;
           if tracing then
             temit
               (Trace.Quarantine
                  {
                    cycle = Sim.now sim;
                    slave = s;
                    squashes = slave_streak.(s);
                  })
         end
       | Some _ | None -> ());
    (* the Squash event rides with the stats bump, not with the
       recovery: even a squash that trips [max_squashes] (and therefore
       never recovers) is attributed in the stream *)
    if tracing then
      temit
        (Trace.Squash
           {
             cycle = Sim.now sim;
             task;
             reason = trace_reason reason;
             discarded = Queue.length window;
           });
    if stats.squashes > cfg.max_squashes then halt_machine Squash_limit
    else start_recovery ()
  and start_recovery () =
    (* discard all speculative work *)
    stats.tasks_discarded <- stats.tasks_discarded + Queue.length window;
    Sim.bump_epoch sim;
    Queue.clear window;
    last_cp := None;
    Array.fill slave_free 0 cfg.slaves true;
    Hierarchy.invalidate_l1 master_cache;
    Array.iter Hierarchy.invalidate_l1 slave_caches;
    master.m_dead <- false;
    master.m_waiting <- false;
    master.m_pending <- None;
    commit_busy := false;
    (* Non-speculative execution on architected state: at least one
       instruction, then up to the next task entry (or the program's
       halt). Every squash therefore makes forward progress. In dual
       mode, a run of fruitless squashes extends the segment into a long
       sequential burst — the machine's "revert to normal execution"
       escape hatch. *)
    incr fruitless_squashes;
    let min_steps =
      if cfg.dual_mode && !fruitless_squashes >= cfg.dual_trigger then begin
        stats.sequential_bursts <- stats.sequential_bursts + 1;
        (* adaptive degradation: consecutive fruitless bursts double the
           next one (capped at 64x), backing off re-engagement of
           speculation under persistent fault pressure *)
        let burst =
          if cfg.adaptive_backoff then
            cfg.dual_burst * (1 lsl min 6 !burst_streak)
          else cfg.dual_burst
        in
        incr burst_streak;
        burst
      end
      else 0
    in
    let from_pc = Full.pc arch in
    (* Engine path: the persistent block cache over [arch] survives
       across segments (commits/chaos report their stores into it), so
       later segments re-dispatch warm blocks. The single-step path is
       the reference this must stay bit-identical to. *)
    let m =
      if cfg.superblock then
        Seq_machine.of_state ~superblock:true
          ~engine:(Lazy.force recovery_engine) arch
      else Seq_machine.of_state ~superblock:false arch
    in
    let outcome =
      Seq_machine.run_until m ~fuel:cfg.recovery_fuel ~min_steps ~at:at_entry
    in
    (* the segment stored straight into [arch] with no per-store report:
       drop the slave block caches whole rather than track its writes *)
    (match slave_specs with
    | None -> ()
    | Some specs -> Array.iter Sblock.Spec.clear specs);
    let steps = m.Seq_machine.instructions in
    stats.recovery_segments <- stats.recovery_segments + 1;
    stats.recovery_instructions <- stats.recovery_instructions + steps;
    stats.sequential_instructions <-
      stats.sequential_instructions + min steps min_steps;
    if tracing then
      temit
        (Trace.Recovery
           {
             cycle = Sim.now sim;
             instructions = steps;
             from_pc;
             to_pc = Full.pc arch;
             loads = m.Seq_machine.loads;
             stores = m.Seq_machine.stores;
             burst = min_steps > 0;
           });
    advance_shadow steps;
    let recovery_cycles =
      steps * (t.slave_base + t.recovery_per_instr)
    in
    match outcome with
    | `Stopped ->
      (* the program halted (or faulted) during recovery: done *)
      Sim.schedule sim ~delay:recovery_cycles
        (guarded (fun () -> halt_machine Halted))
    | `Fuel -> halt_machine Recovery_fuel
    | `At_entry -> (
      let e = Full.pc arch in
      match Distill.distilled_entry_for d e with
      | None ->
        (* no distilled entry here (shouldn't happen: entries are
           filtered to mapped ones) — keep recovering *)
        Sim.schedule sim ~delay:recovery_cycles
          (epoch_guarded (fun () -> start_recovery ()))
      | Some dpc ->
        master.m_state <- Full.copy arch;
        master.m_dirty <- Fragment.empty;
        master.m_since_cp <- cfg.task_size;
        Hashtbl.reset master.m_passes;
        Full.set_pc master.m_state dpc;
        if tracing then
          temit (Trace.Restart { cycle = Sim.now sim; pc = dpc });
        Sim.schedule sim
          ~delay:(recovery_cycles + t.restart_latency)
          (epoch_guarded master_run))
  in

  (* Machine-level liveness layer: every [liveness_window] cycles, check
     that the run made progress (a commit, squash or recovery segment)
     since the previous check; if not, stop with a structured [Livelock]
     carrying a diagnostic snapshot — never a silent hang. [None]
     schedules nothing at all, preserving bit-identical event counts. *)
  (match cfg.liveness_window with
  | None -> ()
  | Some n ->
    let n = max 1 n in
    let last = ref (-1, -1, -1) in
    let rec tick () =
      let cur =
        (stats.tasks_committed, stats.squashes, stats.recovery_segments)
      in
      if cur = !last then begin
        let busy =
          Array.fold_left
            (fun acc free -> if free then acc else acc + 1)
            0 slave_free
        in
        let quar =
          Array.fold_left
            (fun acc q -> if q then acc + 1 else acc)
            0 quarantined
        in
        let snap =
          {
            ll_cycle = Sim.now sim;
            ll_window = Queue.length window;
            ll_busy_slaves = busy;
            ll_quarantined = quar;
            ll_master =
              (if master.m_dead then "dead"
               else if master.m_waiting then "waiting"
               else "running");
            ll_head_task =
              (match Queue.peek_opt window with
              | Some cp -> Some cp.cp_id
              | None -> None);
          }
        in
        if tracing then
          temit
            (Trace.Livelock
               {
                 cycle = snap.ll_cycle;
                 window = snap.ll_window;
                 busy_slaves = busy;
                 quarantined = quar;
                 master = snap.ll_master;
                 head_task = snap.ll_head_task;
               });
        halt_machine (Livelock snap)
      end
      else begin
        last := cur;
        Sim.schedule sim ~delay:n (guarded tick)
      end
    in
    Sim.schedule sim ~delay:n (guarded tick));
  (* kick off *)
  Sim.schedule sim ~delay:0 (guarded master_run);
  (match Sim.run ~limit:cfg.max_cycles sim with
  | Sim.Drained ->
    (* if we never halted and nothing is pending, the machine wedged —
       report it rather than masquerading as a clean halt *)
    if !running then begin
      stop_reason := Wedged;
      stats.cycles <- Sim.now sim
    end
  | Sim.Hit_limit ->
    if !running then begin
      stop_reason := Cycle_limit;
      stats.cycles <- Sim.now sim
    end);
  if tracing then begin
    (* end-of-run counter samples, then exactly one Halt — every run,
       whatever the stop reason, closes its stream the same way *)
    let cycle = stats.cycles in
    let slave_l1 =
      Array.fold_left
        (fun (a, m) h ->
          let s = Hierarchy.l1_stats h in
          (a + s.Mssp_cache.Cache.accesses, m + s.Mssp_cache.Cache.misses))
        (0, 0) slave_caches
    in
    let master_l1 = Hierarchy.l1_stats master_cache in
    let l2 = Hierarchy.l2_stats master_cache in
    List.iter
      (fun (name, value) -> temit (Trace.Counter { cycle; name; value }))
      [
        ("cache.master_l1_accesses", master_l1.Mssp_cache.Cache.accesses);
        ("cache.master_l1_misses", master_l1.Mssp_cache.Cache.misses);
        ("cache.slaves_l1_accesses", fst slave_l1);
        ("cache.slaves_l1_misses", snd slave_l1);
        ("cache.shared_l2_accesses", l2.Mssp_cache.Cache.accesses);
        ("cache.shared_l2_misses", l2.Mssp_cache.Cache.misses);
        ("mem.arch_live_pages", Full.live_pages arch);
        ("mem.arch_overflow_words", Full.overflow_words arch);
        ("sim.events_scheduled", Sim.scheduled sim);
        ("sim.events_executed", Sim.executed sim);
        ("sim.epochs", Sim.epoch sim);
      ];
    temit (Trace.Halt { cycle; stop = stop_string !stop_reason })
  end;
  {
    arch;
    stop = !stop_reason;
    stats;
    refinement_violations = !violations;
  }

let total_committed r =
  r.stats.instructions_committed + r.stats.recovery_instructions

let mean_of = function
  | [] -> 0.0
  | l ->
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let mean_task_size r = mean_of r.stats.task_sizes
let mean_live_ins r = mean_of r.stats.live_in_counts

let squash_rate r =
  if r.stats.tasks_committed = 0 then float_of_int r.stats.squashes
  else float_of_int r.stats.squashes /. float_of_int r.stats.tasks_committed

let slave_occupancy r ~config =
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
     fault handling: %d spawn retries, %d verify retries, %d watchdog \
     squashes, %d slaves quarantined@,\
     live-ins checked: %d, live-outs committed: %d@,\
     value prediction: %d hits, %d misses@,\
     slave busy cycles: %d@]"
    s.cycles s.master_instructions s.tasks_spawned s.tasks_committed
    s.tasks_discarded s.instructions_committed s.recovery_instructions
    s.squashes s.squash_mismatch s.squash_task_failed s.squash_master_dead
    s.sequential_bursts s.sequential_instructions s.faults_injected
    s.spawn_retries s.verify_retries s.watchdog_squashes
    s.slaves_quarantined s.live_ins_checked s.live_outs_committed
    s.predict_hits s.predict_misses s.slave_busy_cycles
