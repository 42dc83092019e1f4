module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Layout = Mssp_isa.Layout
module Cfg = Mssp_cfg.Cfg
module Regset = Mssp_cfg.Regset
module Profile = Mssp_profile.Profile

type feedback = {
  fb_squash_rate : float;
  fb_target_size : int;
  fb_elide : bool;
}

let split_threshold = 0.05

type options = {
  branch_bias_threshold : float;
  min_branch_count : int;
  remove_dead_writes : bool;
  remove_noncomm_stores : bool;
  store_comm_distance : int;
  min_store_count : int;
  compact : bool;
  min_boundary_count : int;
  feedback : feedback option;
}

let default_options =
  {
    branch_bias_threshold = 0.98;
    min_branch_count = 8;
    remove_dead_writes = true;
    remove_noncomm_stores = true;
    store_comm_distance = 1000;
    min_store_count = 8;
    compact = true;
    min_boundary_count = 4;
    feedback = None;
  }

let identity_options =
  {
    branch_bias_threshold = 2.0;
    min_branch_count = max_int;
    remove_dead_writes = false;
    remove_noncomm_stores = false;
    store_comm_distance = default_options.store_comm_distance;
    min_store_count = default_options.min_store_count;
    compact = false;
    min_boundary_count = default_options.min_boundary_count;
    feedback = None;
  }

(* --- per-pass stats: one composable record per executed pass --- *)

type pstat = {
  pass : string;
  rewrites : int;  (** in-place instruction rewrites this pass performed *)
  detail : (string * int) list;
}

let counter (s : pstat) name =
  match List.assoc_opt name s.detail with Some n -> n | None -> 0

let pp_pstat fmt (s : pstat) =
  Format.fprintf fmt "%-12s %4d rewrite%s" s.pass s.rewrites
    (if s.rewrites = 1 then "" else "s");
  List.iter (fun (k, v) -> Format.fprintf fmt "  %s=%d" k v) s.detail

(* --- the distillation state threaded through the pipeline --- *)

type layout_result = {
  distilled : Program.t;
  entry_map : (int, int) Hashtbl.t;
  pc_map : (int, int) Hashtbl.t;
  blocks_dropped : int;
  estimated_dynamic : int;
}

type state = {
  original : Program.t;
  profile : Profile.t;
  options : options;
  code : Instr.t array;  (** working copy, same length/layout as original *)
  hardened : (int * Instr.t * int) list;
      (** (pc, original branch, cold-edge target) for every hardening
          still standing — pushed by [harden], pruned by [repair] *)
  task_entries : int list option;  (** set by [boundaries] *)
  layout : layout_result option;  (** set by the layout/compaction pass *)
}

let init ?(options = default_options) (p : Program.t) profile =
  {
    original = p;
    profile;
    options;
    code = Array.copy p.code;
    hardened = [];
    task_entries = None;
    layout = None;
  }

type kind = Rewrite | Analysis | Layout

type t = {
  name : string;
  doc : string;
  kind : kind;
  apply : state -> state * pstat;
}

(* =================================================================== *)
(* The distiller transformations, each as one pass. The bodies are
   the seed distiller's phases verbatim (split along instruction
   category, which the categories' disjointness makes exact): running
   the default pipeline is bit-identical to the original monolithic
   [distill]. *)
(* =================================================================== *)

(* --- branch hardening ---------------------------------------------- *)

let harden =
  let apply st =
    let { options; profile; original = p; code; _ } = st in
    let hardened = ref st.hardened in
    let n = ref 0 in
    Array.iteri
      (fun i instr ->
        let pc = p.base + i in
        match instr with
        | Instr.Br (_, _, _, off) -> (
          match Profile.branch_bias profile pc with
          | Some (dominant, freq)
            when freq >= options.branch_bias_threshold
                 && Profile.exec_count profile pc >= options.min_branch_count ->
            let cold = if dominant then pc + 1 else pc + off in
            hardened := (pc, instr, cold) :: !hardened;
            incr n;
            code.(i) <- (if dominant then Instr.Jmp off else Instr.Nop)
          | Some _ | None -> ())
        | _ -> ())
      code;
    ( { st with hardened = !hardened },
      { pass = "harden"; rewrites = !n; detail = [ ("candidates", !n) ] } )
  in
  {
    name = "harden";
    doc =
      "branch hardening: profile-biased branches become unconditional \
       jumps (or fall-throughs)";
    kind = Rewrite;
    apply;
  }

(* --- non-communicating-store removal ------------------------------- *)

let drop_stores =
  let apply st =
    let { options; profile; original = p; code; _ } = st in
    let removed = ref 0 in
    Array.iteri
      (fun i instr ->
        let pc = p.base + i in
        match instr with
        | Instr.St (_, base, _)
          when options.remove_noncomm_stores
               && not (Mssp_isa.Reg.equal base Mssp_isa.Reg.sp) -> (
          (* Stack stores are exempt no matter the measured distance: the
             master consumes its own frames (saved links, spills), and a
             long push-to-pop distance just means a long-running callee —
             removing the push would wreck the master's own execution,
             not merely a prediction. *)
          match Profile.store_comm_distance profile pc with
          | Some d
            when d > options.store_comm_distance
                 && Profile.exec_count profile pc >= options.min_store_count ->
            incr removed;
            code.(i) <- Instr.Nop
          | Some _ | None -> ())
        | _ -> ())
      code;
    ( st,
      {
        pass = "drop-stores";
        rewrites = !removed;
        detail = [ ("stores_removed", !removed) ];
      } )
  in
  {
    name = "drop-stores";
    doc =
      "non-communicating-store removal: stores never read back within \
       the communication distance become nops";
    kind = Rewrite;
    apply;
  }

(* --- hardening repair ---------------------------------------------- *)

(* A branch may be pruned only if that loses no hot code. If hot blocks
   (training count >= min_branch_count) become unreachable in the
   hardened CFG, restore — one at a time — hardened branches whose cold
   edge can reach the lost blocks in the original CFG, until everything
   hot is back. Rarely-taken paths (error handling, epilogues of
   single-run regions) stay pruned. *)
let repair =
  let apply st =
    let { options; profile; original = p; code; _ } = st in
    let g_orig = Cfg.build p in
    let orig_reaches_from pc =
      (* block starts reachable in the original CFG from [pc]'s block *)
      match Cfg.block_of_pc g_orig pc with
      | None -> fun _ -> false
      | Some b0 ->
        let seen = Array.make (Array.length g_orig.Cfg.blocks) false in
        let rec visit id =
          if not seen.(id) then begin
            seen.(id) <- true;
            List.iter visit g_orig.Cfg.blocks.(id).Cfg.succs
          end
        in
        visit b0.Cfg.id;
        fun start ->
          (match Cfg.block_of_pc g_orig start with
          | Some b -> seen.(b.Cfg.id)
          | None -> false)
    in
    let remaining = ref st.hardened in
    let restored = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
      let transformed = Program.make ~base:p.base ~entry:p.entry code in
      let g = Cfg.build transformed in
      let reach = Cfg.reachable g in
      let lost_hot =
        Array.to_list g.Cfg.blocks
        |> List.filter_map (fun (b : Cfg.block) ->
               if
                 (not reach.(b.id))
                 && Profile.exec_count profile b.start
                    >= options.min_branch_count
               then Some b.start
               else None)
      in
      if lost_hot <> [] then begin
        (* restore the first hardened branch whose cold edge recovers
           some lost hot block *)
        let rec pick acc = function
          | [] -> ()
          | ((pc, orig, cold) as h) :: rest ->
            let reaches = orig_reaches_from cold in
            if List.exists reaches lost_hot then begin
              code.(pc - p.base) <- orig;
              incr restored;
              remaining := List.rev_append acc rest;
              continue_ := true
            end
            else pick (h :: acc) rest
        in
        pick [] !remaining
      end
    done;
    ( { st with hardened = !remaining },
      {
        pass = "repair";
        rewrites = !restored;
        detail =
          [ ("restored", !restored); ("kept", List.length !remaining) ];
      } )
  in
  {
    name = "repair";
    doc =
      "hardening repair: restore hardened branches whose pruned cold \
       edge lost hot code";
    kind = Rewrite;
    apply;
  }

(* --- dead register-write elimination ------------------------------- *)

(* Iterated with liveness to a fixpoint (bounded) so chains of dead
   definitions disappear. Only pure register-writing instructions are
   candidates; stores, Out and control flow always survive. *)

let is_pure_def = function
  | Instr.Alu _ | Instr.Alui _ | Instr.Li _ | Instr.Ld _ -> true
  | Instr.St _ | Instr.Br _ | Instr.Jmp _ | Instr.Jal _ | Instr.Jr _
  | Instr.Jalr _ | Instr.Out _ | Instr.Fork _ | Instr.Halt | Instr.Nop ->
    false

let dead_writes =
  let apply st =
    let { options; original = p; code; _ } = st in
    let removed = ref 0 in
    if options.remove_dead_writes then begin
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds < 4 do
        changed := false;
        incr rounds;
        let current = Program.make ~base:p.base ~entry:p.entry code in
        let g = Cfg.build current in
        let live = Cfg.liveness g in
        let reach = Cfg.reachable g in
        Array.iter
          (fun (b : Cfg.block) ->
            if reach.(b.id) then begin
              let live_now = ref live.live_out.(b.id) in
              for i = b.len - 1 downto 0 do
                let off = b.start + i - p.base in
                let instr = code.(off) in
                (match (Instr.writes_reg instr, is_pure_def instr) with
                | Some rd, true when not (Regset.mem rd !live_now) ->
                  code.(off) <- Instr.Nop;
                  incr removed;
                  changed := true
                | _, _ -> ());
                let instr = code.(off) in
                live_now :=
                  Regset.union
                    (Regset.diff !live_now (Cfg.defs instr))
                    (Cfg.uses instr)
              done
            end)
          g.blocks
      done
    end;
    ( st,
      {
        pass = "dead-writes";
        rewrites = !removed;
        detail = [ ("dead_writes_removed", !removed) ];
      } )
  in
  {
    name = "dead-writes";
    doc =
      "dead-write removal: register writes never observed live become \
       nops (iterated liveness)";
    kind = Rewrite;
    apply;
  }

(* --- task-boundary selection --------------------------------------- *)

(* Candidates: hot loop headers, direct-call targets and the program
   entry. Fork markers are cheap (the master paces actual checkpoints
   with its task-size counter), so every candidate executed at least
   [min_boundary_count] times on the training input is kept — denser
   markers give the machine finer boundary choices. Boundaries are
   chosen on the ORIGINAL CFG so they name original PCs that the
   original program actually reaches. *)

(* Back-edge targets and direct-call targets inside the code, other
   than the entry, sorted and distinct. *)
let boundary_candidates (p : Program.t) =
  let calls = ref [] in
  Array.iteri
    (fun i instr ->
      match instr with
      | Instr.Jal (_, off) -> calls := (p.base + i + off) :: !calls
      | _ -> ())
    p.code;
  Cfg.back_edge_targets (Cfg.build p) @ !calls
  |> List.filter (fun pc -> Program.in_code p pc && pc <> p.entry)
  |> List.sort_uniq Int.compare

let boundaries =
  let apply st =
    let { options; profile; original = p; _ } = st in
    let candidates = boundary_candidates p in
    let hot pc =
      max 1 (Profile.exec_count profile pc) >= options.min_boundary_count
    in
    let selected = p.entry :: List.filter hot candidates in
    let selected = List.sort_uniq Int.compare selected in
    ( { st with task_entries = Some selected },
      {
        pass = "boundaries";
        rewrites = 0;
        detail =
          [
            ("candidates", List.length candidates);
            ("selected", List.length selected);
          ];
      } )
  in
  {
    name = "boundaries";
    doc =
      "task-boundary insertion: mark hot loop headers, call targets and \
       the entry as fork points";
    kind = Analysis;
    apply;
  }

(* --- adaptive split/merge of task boundaries ----------------------- *)

(* The squash-attribution feedback loop's first half. With no feedback
   the pass is the identity, so the default pipeline is unchanged. With
   feedback from a previous run:

   - High squash rate (> [split_threshold] squashes per commit): tasks
     are going stale — re-admit EVERY boundary candidate (the
     [boundaries] rule at [min_boundary_count = 1]) so the machine can
     cut finer tasks and bound the damage of each mispredicted region.

   - Low squash rate: the master's predictions hold, so the bottleneck
     is the master itself. Drop high-frequency fork sites (observed
     inter-arrival below the machine's task size): keeping a marker
     inside a hot inner loop buys nothing — the machine skips it
     anyway while pacing tasks — but removing it makes loop-carried
     accumulator chains dead at every REMAINING boundary, which is what
     lets [faint-writes] strip them from the master. If no revisited
     marker survives the spacing rule, the widest-spaced one is kept:
     a program whose only marker is its single hot loop header must not
     degenerate to serial execution. *)

let split_merge =
  let apply st =
    let { options; profile; original = p; _ } = st in
    let entries =
      match st.task_entries with Some l -> l | None -> [ p.entry ]
    in
    let merged = ref 0 and split = ref 0 in
    let selected =
      match options.feedback with
      | None -> entries
      | Some fb when fb.fb_squash_rate > split_threshold ->
        (* split: the full candidate set, count threshold 1 *)
        let selected =
          List.sort_uniq Int.compare
            ((p.entry :: entries) @ boundary_candidates p)
        in
        split := List.length selected - List.length entries;
        selected
      | Some fb ->
        (* merge: keep markers whose observed spacing can fill a task *)
        let dyn = max 1 profile.Profile.dynamic_instructions in
        let spacing e = dyn / max 1 (Profile.exec_count profile e) in
        let others = List.filter (fun e -> e <> p.entry) entries in
        let kept =
          List.filter (fun e -> spacing e >= fb.fb_target_size) others
        in
        (* the highest-pc marker always survives a merge: everything the
           master runs after its final fork is master-only work that no
           slave absorbs, and exec-count spacing misjudges it — a marker
           the original program reaches every loop iteration may still be
           forked exactly once by the distilled master. Dropping it once
           left a hardened tail spinning into the runaway guard. *)
        let kept =
          match List.rev others with
          | [] -> kept
          | last :: _ -> if List.mem last kept then kept else last :: kept
        in
        merged := List.length others - List.length kept;
        List.sort_uniq Int.compare (p.entry :: kept)
    in
    ( { st with task_entries = Some selected },
      {
        pass = "split-merge";
        rewrites = 0;
        detail =
          [
            ("merged", !merged);
            ("split", !split);
            ("entries", List.length selected);
          ];
      } )
  in
  {
    name = "split-merge";
    doc =
      "adaptive task sizing: resize the boundary set using a previous \
       run's squash rate (identity without feedback)";
    kind = Analysis;
    apply;
  }

(* --- faint-write elision ------------------------------------------- *)

(* The feedback loop's second half, and the pass that actually moves the
   speedup plateau. [dead_writes] uses ordinary may-liveness, which can
   never remove a loop-carried chain: [Add t1 t1 t3] keeps [t1] alive
   through the back edge, so a reduction's accumulator survives in the
   master forever — and the master's dynamic length stays ~the original's
   on exactly the kernels slaves could run in parallel.

   This pass uses STRONGLY-live (faint-variable) analysis instead: a
   pure definition's uses are counted only when its own target register
   is live. A self-sustaining chain whose value no effectful instruction
   and no task boundary ever observes is then faint as a whole and
   drops out of the master.

   What must survive: (a) registers feeding effectful instructions —
   stores, branches, jumps, Out (the transfer adds their uses
   unconditionally); (b) registers a SLAVE may first-read at a task
   boundary — seeded from the ORIGINAL program's liveness at every
   retained task entry, because those are the live-ins verification
   checks against the master's checkpoint. Everything else the slaves
   read from architected state; a wrong call here costs squashes, never
   correctness — unsound-but-checked like every other pass. Gated on
   [feedback.fb_elide] (identity otherwise), because at a high squash
   rate the extra mispredictions are pure loss. *)

let faint_writes =
  let apply st =
    let { options; original = p; code; _ } = st in
    let removed = ref 0 in
    (match options.feedback with
    | Some fb when fb.fb_elide ->
      let entries =
        match st.task_entries with Some l -> l | None -> [ p.entry ]
      in
      (* per-entry seed: original-program live-in at the boundary *)
      let g_orig = Cfg.build p in
      let orig_live = Cfg.liveness g_orig in
      let entry_seed_tbl = Hashtbl.create 16 in
      List.iter
        (fun e ->
          let seed =
            match Cfg.block_of_pc g_orig e with
            | Some b when b.Cfg.start = e -> orig_live.Cfg.live_in.(b.Cfg.id)
            | Some _ | None -> Regset.full
          in
          Hashtbl.replace entry_seed_tbl e seed)
        entries;
      let current = Program.make ~base:p.base ~entry:p.entry code in
      let g = Cfg.build current in
      let reach = Cfg.reachable g in
      let nb = Array.length g.Cfg.blocks in
      let live_in = Array.make nb Regset.empty in
      let entry_seed (b : Cfg.block) =
        match Hashtbl.find_opt entry_seed_tbl b.Cfg.start with
        | Some s -> s
        | None -> Regset.empty
      in
      let block_live_out (b : Cfg.block) =
        if b.Cfg.has_indirect then Regset.full
        else
          List.fold_left
            (fun acc s ->
              Regset.union acc
                (Regset.union live_in.(s) (entry_seed g.Cfg.blocks.(s))))
            Regset.empty b.Cfg.succs
      in
      (* strongly-live backward transfer: a pure def's uses count only
         when its target register is live *)
      let step live instr =
        match (Instr.writes_reg instr, is_pure_def instr) with
        | Some rd, true ->
          if Regset.mem rd live then
            Regset.union (Regset.diff live (Cfg.defs instr)) (Cfg.uses instr)
          else live
        | _ ->
          Regset.union (Regset.diff live (Cfg.defs instr)) (Cfg.uses instr)
      in
      let transfer (b : Cfg.block) =
        let live = ref (block_live_out b) in
        for i = b.Cfg.len - 1 downto 0 do
          live := step !live code.(b.Cfg.start + i - p.base)
        done;
        !live
      in
      let stable = ref false in
      while not !stable do
        stable := true;
        for id = nb - 1 downto 0 do
          let ni = transfer g.Cfg.blocks.(id) in
          if not (Regset.equal ni live_in.(id)) then begin
            live_in.(id) <- ni;
            stable := false
          end
        done
      done;
      (* sweep: nop every pure def whose target is faint *)
      Array.iter
        (fun (b : Cfg.block) ->
          if reach.(b.Cfg.id) then begin
            let live = ref (block_live_out b) in
            for i = b.Cfg.len - 1 downto 0 do
              let off = b.Cfg.start + i - p.base in
              let instr = code.(off) in
              (match (Instr.writes_reg instr, is_pure_def instr) with
              | Some rd, true when not (Regset.mem rd !live) ->
                code.(off) <- Instr.Nop;
                incr removed
              | _ -> ());
              live := step !live code.(off)
            done
          end)
        g.Cfg.blocks
    | Some _ | None -> ());
    ( st,
      {
        pass = "faint-writes";
        rewrites = !removed;
        detail = [ ("elided", !removed) ];
      } )
  in
  {
    name = "faint-writes";
    doc =
      "strongly-live dead-write elision: faint loop-carried chains no \
       boundary live-in or effectful use observes become nops (needs \
       feedback with elision on; verify/commit absorbs a stale residual \
       read)";
    kind = Rewrite;
    apply;
  }

(* --- layout / compaction ------------------------------------------- *)

(* Re-emit reachable blocks in original order at
   [Layout.distilled_base], inserting [Fork] before task-entry blocks,
   optionally dropping [Nop]s, then retarget all direct control flow.
   Unmappable targets go to a shared trap ([Halt]) appended at the end:
   the master simply stops helping if it gets there.

   Calls need care: the master's *values* must predict original-program
   values, so a distilled call must leave the ORIGINAL return address in
   the link register (slaves will read it). [Jal rd, t] therefore
   becomes [Li rd, orig_return; Jmp t'], and [Jalr rd, rs] becomes
   [Li rd, orig_return; Jr rs]. Returns then jump to original-code
   addresses; the machine's master-side PC map ([pc_map], covering every
   retained block start) redirects such targets back into distilled
   code. *)

type emitted = {
  orig_pc : int option;  (** original PC whose profile count this carries *)
  mutable instr : Instr.t;
  retarget : int option;  (** absolute original target to remap *)
}

let layout_emit compact_nops (p : Program.t) code task_entries g reach =
  let is_entry = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace is_entry e ()) task_entries;
  let base = Layout.distilled_base in
  let buffer = ref [] in
  let count = ref 0 in
  let new_addr_of = Hashtbl.create 64 in
  let fork_addr_of = Hashtbl.create 16 in
  let emit ?orig_pc ?retarget instr =
    buffer := { orig_pc; instr; retarget } :: !buffer;
    incr count
  in
  let blocks_dropped = ref 0 in
  Array.iter
    (fun (b : Cfg.block) ->
      if not reach.(b.id) then incr blocks_dropped
      else begin
        Hashtbl.replace new_addr_of b.start (base + !count);
        if Hashtbl.mem is_entry b.start then begin
          Hashtbl.replace fork_addr_of b.start (base + !count);
          emit ~orig_pc:b.start (Instr.Fork b.start)
        end;
        for i = 0 to b.len - 1 do
          let orig_pc = b.start + i in
          let instr = code.(orig_pc - p.base) in
          match instr with
          | Instr.Nop when compact_nops -> ()
          | Instr.Br (c, r1, r2, off) ->
            emit ~orig_pc ~retarget:(orig_pc + off) (Instr.Br (c, r1, r2, 0))
          | Instr.Jmp off -> emit ~orig_pc ~retarget:(orig_pc + off) (Instr.Jmp 0)
          | Instr.Jal (rd, off) ->
            if not (Mssp_isa.Reg.equal rd Mssp_isa.Reg.zero) then
              emit ~orig_pc (Instr.Li (rd, orig_pc + 1));
            emit ~orig_pc ~retarget:(orig_pc + off) (Instr.Jmp 0)
          | Instr.Jalr (rd, rs) when not (Mssp_isa.Reg.equal rd rs) ->
            if not (Mssp_isa.Reg.equal rd Mssp_isa.Reg.zero) then
              emit ~orig_pc (Instr.Li (rd, orig_pc + 1));
            emit ~orig_pc (Instr.Jr rs)
          | _ -> emit ~orig_pc instr
        done
      end)
    g.Cfg.blocks;
  (* shared trap for unmappable control-flow targets *)
  let trap_addr = base + !count in
  emit Instr.Halt;
  let emitted = Array.of_list (List.rev !buffer) in
  let map_target t =
    match Hashtbl.find_opt new_addr_of t with
    | Some a -> a
    | None -> trap_addr
  in
  (* retarget direct control flow *)
  Array.iteri
    (fun i e ->
      match e.retarget with
      | None -> ()
      | Some orig_target -> (
        let new_pc = base + i in
        let off = map_target orig_target - new_pc in
        match e.instr with
        | Instr.Br (c, r1, r2, _) -> e.instr <- Instr.Br (c, r1, r2, off)
        | Instr.Jmp _ -> e.instr <- Instr.Jmp off
        | _ -> assert false))
    emitted;
  let distilled_code = Array.map (fun e -> e.instr) emitted in
  let entry_map = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt fork_addr_of e with
      | Some a -> Hashtbl.replace entry_map e a
      | None -> ())
    task_entries;
  let entry =
    match Hashtbl.find_opt new_addr_of p.entry with
    | Some a -> a
    | None -> trap_addr
  in
  let distilled = Program.make ~base ~entry distilled_code in
  (distilled, entry_map, new_addr_of, !blocks_dropped, emitted)

let estimate_dynamic profile (emitted : emitted array) =
  Array.fold_left
    (fun acc e ->
      match e.orig_pc with
      | None -> acc
      | Some pc -> (
        match e.instr with
        | Instr.Fork _ -> acc (* markers are free for the master *)
        | _ -> acc + Profile.exec_count profile pc))
    0 emitted

(* The layout pass proper. [compact_nops = None] honors
   [options.compact] (the pipeline's named "compact" pass);
   [Some false] is the keep-the-nops identity layout the driver appends
   when a pipeline carries no layout pass of its own. *)
let layout_pass ~name ~doc ~compact_nops =
  let apply st =
    let { options; profile; original = p; code; _ } = st in
    let compact_nops =
      match compact_nops with Some b -> b | None -> options.compact
    in
    let transformed = Program.make ~base:p.base ~entry:p.entry code in
    let g = Cfg.build transformed in
    let reach = Cfg.reachable g in
    let task_entries =
      match st.task_entries with Some l -> l | None -> [ p.entry ]
    in
    let distilled, entry_map, pc_map, blocks_dropped, emitted =
      layout_emit compact_nops p code task_entries g reach
    in
    (* entries that fell in unreachable distilled code have no fork: drop
       them from the task-entry list so recovery never waits for them *)
    let task_entries =
      List.filter (fun e -> Hashtbl.mem entry_map e) task_entries
    in
    let estimated = estimate_dynamic profile emitted in
    ( {
        st with
        task_entries = Some task_entries;
        layout =
          Some
            {
              distilled;
              entry_map;
              pc_map;
              blocks_dropped;
              estimated_dynamic = estimated;
            };
      },
      {
        pass = name;
        rewrites = 0;
        detail =
          [
            ("emitted", Program.length distilled);
            ("forks", List.length task_entries);
            ("blocks_dropped", blocks_dropped);
            ("estimated_dynamic", estimated);
          ];
      } )
  in
  { name; doc; kind = Layout; apply }

let compact =
  layout_pass ~name:"compact"
    ~doc:
      "compaction: drop unreachable blocks and nops, re-lay-out at the \
       distilled base with forks and retargeted control flow"
    ~compact_nops:None

let finish_layout =
  layout_pass ~name:"layout"
    ~doc:
      "identity layout: re-emit (nops kept) with forks and retargeted \
       control flow — appended automatically when a pipeline has no \
       layout pass"
    ~compact_nops:(Some false)

(* =================================================================== *)
(* Deliberately broken passes — mutation-testing material ONLY.
   Each violates a checked invariant; none may ever appear in a default
   pipeline. They exist to prove the pass-checker has teeth, exactly as
   a [Commit_corrupt] fault plan proves it for the machine's commit unit —
   and, run anyway, to demonstrate absorbability: the machine still
   produces the sequential state under any of them. *)
(* =================================================================== *)

(** Hardens the WRONG arm: keeps the cold path and deletes the hot one.
    Caught by the pass-checker's profile cross-check ("the kept arm must
    be the dominant one"). *)
let broken_harden =
  let apply st =
    let { options; profile; original = p; code; _ } = st in
    let hardened = ref st.hardened in
    let n = ref 0 in
    Array.iteri
      (fun i instr ->
        let pc = p.base + i in
        match instr with
        | Instr.Br (_, _, _, off) -> (
          match Profile.branch_bias profile pc with
          | Some (dominant, freq)
            when freq >= options.branch_bias_threshold
                 && Profile.exec_count profile pc >= options.min_branch_count ->
            let cold = if dominant then pc + 1 else pc + off in
            hardened := (pc, instr, cold) :: !hardened;
            incr n;
            (* the bug: the dominant test is inverted, so the master
               keeps the arm the training input (almost) never took *)
            code.(i) <- (if dominant then Instr.Nop else Instr.Jmp off)
          | Some _ | None -> ())
        | _ -> ())
      code;
    ( { st with hardened = !hardened },
      { pass = "broken-harden"; rewrites = !n; detail = [ ("candidates", !n) ] }
    )
  in
  {
    name = "broken-harden";
    doc = "TEST ONLY: hardens the wrong branch arm (inverted dominance)";
    kind = Rewrite;
    apply;
  }

(** Drops LIVE stores: the communication-distance predicate is inverted
    and the stack-store exemption is gone. Caught by the pass-checker
    ("removed a communicating store" / "removed a stack store"). *)
let broken_stores =
  let apply st =
    let { options; profile; original = p; code; _ } = st in
    let removed = ref 0 in
    Array.iteri
      (fun i instr ->
        let pc = p.base + i in
        match instr with
        | Instr.St _ -> (
          match Profile.store_comm_distance profile pc with
          | Some d when d <= options.store_comm_distance ->
            incr removed;
            code.(i) <- Instr.Nop
          | Some _ | None -> ())
        | _ -> ())
      code;
    ( st,
      {
        pass = "broken-stores";
        rewrites = !removed;
        detail = [ ("stores_removed", !removed) ];
      } )
  in
  {
    name = "broken-stores";
    doc =
      "TEST ONLY: drops communicating (and stack) stores — the inverted \
       predicate";
    kind = Rewrite;
    apply;
  }

(** Performs a normal compacting layout, then silently nops out the
    first [Fork] marker while leaving the entry map pointing at it.
    Caught by the final structural check ("entry map points at a
    non-fork"). *)
let broken_forks =
  let apply st =
    let st, stat = compact.apply st in
    (match st.layout with
    | None -> ()
    | Some l ->
      let code = l.distilled.Program.code in
      let rec steal i =
        if i < Array.length code then
          match code.(i) with
          | Instr.Fork _ -> code.(i) <- Instr.Nop
          | _ -> steal (i + 1)
      in
      steal 0);
    (st, { stat with pass = "broken-forks" })
  in
  {
    name = "broken-forks";
    doc = "TEST ONLY: steals the first fork marker after a normal layout";
    kind = Layout;
    apply;
  }
