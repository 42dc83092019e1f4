(* The pass-checker: structural invariants asserted after every pass and
   on the final package. The distiller is unsound BY DESIGN — the machine
   absorbs every wrong prediction — so these checks are not about
   semantic preservation; they pin down the shape of what each pass is
   allowed to do (only profile-justified rewrites of the right category,
   stack stores untouchable, stats that account exactly for the diff) and
   the structural contract the machine relies on (fork placement,
   entry/pc-map consistency, in-image control flow). A distiller bug thus
   becomes a caught divergence instead of a silent perf cliff. *)

module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Layout = Mssp_isa.Layout
module Reg = Mssp_isa.Reg
module Profile = Mssp_profile.Profile

type violation = { pass : string; invariant : string; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s: %s" v.pass v.invariant v.detail

let show vs =
  String.concat "; "
    (List.map (fun v -> Format.asprintf "%a" pp_violation v) vs)

(* --- per-site rewrite validators ----------------------------------- *)

(* Each validator inspects one changed instruction slot: given the pass's
   options/profile context, the original-code pc and the before/after
   instructions, it returns the invariant broken (if any). Broken
   mutation-testing passes are validated against their honest
   counterpart's rules, so they are caught by the real invariant — not by
   their name. *)

let check_harden (st : Pass.state) pc before after =
  match before with
  | Instr.Br (_, _, _, off) -> (
    match Profile.branch_bias st.profile pc with
    | Some (dominant, freq)
      when freq >= st.options.branch_bias_threshold
           && Profile.exec_count st.profile pc >= st.options.min_branch_count
      ->
      let expected = if dominant then Instr.Jmp off else Instr.Nop in
      if Instr.equal after expected then None
      else
        Some
          ( "kept arm must be the dominant one",
            Format.asprintf "pc %d: profile keeps %a, pass emitted %a" pc
              Instr.pp expected Instr.pp after )
    | _ ->
      Some
        ( "hardening must be profile-justified",
          Format.asprintf "pc %d: branch is not biased/hot enough" pc ))
  | _ ->
    Some
      ( "hardening may only rewrite branches",
        Format.asprintf "pc %d: %a is not a branch" pc Instr.pp before )

let check_drop_store (st : Pass.state) pc before after =
  match before with
  | Instr.St (_, base, _) ->
    if not (Instr.equal after Instr.Nop) then
      Some
        ( "store removal must produce a nop",
          Format.asprintf "pc %d: emitted %a" pc Instr.pp after )
    else if Reg.equal base Reg.sp then
      Some
        ( "stack stores are never removable",
          Format.asprintf "pc %d: removed an sp-based store" pc )
    else (
      match Profile.store_comm_distance st.profile pc with
      | Some d
        when d > st.options.store_comm_distance
             && Profile.exec_count st.profile pc >= st.options.min_store_count
        ->
        None
      | _ ->
        Some
          ( "only non-communicating stores are removable",
            Format.asprintf
              "pc %d: store communicates within the distance bound" pc ))
  | _ ->
    Some
      ( "store removal may only rewrite stores",
        Format.asprintf "pc %d: %a is not a store" pc Instr.pp before )

let check_repair (st : Pass.state) pc before after =
  let orig = st.original.Program.code.(pc - st.original.Program.base) in
  match (before, after) with
  | (Instr.Jmp _ | Instr.Nop), Instr.Br _ when Instr.equal after orig -> None
  | _ ->
    Some
      ( "repair may only restore the original branch",
        Format.asprintf "pc %d: %a -> %a" pc Instr.pp before Instr.pp after )

let check_dead_write (_st : Pass.state) pc before after =
  if not (Instr.equal after Instr.Nop) then
    Some
      ( "dead-write removal must produce a nop",
        Format.asprintf "pc %d: emitted %a" pc Instr.pp after )
  else if not (Pass.is_pure_def before && Instr.writes_reg before <> None) then
    Some
      ( "only pure register writes are dead-write candidates",
        Format.asprintf "pc %d: %a has effects beyond its register write" pc
          Instr.pp before )
  else None

let check_elide (_st : Pass.state) pc before after =
  if not (Instr.equal after Instr.Nop) then
    Some
      ( "faint-writes must produce a nop",
        Format.asprintf "pc %d: emitted %a" pc Instr.pp after )
  else if not (Pass.is_pure_def before && Instr.writes_reg before <> None) then
    Some
      ( "only pure register writes are elidable",
        Format.asprintf "pc %d: %a has effects beyond its register write" pc
          Instr.pp before )
  else None

let site_validator = function
  | "harden" | "broken-harden" -> Some check_harden
  | "drop-stores" | "broken-stores" -> Some check_drop_store
  | "repair" -> Some check_repair
  | "dead-writes" -> Some check_dead_write
  | "faint-writes" -> Some check_elide
  | _ -> None

(* --- per-pass check ------------------------------------------------ *)

let after ~(before : Instr.t array) (st : Pass.state) (pass : Pass.t)
    (stat : Pass.pstat) : violation list =
  let vs = ref [] in
  let push invariant detail = vs := { pass = pass.name; invariant; detail } :: !vs in
  (match pass.kind with
  | Pass.Layout -> () (* covered by [final] *)
  | Pass.Analysis | Pass.Rewrite ->
    if Array.length st.code <> Array.length before then
      push "working code length is fixed"
        (Format.asprintf "%d -> %d" (Array.length before)
           (Array.length st.code));
    let diffs = ref [] in
    Array.iteri
      (fun i b ->
        if not (Instr.equal b st.code.(i)) then diffs := i :: !diffs)
      before;
    let diffs = List.rev !diffs in
    (match pass.kind with
    | Pass.Analysis ->
      if diffs <> [] then
        push "analysis passes must not rewrite code"
          (Format.asprintf "%d slot(s) changed" (List.length diffs))
    | Pass.Rewrite ->
      if stat.rewrites <> List.length diffs then
        push "stats must account exactly for the rewrites"
          (Format.asprintf "claimed %d, observed %d" stat.rewrites
             (List.length diffs));
      let validator = site_validator pass.name in
      List.iter
        (fun i ->
          let pc = st.original.Program.base + i in
          let b = before.(i) and a = st.code.(i) in
          (* stack stores are untouchable by every rewrite pass *)
          (match b with
          | Instr.St (_, base, _) when Reg.equal base Reg.sp ->
            push "stack stores are never removable"
              (Format.asprintf "pc %d: rewrote an sp-based store" pc)
          | _ -> ());
          match validator with
          | None -> ()
          | Some check -> (
            match check st pc b a with
            | None -> ()
            | Some (invariant, detail) -> push invariant detail))
        diffs
    | Pass.Layout -> assert false));
  List.rev !vs

(* --- final package check ------------------------------------------- *)

let final (st : Pass.state) : violation list =
  let vs = ref [] in
  let push invariant detail =
    vs := { pass = "final"; invariant; detail } :: !vs
  in
  (match st.layout with
  | None -> push "pipeline must end with a layout pass" "no layout result"
  | Some l ->
    let d = l.Pass.distilled in
    let p = st.original in
    if d.Program.base <> Layout.distilled_base then
      push "distilled code sits at the distilled base"
        (Format.asprintf "base %d" d.Program.base);
    if not (Program.in_code d d.Program.entry) then
      push "distilled entry is inside the image"
        (Format.asprintf "entry %d" d.Program.entry);
    let entries = match st.task_entries with Some e -> e | None -> [] in
    if not (List.mem p.Program.entry entries) then
      push "the program entry is a task entry"
        (Format.asprintf "entry %d missing" p.Program.entry);
    if List.sort_uniq Int.compare entries <> entries then
      push "task entries are sorted and distinct" "";
    if Hashtbl.length l.Pass.entry_map <> List.length entries then
      push "entry map binds exactly the task entries"
        (Format.asprintf "%d bindings for %d entries"
           (Hashtbl.length l.Pass.entry_map)
           (List.length entries));
    List.iter
      (fun e ->
        match Hashtbl.find_opt l.Pass.entry_map e with
        | None ->
          push "every task entry has a fork" (Format.asprintf "entry %d" e)
        | Some a -> (
          if not (Program.in_code p e) then
            push "task entries name original code"
              (Format.asprintf "entry %d" e);
          match Program.instr_at d a with
          | Some (Instr.Fork e') when e' = e -> ()
          | Some i ->
            push "entry map points at the entry's fork"
              (Format.asprintf "entry %d -> pc %d holds %a" e a Instr.pp i)
          | None ->
            push "entry map points into the image"
              (Format.asprintf "entry %d -> pc %d" e a)))
      entries;
    Hashtbl.iter
      (fun o dpc ->
        if not (Program.in_code p o && Program.in_code d dpc) then
          push "pc map relates original to distilled code"
            (Format.asprintf "%d -> %d" o dpc))
      l.Pass.pc_map;
    Array.iteri
      (fun i instr ->
        let pc = d.Program.base + i in
        (match instr with
        | Instr.Fork e ->
          if not (Program.in_code p e) then
            push "forks name original code"
              (Format.asprintf "pc %d forks %d" pc e)
          else if Hashtbl.find_opt l.Pass.entry_map e <> Some pc then
            push "every fork is the entry map image of its entry"
              (Format.asprintf "pc %d forks %d" pc e)
        | _ -> ());
        List.iter
          (fun t ->
            if not (Program.in_code d t) then
              push "direct control flow stays inside the image"
                (Format.asprintf "pc %d targets %d" pc t))
          (Instr.branch_targets ~pc instr))
      d.Program.code);
  List.rev !vs
