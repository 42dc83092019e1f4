module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Reg = Mssp_isa.Reg

type block = {
  id : int;
  start : int;
  len : int;
  mutable succs : int list;
  mutable preds : int list;
  has_indirect : bool;
}

type t = { program : Program.t; blocks : block array; entry : int }

let instr_pc (g : t) pc =
  match Program.instr_at g.program pc with
  | Some i -> i
  | None -> assert false

let build (p : Program.t) =
  let n = Program.length p in
  if n = 0 then invalid_arg "Cfg.build: empty program";
  let leader = Array.make n false in
  let mark pc = if Program.in_code p pc then leader.(pc - p.base) <- true in
  mark p.entry;
  mark p.base;
  Array.iteri
    (fun i instr ->
      let pc = p.base + i in
      if Instr.is_control instr then begin
        List.iter mark (Instr.branch_targets ~pc instr);
        mark (pc + 1)
      end;
      (* return points after calls are block starts too *)
      match instr with
      | Instr.Jal _ | Instr.Jalr _ -> mark (pc + 1)
      | _ -> ())
    p.code;
  (* collect block extents *)
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let block_index_of_offset = Array.make n (-1) in
  let blocks =
    Array.init nb (fun bi ->
        let start_off = starts.(bi) in
        let end_off = if bi + 1 < nb then starts.(bi + 1) else n in
        for o = start_off to end_off - 1 do
          block_index_of_offset.(o) <- bi
        done;
        let term = p.code.(end_off - 1) in
        let has_indirect =
          match term with Instr.Jr _ | Instr.Jalr _ -> true | _ -> false
        in
        {
          id = bi;
          start = p.base + start_off;
          len = end_off - start_off;
          succs = [];
          preds = [];
          has_indirect;
        })
  in
  (* successor edges *)
  Array.iter
    (fun b ->
      let term_pc = b.start + b.len - 1 in
      let term = p.code.(term_pc - p.base) in
      let targets = Instr.branch_targets ~pc:term_pc term in
      let succ_ids =
        List.filter_map
          (fun t ->
            if Program.in_code p t then Some block_index_of_offset.(t - p.base)
            else None)
          targets
      in
      (* dedupe while keeping order *)
      let succ_ids =
        List.fold_left
          (fun acc s -> if List.mem s acc then acc else s :: acc)
          [] succ_ids
        |> List.rev
      in
      b.succs <- succ_ids;
      List.iter (fun s -> blocks.(s).preds <- b.id :: blocks.(s).preds) succ_ids)
    blocks;
  let entry = block_index_of_offset.(p.entry - p.base) in
  { program = p; blocks; entry }

let block_of_pc g pc =
  if not (Program.in_code g.program pc) then None
  else
    (* binary search over sorted block starts *)
    let lo = ref 0 and hi = ref (Array.length g.blocks - 1) in
    let found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let b = g.blocks.(mid) in
      if pc < b.start then hi := mid - 1
      else if pc >= b.start + b.len then lo := mid + 1
      else begin
        found := Some b;
        lo := !hi + 1
      end
    done;
    !found

let instrs g b = Array.init b.len (fun i -> instr_pc g (b.start + i))

(* Roots for conservative reachability: the entry, return points after
   calls, and any block whose start address appears as a constant (li/la
   targets feed jr/jalr) or a fork operand. *)
let indirect_roots g =
  let p = g.program in
  let roots = ref [] in
  Array.iteri
    (fun i instr ->
      let pc = p.base + i in
      (match instr with
      | Instr.Jal _ | Instr.Jalr _ ->
        if Program.in_code p (pc + 1) then roots := (pc + 1) :: !roots
      | _ -> ());
      match instr with
      | Instr.Li (_, v) | Instr.Fork v ->
        if Program.in_code p v then roots := v :: !roots
      | _ -> ())
    p.code;
  !roots

let reachable g =
  let nb = Array.length g.blocks in
  let seen = Array.make nb false in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter visit g.blocks.(id).succs
    end
  in
  visit g.entry;
  List.iter
    (fun pc -> match block_of_pc g pc with Some b -> visit b.id | None -> ())
    (indirect_roots g);
  seen

(* Reverse postorder over reachable blocks. *)
let rpo g =
  let nb = Array.length g.blocks in
  let seen = Array.make nb false in
  let order = ref [] in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter visit g.blocks.(id).succs;
      order := id :: !order
    end
  in
  visit g.entry;
  !order

let dominators g =
  let nb = Array.length g.blocks in
  let idom = Array.make nb (-1) in
  let order = rpo g in
  let rpo_index = Array.make nb (-1) in
  List.iteri (fun i id -> rpo_index.(id) <- i) order;
  idom.(g.entry) <- g.entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if id <> g.entry then begin
          let processed_preds =
            List.filter
              (fun p -> idom.(p) <> -1 && rpo_index.(p) <> -1)
              g.blocks.(id).preds
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(id) <> new_idom then begin
              idom.(id) <- new_idom;
              changed := true
            end
        end)
      order
  done;
  idom

let dominates idom a b =
  (* does a dominate b? walk b's idom chain *)
  let rec go b = if b = a then true else if b = idom.(b) || idom.(b) = -1 then false else go idom.(b) in
  go b

(* Back edges are found by DFS (edge to a node on the current DFS stack),
   rooted at the entry AND at the conservative indirect roots — loops in
   code reached only through returns or indirect jumps (e.g. a loop after
   a call) must still surface as task-boundary candidates. *)
let back_edge_targets g =
  let nb = Array.length g.blocks in
  let color = Array.make nb 0 (* 0 white, 1 on stack, 2 done *) in
  let targets = ref [] in
  let rec visit id =
    if color.(id) = 0 then begin
      color.(id) <- 1;
      List.iter
        (fun s ->
          if color.(s) = 1 then begin
            let start = g.blocks.(s).start in
            if not (List.mem start !targets) then targets := start :: !targets
          end
          else visit s)
        g.blocks.(id).succs;
      color.(id) <- 2
    end
  in
  visit g.entry;
  List.iter
    (fun pc -> match block_of_pc g pc with Some b -> visit b.id | None -> ())
    (indirect_roots g);
  List.sort Int.compare !targets

let uses instr =
  let base =
    List.fold_left
      (fun acc operand ->
        match operand with
        | `Reg r | `Mem_at (r, _) ->
          if Reg.equal r Reg.zero then acc else Regset.add r acc)
      Regset.empty
      (Instr.reads ~pc:0 instr)
  in
  base

let defs instr =
  match Instr.writes_reg instr with
  | Some r -> Regset.singleton r
  | None -> Regset.empty

type liveness = { live_in : Regset.t array; live_out : Regset.t array }

let block_transfer g b live_out =
  let live = ref live_out in
  for i = b.len - 1 downto 0 do
    let instr = instr_pc g (b.start + i) in
    live := Regset.union (Regset.diff !live (defs instr)) (uses instr)
  done;
  !live

let liveness g =
  let nb = Array.length g.blocks in
  let live_in = Array.make nb Regset.empty in
  let live_out = Array.make nb Regset.empty in
  (* Boundary conditions: indirect successors (returns, computed jumps)
     keep every register live — the continuation is unknown. Halting (or
     otherwise successor-less) blocks keep nothing: this liveness feeds
     the distiller, whose consumers only ever need values that some
     later *read* observes, and every prediction is verified anyway. *)
  let boundary b = if b.has_indirect then Regset.full else Regset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = nb - 1 downto 0 do
      let b = g.blocks.(id) in
      let out =
        List.fold_left
          (fun acc s -> Regset.union acc live_in.(s))
          (boundary b) b.succs
      in
      let inn = block_transfer g b out in
      if not (Regset.equal out live_out.(id) && Regset.equal inn live_in.(id))
      then begin
        live_out.(id) <- out;
        live_in.(id) <- inn;
        changed := true
      end
    done
  done;
  { live_in; live_out }

let pp fmt g =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun b ->
      Format.fprintf fmt "B%d [%#x..%#x] -> %s%s@," b.id b.start
        (b.start + b.len - 1)
        (String.concat "," (List.map (Printf.sprintf "B%d") b.succs))
        (if b.has_indirect then " (indirect)" else ""))
    g.blocks;
  Format.fprintf fmt "@]"
