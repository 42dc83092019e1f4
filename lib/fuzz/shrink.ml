module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program

let instructions (p : Program.t) =
  Array.fold_left
    (fun n i -> if Instr.equal i Instr.Nop then n else n + 1)
    0 p.Program.code

let weight (p : Program.t) = instructions p + List.length p.Program.data

let with_code (p : Program.t) code = { p with Program.code }
let with_data (p : Program.t) data = { p with Program.data }

(* Nopify [lo, lo+len): None if the range is already all-Nop (the
   candidate would not reduce the weight). *)
let nopify (p : Program.t) lo len =
  let n = Array.length p.Program.code in
  let hi = min n (lo + len) in
  let changed = ref false in
  let code =
    Array.mapi
      (fun i instr ->
        if i >= lo && i < hi && not (Instr.equal instr Instr.Nop) then begin
          changed := true;
          Instr.Nop
        end
        else instr)
      p.Program.code
  in
  if !changed then Some (with_code p code) else None

(* Replace instruction [i] with [Halt] and nopify everything after it:
   "the bug happens before here". *)
let truncate_at (p : Program.t) i =
  let n = Array.length p.Program.code in
  if i >= n - 1 then None
  else
    let tail_live = ref false in
    Array.iteri
      (fun j instr ->
        if j > i && not (Instr.equal instr Instr.Nop) then tail_live := true)
      p.Program.code;
    if (not !tail_live) && Instr.equal p.Program.code.(i) Instr.Halt then None
    else begin
      let code =
        Array.mapi
          (fun j instr ->
            if j = i then Instr.Halt else if j > i then Instr.Nop else instr)
          p.Program.code
      in
      (* strictly smaller unless position i was Halt already and the tail
         was dead — excluded above; a lone swap X -> Halt keeps the
         weight, so require a live tail or a Nop at i *)
      if
        weight (with_code p code) < weight p
      then Some (with_code p code)
      else None
    end

let drop_data (p : Program.t) lo len =
  let d = p.Program.data in
  let n = List.length d in
  if n = 0 || lo >= n then None
  else begin
    let kept = List.filteri (fun i _ -> i < lo || i >= lo + len) d in
    if List.length kept < n then Some (with_data p kept) else None
  end

let candidates (p : Program.t) =
  let n = Array.length p.Program.code in
  let out = ref [] in
  let push c = out := c :: !out in
  (* coarse-to-fine range nopification *)
  let len = ref n in
  while !len >= 1 do
    let l = !len in
    let step = max 1 l in
    let i = ref 0 in
    while !i < n do
      Option.iter push (nopify p !i l);
      i := !i + step
    done;
    len := if l = 1 then 0 else l / 2
  done;
  (* truncate the program at each position *)
  for i = 0 to n - 1 do
    Option.iter push (truncate_at p i)
  done;
  (* data halves, then singletons *)
  let nd = List.length p.Program.data in
  if nd > 1 then begin
    Option.iter push (drop_data p 0 ((nd + 1) / 2));
    Option.iter push (drop_data p ((nd + 1) / 2) nd)
  end;
  for i = 0 to nd - 1 do
    Option.iter push (drop_data p i 1)
  done;
  (* [push] accumulates in reverse; restore coarsest-first order *)
  List.rev !out

let minimize ?(budget = 2000) ~failing p =
  let calls = ref 0 in
  let try_one c =
    if !calls >= budget then false
    else begin
      incr calls;
      failing c
    end
  in
  let rec go p =
    if !calls >= budget then p
    else
      match List.find_opt try_one (candidates p) with
      | Some smaller -> go smaller
      | None -> p
  in
  go p

(* --- program x plan shrinking ---------------------------------------- *)

module Fplan = Mssp_faults.Plan

(* Strictly decreasing measure over plans: dropping an action, clearing
   a window, zeroing a magnitude and halving a probability all reduce
   it, so the plan-shrink loop terminates without a fuel counter. *)
let plan_weight (plan : Fplan.t) =
  List.fold_left
    (fun acc (a : Fplan.action) ->
      acc +. 4.
      +. (if a.Fplan.window <> None then 1. else 0.)
      +. (if a.Fplan.magnitude <> 0 then 1. else 0.)
      +. a.Fplan.p)
    0. plan.Fplan.actions

let rebuild ?window ?magnitude ?p (a : Fplan.action) =
  let window = match window with Some w -> w | None -> a.Fplan.window in
  let magnitude =
    match magnitude with Some m -> m | None -> a.Fplan.magnitude
  in
  let p = match p with Some p -> p | None -> a.Fplan.p in
  Fplan.action ?window ~magnitude a.Fplan.surface ~seed:a.Fplan.seed ~p

let plan_candidates (plan : Fplan.t) =
  let actions = Array.of_list plan.Fplan.actions in
  let n = Array.length actions in
  let out = ref [] in
  let push c = out := c :: !out in
  (* drop one action *)
  for i = n - 1 downto 0 do
    push (Fplan.make (List.filteri (fun j _ -> j <> i) plan.Fplan.actions))
  done;
  (* per-action simplifications: clear window, zero magnitude, halve p *)
  let with_action i a' =
    Fplan.make (List.mapi (fun j a -> if j = i then a' else a) plan.Fplan.actions)
  in
  for i = n - 1 downto 0 do
    let a = actions.(i) in
    if a.Fplan.window <> None then
      push (with_action i (rebuild ~window:None a));
    if a.Fplan.magnitude <> 0 then
      push (with_action i (rebuild ~magnitude:0 a));
    if a.Fplan.p > 0.05 then
      push (with_action i (rebuild ~p:(a.Fplan.p /. 2.) a))
  done;
  List.rev !out

let minimize_pair ?(budget = 2000) ~failing (p, plan) =
  let calls = ref 0 in
  let try_one prog pl =
    if !calls >= budget then false
    else begin
      incr calls;
      failing prog pl
    end
  in
  (* Alternate: greedily shrink the program against the current plan,
     then the plan against the current program, until neither side can
     shrink (or the budget runs out). Plan candidates are accepted only
     on a strict [plan_weight] decrease, so the loop terminates. *)
  let rec go prog plan =
    if !calls >= budget then (prog, plan)
    else
      match List.find_opt (fun c -> try_one c plan) (candidates prog) with
      | Some smaller -> go smaller plan
      | None -> (
        let w = plan_weight plan in
        match
          List.find_opt
            (fun c -> plan_weight c < w && try_one prog c)
            (plan_candidates plan)
        with
        | Some simpler -> go prog simpler
        | None -> (prog, plan))
  in
  go p plan
