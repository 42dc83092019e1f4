module Dsl = Mssp_asm.Dsl
module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Wl_util = Mssp_workload.Wl_util
open Mssp_asm.Regs

type weights = {
  alu : int;
  mem : int;
  data_branch : int;
  loop : int;
  call : int;
  out : int;
  far_mem : int;
  straddle : int;
  shared_acc : int;
  early_halt : int;
  runaway : int;
  smc : int;
}

let default_weights =
  {
    alu = 18;
    mem = 14;
    data_branch = 12;
    loop = 10;
    call = 6;
    out = 6;
    far_mem = 9;
    straddle = 9;
    shared_acc = 8;
    early_halt = 3;
    runaway = 3;
    smc = 4;
  }

(* the self-modifying-code stress profile: most programs patch their own
   bodies, so the pre-decoded images see patched words on every trip *)
let smc_heavy = { default_weights with smc = 40; alu = 8; loop = 12 }

let plain =
  { alu = 3; mem = 2; data_branch = 2; loop = 1; call = 1; out = 1;
    far_mem = 0; straddle = 0; shared_acc = 0; early_halt = 0; runaway = 0;
    smc = 0 }

(* Mirror Full.t's geometry without depending on mssp_state: its paged
   span is 2^24 words. Address [paged_span - 1] is the last paged word;
   the next word lives in the overflow table. Full's pages are smaller
   than [boundary_words] and divide it, so every multiple of it is still
   a page boundary. *)
let boundary_words = 4096
let paged_span = 1 lsl 24

(* Registers the random parts mutate freely; s3..s7 back the structured
   shapes (shared accumulator, counters, far/straddle pointers). *)
let scratch_regs = [| t0; t1; t2; t3; t4; t5; t6; t7 |]

let alu_ops =
  [| Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And;
     Instr.Or; Instr.Xor; Instr.Shl; Instr.Shr; Instr.Slt; Instr.Sle;
     Instr.Seq; Instr.Sne |]

let generate ?(weights = default_weights) ~seed ~size () =
  let rng = Wl_util.lcg (seed lxor 0x2545F4914F6CDD1D) in
  let pick arr = arr.(rng () mod Array.length arr) in
  let b = Dsl.create () in
  let scratch = Dsl.alloc b 64 in
  let acc = Dsl.alloc b ~label:"acc" 1 in
  let data = Dsl.data_words b (Wl_util.values ~seed:(seed + 1) 64 ~bound:97) in
  let fresh prefix = Dsl.fresh_label b prefix in
  Dsl.label b "main";
  Dsl.jmp b "start";
  Dsl.label b "leaf";
  Dsl.alui b Instr.Mul t0 t0 17;
  Dsl.alui b Instr.Add t0 t0 3;
  Dsl.alui b Instr.And t0 t0 0xFFFF;
  Dsl.ret b;
  Dsl.label b "start";
  let emit_alu () =
    let rd = pick scratch_regs and rs1 = pick scratch_regs in
    if rng () mod 2 = 0 then Dsl.alu b (pick alu_ops) rd rs1 (pick scratch_regs)
    else Dsl.alui b (pick alu_ops) rd rs1 ((rng () mod 200) - 100)
  in
  let emit_mem () =
    let off = rng () mod 64 in
    if rng () mod 2 = 0 then Dsl.ld b (pick scratch_regs) zero (scratch + off)
    else Dsl.st b (pick scratch_regs) zero (scratch + off)
  in
  let emit_data_branch () =
    let l = fresh "skip" in
    let r = pick scratch_regs in
    Dsl.ld b r zero (data + (rng () mod 64));
    Dsl.alui b Instr.And r r 1;
    Dsl.br b Instr.Ne r zero l;
    for _ = 0 to rng () mod 3 do
      emit_alu ()
    done;
    Dsl.label b l
  in
  (* Store/load traffic at the edge of the paged span and beyond it: the
     last paged word, the first overflow words, negative addresses and
     addresses far past 2^40. Offsets around [paged_span - 1] make a
     single pointer touch both sides of the span edge. *)
  let far_addrs =
    [| paged_span - 1; paged_span; paged_span + 17; -1; -57;
       (1 lsl 40) + 3; paged_span - 2 |]
  in
  let emit_far_mem () =
    let a = pick far_addrs in
    Dsl.li b s5 a;
    if rng () mod 3 <> 0 then Dsl.st b (pick scratch_regs) s5 (rng () mod 3);
    Dsl.ld b (pick scratch_regs) s5 (rng () mod 3)
  in
  (* A run of stores/loads crossing a page boundary inside the data
     region: checkpoint copies then alias the two pages COW-style, and
     the first store on either side privatizes only its page. *)
  let emit_straddle () =
    let boundary =
      Layout.data_base + (boundary_words * (1 + (rng () mod 3)))
    in
    Dsl.li b s6 (boundary - 2);
    for k = 0 to 3 do
      if rng () mod 2 = 0 then Dsl.st b (pick scratch_regs) s6 k
    done;
    Dsl.ld b (pick scratch_regs) s6 (rng () mod 4)
  in
  (* Read-modify-write of one shared cell through one shared register:
     memory AND register live-in collisions across task boundaries. *)
  let emit_shared_acc () =
    Dsl.ld b s3 zero acc;
    Dsl.alui b (pick [| Instr.Add; Instr.Xor; Instr.Mul |]) s3 s3
      (1 + (rng () mod 9));
    Dsl.st b s3 zero acc
  in
  (* Data-dependent mid-program halt: some executions stop here. *)
  let emit_early_halt () =
    let l = fresh "live" in
    let r = pick scratch_regs in
    Dsl.ld b r zero (data + (rng () mod 64));
    Dsl.alui b Instr.And r r 7;
    Dsl.br b Instr.Ne r zero l;
    Dsl.halt b;
    Dsl.label b l
  in
  let emit_loop depth_budget =
    let trips = 1 + (rng () mod 8) in
    let l = fresh "loop" in
    let counter = s4 in
    Dsl.li b counter trips;
    Dsl.label b l;
    for _ = 0 to 1 + (rng () mod (3 + depth_budget)) do
      match rng () mod 6 with
      | 0 -> emit_mem ()
      | 1 -> emit_shared_acc ()
      | 2 -> emit_straddle ()
      | _ -> emit_alu ()
    done;
    Dsl.alui b Instr.Sub counter counter 1;
    Dsl.br b Instr.Gt counter zero l
  in
  (* Long enough to exhaust a default task budget (5000 instructions),
     bounded enough to halt well inside the oracle's sequential fuel. *)
  let emit_runaway () =
    let trips = 1024 + (rng () mod 3072) in
    let l = fresh "runaway" in
    Dsl.li b s7 trips;
    Dsl.label b l;
    Dsl.alui b Instr.Add (pick scratch_regs) (pick scratch_regs) 1;
    Dsl.alui b Instr.Sub s7 s7 1;
    Dsl.br b Instr.Gt s7 zero l
  in
  let emit_call () = Dsl.call b "leaf" in
  let emit_out () = Dsl.out b (pick scratch_regs) in
  (* Self-modifying code: a two-trip loop whose body starts with a
     labeled patch slot; the first trip overwrites the slot's word with
     a different (valid) instruction, so the second trip executes the
     patched one. Exercises the image decoder's word check (the SEQ
     oracle, recovery and the slaves all decode through it) and slaves'
     fetch of their own buffered code stores. *)
  let emit_smc () =
    let l = fresh "smc" in
    let patch = fresh "patch" in
    let patched =
      pick
        [|
          Instr.Alui (Instr.Add, t2, t2, 7);
          Instr.Alui (Instr.Xor, t3, t3, 1);
          Instr.Alu (Instr.Add, t4, t4, t4);
          Instr.Nop;
        |]
    in
    Dsl.li b s5 2;
    Dsl.label b l;
    Dsl.label b patch;
    Dsl.nop b;
    Dsl.la b s6 patch;
    Dsl.li b s7 (Instr.encode patched);
    Dsl.st b s7 s6 0;
    Dsl.alui b Instr.Sub s5 s5 1;
    Dsl.br b Instr.Gt s5 zero l
  in
  let table =
    [|
      (weights.alu, emit_alu);
      (weights.mem, emit_mem);
      (weights.data_branch, emit_data_branch);
      (weights.loop, fun () -> emit_loop 2);
      (weights.call, emit_call);
      (weights.out, emit_out);
      (weights.far_mem, emit_far_mem);
      (weights.straddle, emit_straddle);
      (weights.shared_acc, emit_shared_acc);
      (weights.early_halt, emit_early_halt);
      (weights.runaway, emit_runaway);
      (weights.smc, emit_smc);
    |]
  in
  let total = Array.fold_left (fun n (w, _) -> n + max 0 w) 0 table in
  if total = 0 then invalid_arg "Gen.generate: all weights are zero";
  let pick_shape () =
    let roll = rng () mod total in
    let rec go i left =
      let w, f = table.(i) in
      let w = max 0 w in
      if left < w then f else go (i + 1) (left - w)
    in
    go 0 roll
  in
  for _ = 1 to size do
    (pick_shape ()) ()
  done;
  Dsl.halt b;
  Dsl.build ~entry:"main" b ()

(* Fault-plan arbitrary: a deterministic, always-absorbable plan — 1 to
   4 actions over the absorbable value surfaces, varied probabilities,
   occasional cycle windows and magnitudes. Paired with
   [generate] this gives program x plan fuzzing: the oracle's invariant
   is that any such plan only moves stats and cycles, never the final
   architected state. *)
module Fplan = Mssp_faults.Plan

let plan ~seed =
  let rng = Wl_util.lcg (seed lxor 0x51AFE5) in
  let surfaces = Array.of_list Fplan.absorbable_surfaces in
  let ps = [| 0.1; 0.25; 0.5; 1.0 |] in
  let n = 1 + (rng () mod 4) in
  let actions =
    List.init n (fun k ->
        let surface = surfaces.(rng () mod Array.length surfaces) in
        let p = ps.(rng () mod Array.length ps) in
        let window =
          if rng () mod 4 = 0 then begin
            let lo = rng () mod 100_000 in
            Some (lo, lo + 1_000 + (rng () mod 1_000_000))
          end
          else None
        in
        let magnitude =
          if rng () mod 3 = 0 then 1 + (rng () mod 61) else 0
        in
        Fplan.action ?window ~magnitude surface ~seed:(seed + (31 * k)) ~p)
  in
  Fplan.make actions
