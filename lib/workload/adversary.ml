(** Adversarial "distillers" for the decoupling experiments (E10): fake
    [Distill.t] packages whose distilled code is wrong in various ways.
    MSSP must produce the sequential result under all of them — the
    paper's central claim is exactly that the master and distilled binary
    cannot influence correctness, only speed. *)

module Dsl = Mssp_asm.Dsl
module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Program = Mssp_isa.Program
module Distill = Mssp_distill.Distill

let dummy_stats (p : Program.t) (d : Program.t) =
  {
    Distill.original_static = Program.length p;
    distilled_static = Program.length d;
    forks_inserted = 0;
    branches_hardened = 0;
    dead_writes_removed = 0;
    stores_removed = 0;
    blocks_dropped = 0;
    estimated_dynamic_original = 0;
    estimated_dynamic_distilled = 0;
  }

(* Package an arbitrary program as "the distilled binary" for [p]. The
   entry map sends [p]'s entry to the fake code's entry, and the only
   task boundary is the program entry — so after any squash, recovery
   simply runs the original program (correct by construction). *)
let package (p : Program.t) (distilled : Program.t) =
  let entry_map = Hashtbl.create 4 in
  Hashtbl.replace entry_map p.Program.entry distilled.Program.entry;
  let pc_map = Hashtbl.create 4 in
  {
    Distill.original = p;
    distilled;
    task_entries = [ p.Program.entry ];
    entry_map;
    pc_map;
    stats = dummy_stats p distilled;
    steps = [];
    violations = [];
  }

(** Distilled code is pseudo-random garbage words: the master faults
    immediately after forking. *)
let garbage ?(seed = 1234567) (p : Program.t) =
  let rng = Wl_util.lcg seed in
  let n = 64 in
  let code =
    Array.init n (fun i ->
        if i = 0 then Instr.Fork p.Program.entry
        else
          (* most random words fail to decode; decodable ones execute as
             junk — both must be harmless *)
          match Instr.decode (rng () land max_int) with
          | Some instr -> instr
          | None -> Instr.Alui (Instr.Xor, Mssp_isa.Reg.of_int 4, Mssp_isa.Reg.of_int 5, rng () mod 1000))
      (* the fork first: the master does hand out one (wrong) task *)
  in
  package p (Program.make ~base:Layout.distilled_base code)

(** Distilled code halts immediately: the master never helps at all.
    Execution must fall back to recovery (sequential) and still finish. *)
let dead_master (p : Program.t) =
  package p (Program.make ~base:Layout.distilled_base [| Instr.Halt |])

(** The master forks the right boundary but with wildly wrong predicted
    values: it corrupts every register it can before forking again. *)
let liar (p : Program.t) =
  let b = Dsl.create ~base:Layout.distilled_base () in
  Dsl.label b "top";
  Dsl.raw b (Instr.Fork p.Program.entry);
  List.iter
    (fun r ->
      if
        (not (Mssp_isa.Reg.equal r Mssp_isa.Reg.zero))
        && not (Mssp_isa.Reg.equal r Mssp_isa.Reg.sp)
      then Dsl.li b r 0xDEAD)
    Mssp_isa.Reg.all;
  Dsl.jmp b "top";
  package p (Dsl.build b ())

(** The master spins forever without forking: exercises the run-away
    guard; the machine must degrade to recovery-driven execution. *)
let spinner (p : Program.t) =
  let b = Dsl.create ~base:Layout.distilled_base () in
  Dsl.label b "spin";
  Dsl.jmp b "spin";
  package p (Dsl.build b ())

(** Take an honest distillation package but replace its distilled code
    with an immediate [Halt], keeping the real task boundaries: the
    master dies on every restart, so execution degenerates into a
    squash/recover/restart loop at every boundary — the worst case for
    restart overheads and the scenario dual-mode fallback exists for. *)
let amnesiac (honest : Distill.t) =
  let distilled =
    Program.make ~base:Layout.distilled_base [| Instr.Halt |]
  in
  let entry_map = Hashtbl.create 8 in
  List.iter
    (fun e -> Hashtbl.replace entry_map e distilled.Program.entry)
    honest.Distill.task_entries;
  {
    honest with
    Distill.distilled;
    entry_map;
    pc_map = Hashtbl.create 1;
    stats = dummy_stats honest.Distill.original distilled;
  }

let all (p : Program.t) =
  [
    ("garbage", garbage p);
    ("dead_master", dead_master p);
    ("liar", liar p);
    ("spinner", spinner p);
  ]
