module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Layout = Mssp_isa.Layout
module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program

type stop = Halted | Faulted of Exec.fault | Out_of_fuel

type t = {
  state : Full.t;
  mutable stopped : stop option;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  read : Cell.t -> int option;
  write : Cell.t -> int -> unit;
  superblock : bool;
  decode : pc:int -> word:int -> Instr.t option;
}

(* the executor callbacks are built once per machine, not per step — the
   single-step reference loop lives on them. The record is recursive
   only so the hoisted callbacks can bump the memory traffic counters. *)
let of_state ?(superblock = true) ?(decode = Exec.default_decode) state =
  let rec m =
    {
      state;
      stopped = None;
      instructions = 0;
      loads = 0;
      stores = 0;
      read =
        (fun c ->
          (match c with
          | Cell.Mem _ -> m.loads <- m.loads + 1
          | Cell.Pc | Cell.Reg _ -> ());
          Some (Full.get state c));
      write =
        (fun c v ->
          (match c with
          | Cell.Mem _ -> m.stores <- m.stores + 1
          | Cell.Pc | Cell.Reg _ -> ());
          Full.set state c v);
      superblock;
      decode;
    }
  in
  m

let of_program ?superblock p =
  let state = Full.create () in
  Full.load state p;
  of_state ?superblock
    ~decode:(Program.image_decoder [ Program.decode_all p ])
    state

let step m =
  match m.stopped with
  | Some _ -> false
  | None -> (
    match Exec.step ~read:m.read ~write:m.write with
    | Exec.Stepped ->
      m.instructions <- m.instructions + 1;
      true
    | Exec.Halted ->
      m.stopped <- Some Halted;
      false
    | Exec.Fault f ->
      m.stopped <- Some (Faulted f);
      false
    | Exec.Missing _ -> assert false (* full states are total *))

(* The direct loop: fetch through memory, decode through [m.decode],
   {!Exec.exec}. Counter and stop parity with the single-step driver is
   the whole contract:
   - every fetch charges a load, the [Halt] probe and a faulting fetch
     included; [Ld] charges one more load, [St] one store, [Out] one
     load and two stores — [Exec.step]'s callback traffic exactly;
   - fuel is checked before each instruction;
   - [at] is checked on the PC after each retirement, once [min_steps]
     instructions of this call have retired, and wins over fuel at the
     boundary.
   Fetch reads memory on every instruction, so self-modified code is
   seen at once; the image decoder checks each word before reusing its
   pre-decoded instruction. *)
let direct m ~fuel ~min_steps ~at =
  let s = m.state in
  let n = ref 0 and loads = ref 0 and stores = ref 0 in
  let result = ref `Fuel and running = ref true in
  while !running && !n < fuel do
    let pc = Full.pc s in
    let word = Full.get_mem s pc in
    incr loads;
    match m.decode ~pc ~word with
    | None ->
      m.stopped <- Some (Faulted (Exec.Undecodable { pc; word }));
      result := `Stopped;
      running := false
    | Some Instr.Halt ->
      m.stopped <- Some Halted;
      result := `Stopped;
      running := false
    | Some instr ->
      (match instr with
      | Instr.Ld _ -> incr loads
      | Instr.St _ -> incr stores
      | Instr.Out _ ->
        incr loads;
        stores := !stores + 2
      | Instr.Halt | Instr.Nop | Instr.Fork _
      | Instr.Alu _ | Instr.Alui _ | Instr.Li _
      | Instr.Br _ | Instr.Jmp _ | Instr.Jal _
      | Instr.Jr _ | Instr.Jalr _ ->
        ());
      Exec.exec s ~pc instr;
      incr n;
      if !n >= min_steps && at (Full.pc s) then begin
        result := `At_entry;
        running := false
      end
  done;
  m.instructions <- m.instructions + !n;
  m.loads <- m.loads + !loads;
  m.stores <- m.stores + !stores;
  !result

let never_at (_ : int) = false

let run ?(fuel = 100_000_000) m =
  if m.superblock then
    match m.stopped with
    | Some s -> s
    | None -> (
      match direct m ~fuel ~min_steps:max_int ~at:never_at with
      | `Fuel -> Out_of_fuel
      | `Stopped -> Option.get m.stopped
      | `At_entry -> assert false (* [never_at] never matches *))
  else
    let rec go remaining =
      if remaining = 0 then Out_of_fuel
      else if step m then go (remaining - 1)
      else
        match m.stopped with
        | Some s -> s
        | None -> assert false
    in
    go fuel

let run_until m ~fuel ~min_steps ~at =
  if m.superblock then
    match m.stopped with
    | Some _ -> `Stopped
    | None -> direct m ~fuel ~min_steps ~at
  else
    (* reference single-step driver: fuel before the step, [at] after
       it (and only once [min_steps] have run), [at] winning over fuel
       at the boundary — the direct loop replicates this ordering *)
    let steps = ref 0 in
    let rec go () =
      if !steps >= fuel then `Fuel
      else if step m then begin
        incr steps;
        if !steps >= min_steps && at (Full.pc m.state) then `At_entry
        else go ()
      end
      else `Stopped
    in
    go ()

let next s =
  let s' = Full.copy s in
  let m = of_state ~superblock:false s' in
  ignore (step m : bool);
  s'

let seq_in_place s n =
  let m = of_state ~superblock:false s in
  let rec go k = if k = 0 then None else if step m then go (k - 1) else m.stopped in
  go n

let seq s n =
  let s' = Full.copy s in
  ignore (seq_in_place s' n : stop option);
  s'

let output s =
  let count = Full.get_mem s Layout.out_count_addr in
  List.init count (fun i -> Full.get_mem s (Layout.out_base + i))

let run_program ?fuel ?superblock p =
  let m = of_program ?superblock p in
  ignore (run ?fuel m : stop);
  m
