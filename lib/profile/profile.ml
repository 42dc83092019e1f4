module Instr = Mssp_isa.Instr
module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Machine = Mssp_seq.Machine

type branch_stats = { mutable taken : int; mutable not_taken : int }

type store_stats = {
  mutable store_executions : int;
  mutable min_comm_distance : int;
}

(* newest value first; [count] is the list's length, so the cap check
   on every profiled load and store is O(1) *)
type stream = { mutable values : int list; mutable count : int }

type t = {
  block_counts : (int, int) Hashtbl.t;
  branches : (int, branch_stats) Hashtbl.t;
  stores : (int, store_stats) Hashtbl.t;
  cells : (int, stream) Hashtbl.t;
  mutable dynamic_instructions : int;
  mutable stop : Machine.stop option;
}

let cell_stream_cap = 256

let create () =
  {
    block_counts = Hashtbl.create 256;
    branches = Hashtbl.create 64;
    stores = Hashtbl.create 64;
    cells = Hashtbl.create 256;
    dynamic_instructions = 0;
    stop = None;
  }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some n -> Hashtbl.replace tbl key (n + 1)
  | None -> Hashtbl.add tbl key 1

let record_branch t pc ~taken =
  let s =
    match Hashtbl.find_opt t.branches pc with
    | Some s -> s
    | None ->
      let s = { taken = 0; not_taken = 0 } in
      Hashtbl.add t.branches pc s;
      s
  in
  if taken then s.taken <- s.taken + 1 else s.not_taken <- s.not_taken + 1

let record_store t pc =
  match Hashtbl.find_opt t.stores pc with
  | Some s -> s.store_executions <- s.store_executions + 1
  | None ->
    Hashtbl.add t.stores pc
      { store_executions = 1; min_comm_distance = max_int }

let note_communication t site distance =
  match Hashtbl.find_opt t.stores site with
  | Some s -> s.min_comm_distance <- min s.min_comm_distance distance
  | None -> ()

(* Per-address observation stream: every value seen flowing through a
   memory cell (loaded from it or just stored to it), in execution
   order, capped at [cell_stream_cap] per address. The single-threaded
   collection run is the only writer, so the order is the program's own
   — stable no matter how many [--jobs] consume the profile later. *)
let record_cell t addr value =
  match Hashtbl.find_opt t.cells addr with
  | Some s ->
    if s.count < cell_stream_cap then begin
      s.values <- value :: s.values;
      s.count <- s.count + 1
    end
  | None -> Hashtbl.add t.cells addr { values = [ value ]; count = 1 }

let collect ?(fuel = 100_000_000) p =
  let t = create () in
  let m = Machine.of_program p in
  (* the profiler single-steps (it inspects state between instructions),
     but its per-instruction peek can still decode through the
     pre-decoded image *)
  let peek_decode = Mssp_isa.Program.image_decoder [ Mssp_isa.Program.decode_all p ] in
  (* address -> (store site, dynamic index of the store) for the value
     currently live at that address *)
  let last_store : (int, int * int) Hashtbl.t = Hashtbl.create 1024 in
  let rec go remaining =
    if remaining = 0 then t.stop <- Some Machine.Out_of_fuel
    else begin
      let pc = Full.pc m.state in
      let instr = peek_decode ~pc ~word:(Full.get_mem m.state pc) in
      (* effective address uses pre-step register values *)
      let eff_addr rs1 off = Full.get_reg m.state rs1 + off in
      let pre_addr =
        match instr with
        | Some (Instr.Ld (_, rs1, off)) | Some (Instr.St (_, rs1, off)) ->
          Some (eff_addr rs1 off)
        | Some _ | None -> None
      in
      if Machine.step m then begin
        bump t.block_counts pc;
        t.dynamic_instructions <- t.dynamic_instructions + 1;
        (match (instr, pre_addr) with
        | Some (Instr.Br _), _ ->
          record_branch t pc ~taken:(Full.pc m.state <> pc + 1)
        | Some (Instr.Ld (rd, _, _)), Some addr ->
          record_cell t addr (Full.get_reg m.state rd);
          (match Hashtbl.find_opt last_store addr with
          | Some (site, when_) ->
            note_communication t site (t.dynamic_instructions - when_)
          | None -> ())
        | Some (Instr.St _), Some addr ->
          record_store t pc;
          record_cell t addr (Full.get_mem m.state addr);
          Hashtbl.replace last_store addr (pc, t.dynamic_instructions)
        | (Some _ | None), _ -> ());
        go (remaining - 1)
      end
      else t.stop <- m.stopped
    end
  in
  go fuel;
  t

let exec_count t pc =
  match Hashtbl.find_opt t.block_counts pc with Some n -> n | None -> 0

let branch_bias t pc =
  match Hashtbl.find_opt t.branches pc with
  | None -> None
  | Some { taken; not_taken } ->
    let total = taken + not_taken in
    if total = 0 then None
    else
      let dominant = taken >= not_taken in
      let freq = float_of_int (max taken not_taken) /. float_of_int total in
      Some (dominant, freq)

let store_comm_distance t pc =
  match Hashtbl.find_opt t.stores pc with
  | None -> None
  | Some s -> Some s.min_comm_distance

let cell_observations t addr =
  match Hashtbl.find_opt t.cells addr with
  | None -> []
  | Some s -> List.rev s.values

let observed_cells t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.cells []
  |> List.sort Int.compare

let pp_summary fmt t =
  let branches = Hashtbl.length t.branches in
  let strongly_biased = ref 0 in
  Hashtbl.iter
    (fun pc _ ->
      match branch_bias t pc with
      | Some (_, f) when f >= 0.95 -> incr strongly_biased
      | Some _ | None -> ())
    t.branches;
  Format.fprintf fmt
    "@[<v>dynamic instructions: %d@,static sites executed: %d@,branches: %d (%d with bias >= 0.95)@,stores profiled: %d@]"
    t.dynamic_instructions
    (Hashtbl.length t.block_counts)
    branches !strongly_biased (Hashtbl.length t.stores)
