module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Exec = Mssp_seq.Exec
module Machine = Mssp_seq.Machine
module Config = Mssp_core.Mssp_config
module Hierarchy = Mssp_cache.Cache.Hierarchy

type result = {
  cycles : int;
  instructions : int;
  stop : Machine.stop;
  state : Full.t;
}

(* Run up to [limit] timed instructions on a full state, each costing
   [slave_base] plus its cache accesses (fetch included), through the
   closure-free [Exec.timed_step]. Returns the cycles, the instructions
   retired and the stop, if the machine stopped. *)
let run_steps (t : Config.timing) cache state ~limit =
  let cycles = ref 0 and n = ref 0 and stopped = ref false in
  while (not !stopped) && !n < limit do
    let c = Exec.timed_step ~on_store:Exec.no_store cache state in
    if c = Exec.timed_stopped then stopped := true
    else begin
      cycles := !cycles + t.slave_base + c;
      incr n
    end
  done;
  let stop =
    if not !stopped then None
    else
      let pc = Full.pc state in
      let word = Full.get_mem state pc in
      match Exec.default_decode ~pc ~word with
      | Some Mssp_isa.Instr.Halt -> Some Machine.Halted
      | Some _ | None -> Some (Machine.Faulted (Exec.Undecodable { pc; word }))
  in
  (!cycles, !n, stop)

let load_all ?(also_load = []) p =
  let state = Full.create () in
  Full.load state p;
  List.iter (fun extra -> Full.load ~set_entry:false state extra) also_load;
  state

let sequential ?(timing = Config.default_timing) ?also_load
    ?(fuel = 200_000_000) p =
  let state = load_all ?also_load p in
  let cache = Hierarchy.make ~l1:timing.l1 ~lat:timing.lat () in
  let cycles, instructions, stop = run_steps timing cache state ~limit:fuel in
  let stop = Option.value stop ~default:Machine.Out_of_fuel in
  { cycles; instructions; stop; state }

let oracle_parallel ?(timing = Config.default_timing) ?(task_size = 100)
    ~slaves ?(fuel = 200_000_000) p =
  if slaves < 1 then invalid_arg "Baseline.oracle_parallel: slaves < 1";
  let state = load_all p in
  (* per-slave private L1s over one shared L2 *)
  let shared = Hierarchy.make ~l1:timing.l1 ~lat:timing.lat () in
  let caches =
    Array.init slaves (fun i ->
        if i = 0 then shared
        else Hierarchy.make_shared ~l1:timing.l1 ~lat:timing.lat ~l2:shared ())
  in
  let slave_free = Array.make slaves 0 in
  let pick_slave () =
    let best = ref 0 in
    for i = 1 to slaves - 1 do
      if slave_free.(i) < slave_free.(!best) then best := i
    done;
    !best
  in
  let commit_cost = timing.verify_base + timing.commit_base in
  let rec go last_commit instructions remaining =
    if remaining = 0 then
      { cycles = last_commit; instructions; stop = Machine.Out_of_fuel; state }
    else begin
      let s = pick_slave () in
      let exec_cycles, executed, stop =
        run_steps timing caches.(s) state ~limit:(min task_size remaining)
      in
      let remaining' = remaining - executed in
      let start = slave_free.(s) in
      let complete = start + exec_cycles in
      slave_free.(s) <- complete;
      let committed = max complete last_commit + commit_cost in
      let instructions = instructions + executed in
      match stop with
      | Some stop -> { cycles = committed; instructions; stop; state }
      | None -> go committed instructions remaining'
    end
  in
  go 0 0 fuel

let ilp_limit ?(width = 4) ?(window = 128) ?(fuel = 200_000_000) p =
  let state = load_all p in
  let timing = Config.default_timing in
  let cache = Hierarchy.make ~l1:timing.Config.l1 ~lat:timing.Config.lat () in
  let reg_ready = Array.make Mssp_isa.Reg.count 0 in
  let mem_ready : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let ready_of = function
    | Cell.Pc -> 0 (* perfect control prediction *)
    | Cell.Reg r -> reg_ready.(Mssp_isa.Reg.to_int r)
    | Cell.Mem a -> (
      match Hashtbl.find_opt mem_ready a with Some t -> t | None -> 0)
  in
  let set_ready c t =
    match c with
    | Cell.Pc -> ()
    | Cell.Reg r -> reg_ready.(Mssp_isa.Reg.to_int r) <- t
    | Cell.Mem a -> Hashtbl.replace mem_ready a t
  in
  (* per-cycle issue-slot accounting *)
  let slots : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let issue_at earliest =
    let rec find c =
      let used = match Hashtbl.find_opt slots c with Some n -> n | None -> 0 in
      if used < width then begin
        Hashtbl.replace slots c (used + 1);
        c
      end
      else find (c + 1)
    in
    find earliest
  in
  (* reorder window: completion times of the last [window] instructions *)
  let rob = Array.make window 0 in
  let rec go i last_completion remaining =
    if remaining = 0 then
      { cycles = last_completion; instructions = i; stop = Machine.Out_of_fuel; state }
    else begin
      let fetch_pc = Full.pc state in
      let reads, writes, outcome =
        Exec.observed_step
          ~read:(fun c -> Some (Full.get state c))
          ~write:(fun c v -> Full.set state c v)
      in
      match outcome with
      | Exec.Stepped ->
        let data_ready =
          List.fold_left
            (fun acc (c, _) ->
              match c with
              | Cell.Mem a when a = fetch_pc -> acc (* the fetch itself *)
              | Cell.Pc -> acc
              | c -> max acc (ready_of c))
            0 reads
        in
        let window_gate = rob.(i mod window) in
        let issue = issue_at (max data_ready window_gate) in
        let latency =
          (* loads pay the cache; everything else is single-cycle *)
          List.fold_left
            (fun acc (c, _) ->
              match c with
              | Cell.Mem a when a <> fetch_pc ->
                max acc (Hierarchy.access cache a)
              | _ -> acc)
            1 reads
        in
        let completion = issue + latency in
        Mssp_state.Fragment.iter (fun c _ -> set_ready c completion) writes;
        rob.(i mod window) <- completion;
        go (i + 1) (max last_completion completion) (remaining - 1)
      | Exec.Halted ->
        { cycles = last_completion; instructions = i; stop = Machine.Halted; state }
      | Exec.Fault f ->
        {
          cycles = last_completion;
          instructions = i;
          stop = Machine.Faulted f;
          state;
        }
      | Exec.Missing _ -> assert false
    end
  in
  go 0 0 fuel

let speedup ~baseline cycles =
  if cycles = 0 then infinity
  else float_of_int baseline.cycles /. float_of_int cycles
