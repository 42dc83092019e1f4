type timing = {
  master_base : int;
  slave_base : int;
  spawn_latency : int;
  verify_base : int;
  verify_per_live_in : int;
  verify_parallelism : int;
  commit_base : int;
  commit_per_live_out : int;
  commit_parallelism : int;
  restart_latency : int;
  recovery_per_instr : int;
  l1 : Mssp_cache.Cache.config;
  lat : Mssp_cache.Cache.Hierarchy.latencies;
}

let default_timing =
  {
    master_base = 1;
    slave_base = 1;
    spawn_latency = 10;
    verify_base = 5;
    verify_per_live_in = 1;
    verify_parallelism = 8;
    commit_base = 5;
    commit_per_live_out = 1;
    commit_parallelism = 8;
    restart_latency = 30;
    recovery_per_instr = 2;
    l1 = Mssp_cache.Cache.config ();
    lat = Mssp_cache.Cache.Hierarchy.latencies ();
  }

type t = {
  slaves : int;
  max_in_flight : int;
  task_size : int;
  task_budget : int;
  isolated_slaves : bool;
  control_only_master : bool;
  verify_refinement : bool;
  dual_mode : bool;
  dual_trigger : int;
  dual_burst : int;
  faults : Mssp_faults.Plan.t option;
  predict : Mssp_predict.Predict.mode;
  predict_seed : int;
  predict_warmup : (int * int list) list;
      (** per-address observation streams replayed into the predictor
          before the run ([Predict.warmup_of_profile]); ignored when
          [predict] is [Off] *)
  tracer : Mssp_trace.Trace.t option;
  interrupt : (unit -> string option) option;
  pool : int option;
  superblock : bool;
  slave_block_journal : bool;
  master_chunk : int;
  max_cycles : int;
  max_squashes : int;
  recovery_fuel : int;
  timing : timing;
}

let default =
  {
    slaves = 4;
    max_in_flight = 8;
    task_size = 50;
    task_budget = 5_000;
    isolated_slaves = false;
    control_only_master = false;
    verify_refinement = false;
    dual_mode = false;
    dual_trigger = 3;
    dual_burst = 5_000;
    faults = None;
    predict = Mssp_predict.Predict.Off;
    predict_seed = 0x5bd1e995;
    predict_warmup = [];
    tracer = None;
    interrupt = None;
    pool = None;
    superblock = true;
    slave_block_journal = true;
    master_chunk = 1_000_000;
    max_cycles = 2_000_000_000;
    max_squashes = 1_000_000;
    recovery_fuel = 200_000_000;
    timing = default_timing;
  }

let with_slaves n t = { t with slaves = n; max_in_flight = 2 * n }

let pp fmt c =
  Format.fprintf fmt
    "@[<v>slaves: %d, window: %d@,\
     task size: %d, budget: %d@,\
     isolated: %b, control-only: %b, refinement check: %b@,\
     dual mode: %b (trigger %d, burst %d)@,\
     fault plan: %s@,\
     predict: %s (seed %d, warmup %d cells)@,\
     master chunk: %d, max cycles: %d, max squashes: %d@,\
     recovery fuel: %d, tracing: %s, superblock: %b, slave block journal: \
     %b@]"
    c.slaves c.max_in_flight c.task_size c.task_budget c.isolated_slaves
    c.control_only_master c.verify_refinement c.dual_mode c.dual_trigger
    c.dual_burst
    (match c.faults with
    | None -> "off"
    | Some plan -> Mssp_faults.Plan.to_string plan)
    (Mssp_predict.Predict.mode_to_string c.predict)
    c.predict_seed
    (List.length c.predict_warmup)
    c.master_chunk c.max_cycles c.max_squashes c.recovery_fuel
    (match c.tracer with None -> "off" | Some _ -> "on")
    c.superblock c.slave_block_journal
