(** Shared plumbing for the evaluation harness: benchmark preparation
    (train -> profile -> distill), machine runs, speedups, and the
    qualitative assertions each experiment prints. *)

module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module B = Mssp_baseline.Baseline
module W = Mssp_workload.Workload
module Stats = Mssp_metrics.Stats
module Table = Mssp_metrics.Table

type prepared = {
  bench : W.benchmark;
  program : Mssp_isa.Program.t;  (** reference-input image *)
  distilled : Distill.t;
  baseline : B.result;  (** sequential run, cycles + final state *)
}

let prepare ?options ?passes ?(scale = 1.0) (bench : W.benchmark) =
  let ref_size = max 1 (int_of_float (float_of_int bench.W.ref_size *. scale)) in
  let train = bench.W.program ~size:bench.W.train_size in
  let program = bench.W.program ~size:ref_size in
  let profile = Profile.collect train in
  let distilled = Distill.distill ?options ?passes program profile in
  let baseline =
    B.sequential ~also_load:[ distilled.Distill.distilled ] program
  in
  { bench; program; distilled; baseline }

let run ?(config = Config.default) prepared =
  M.run ~config prepared.distilled

let speedup prepared (r : M.result) =
  B.speedup ~baseline:prepared.baseline r.M.stats.M.cycles

let with_slaves n = Config.with_slaves n Config.default

(* every experiment double-checks correctness before reporting numbers *)
let assert_correct prepared (r : M.result) =
  if r.M.stop <> M.Halted then
    failwith
      (Printf.sprintf "%s: MSSP did not halt cleanly" prepared.bench.W.name);
  if not (Full.equal_observable prepared.baseline.B.state r.M.arch) then
    failwith
      (Printf.sprintf "%s: MSSP final state diverges from SEQ"
         prepared.bench.W.name)

(* optional machine-readable output: when [csv_dir] is set (bench --csv
   DIR), every printed table is also written as <Eid>-<n>.csv there *)
let csv_dir : string option ref = ref None
let current_section = ref "misc"
let table_counter = ref 0

(* every verified machine run is sampled for the machine-readable report
   (bench --json FILE); [current_section] names the enclosing experiment *)
type sample = {
  experiment : string;
  benchmark : string;
  slaves : int;
  cycles : int;
  speedup : float;
}

let samples : sample list ref = ref []

(* POOLG times runs whose samples would duplicate E1's; it flips this
   off around its timed batches *)
let record_samples = ref true

let record_sample ~config prepared (r : M.result) =
  assert_correct prepared r;
  if !record_samples then
    samples :=
      {
        experiment = !current_section;
        benchmark = prepared.bench.W.name;
        slaves = config.Config.slaves;
        cycles = r.M.stats.M.cycles;
        speedup = speedup prepared r;
      }
      :: !samples

let checked_run ?(config = Config.default) prepared =
  let r = run ~config prepared in
  record_sample ~config prepared r;
  r

(* inter-run parallelism: bench --jobs N fans each experiment's
   independent grid points across N domains *)
let jobs = ref 1

(* Run every (prepared, config) point, fanned across [!jobs] domains.
   The simulations are independent and each is deterministic, so the
   result list — and everything downstream: assertions, samples,
   printed tables — is identical at every job count. Verification and
   sample recording happen here on the calling domain, in point order. *)
let checked_runs points =
  let results =
    Mssp_exec.Pool.map_runs ~jobs:!jobs
      (fun (prepared, config) -> run ~config prepared)
      points
  in
  List.iter2
    (fun (prepared, config) r -> record_sample ~config prepared r)
    points results;
  results

(* POOLG's measured wall clocks, picked up by the bench --json writer *)
type pool_guard = {
  pg_jobs : int;
  pg_cores : int;  (** Domain.recommended_domain_count on this host *)
  pg_serial_s : float;
  pg_pooled_s : float;
  pg_enforced : bool;  (** the 0.6x budget was a hard failure condition *)
}

let pool_guard : pool_guard option ref = ref None

(* FAULTG's measured wall clocks, picked up by the bench --json writer *)
type fault_guard = {
  fg_off_s : float;  (** no plan compiled in ([Config.faults = None]) *)
  fg_armed_s : float;  (** benign plan compiled in, every action at p = 0 *)
}

let fault_guard : fault_guard option ref = ref None

(* SBLKG's measurements, picked up by the bench --json writer *)
type sblk_guard = {
  sg_cycles : int;  (** MSSP vecsum cycles — bit-identical in both modes *)
  sg_instrs : int;  (** straight-line micro retired instructions *)
  sg_on_s : float;  (** straight-line micro wall clock, engine on *)
  sg_off_s : float;  (** engine off (single-step reference) *)
}

let sblk_guard : sblk_guard option ref = ref None

(* SJRNLG's measurements, picked up by the bench --json writer *)
type sjrnl_guard = {
  jg_cycles : int;
      (** MSSP vecsum cycles — bit-identical with block journal on/off *)
  jg_instrs : int;  (** slave-body micro retired instructions *)
  jg_on_s : float;  (** slave-body micro wall clock, block journal on *)
  jg_off_s : float;  (** single-step slave reference *)
  jg_noise : float;  (** double-timed baseline self-disagreement *)
  jg_enforced : bool;  (** the 2x floor was a hard failure condition *)
  jg_mach_on_s : float;
      (** whole-machine wall clock (vecsum, 8 slaves), block journal on *)
  jg_mach_off_s : float;  (** same machine run, single-step slaves *)
  jg_mach_noise : float;  (** double-timed machine baseline disagreement *)
  jg_mach_enforced : bool;  (** the 1.3x floor was a hard failure condition *)
}

let sjrnl_guard : sjrnl_guard option ref = ref None

(* ADPTG's measurements, picked up by the bench --json writer *)
type adapt_guard = {
  ag_kernels : (string * int * int) list;
      (** per kernel: name, static (round 0) cycles, adaptive-best cycles
          — both deterministic simulated cycle counts at 8 slaves with
          the tournament predictor on *)
  ag_geomean : float;  (** geomean of static / adaptive-best ratios *)
}

let adapt_guard : adapt_guard option ref = ref None

let section title =
  (match String.index_opt title ' ' with
  | Some i -> current_section := String.sub title 0 i
  | None -> current_section := title);
  table_counter := 0;
  Printf.printf "\n==================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================\n"

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let print_table ?align ~header rows =
  print_string (Table.render ?align ~header rows);
  match !csv_dir with
  | None -> ()
  | Some dir ->
    incr table_counter;
    let file =
      Filename.concat dir
        (Printf.sprintf "%s-%d.csv" !current_section !table_counter)
    in
    Mssp_metrics.Csv.write_file file ~header rows

let f2 = Table.fmt_float
let fi = string_of_int
