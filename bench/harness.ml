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

let record_sample ~config prepared (r : M.result) =
  assert_correct prepared r;
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

(* report floats keep 6 significant digits: more than a wall clock
   resolves, and regenerated reports diff only where numbers moved *)
let json_float x =
  Mssp_trace.Tjson.Float (float_of_string (Printf.sprintf "%.6g" x))

let f2 = Table.fmt_float
let fi = string_of_int
