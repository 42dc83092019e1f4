(** The three workloads: their set-up (program generation) and one pass.

    Every machine run is checked against SEQ inside the pass; a failure
    is named and counted, never raised. Every config field that the
    environment could otherwise choose is pinned by [pin]. *)

module Full = Mssp_state.Full
module Program = Mssp_isa.Program
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Adapt = Mssp_core.Mssp_adapt
module B = Mssp_baseline.Baseline
module W = Mssp_workload.Workload
module Gen = Mssp_fuzz.Gen
module Oracle = Mssp_fuzz.Oracle
module Predict = Mssp_predict.Predict
module Stats = Mssp_metrics.Stats

let pin (c : Config.t) =
  {
    c with
    Config.pool = Some 0;
    superblock = true;
    slave_block_journal = true;
    tracer = None;
  }

(** One timed operation: its calibration timing, and the minor words
    allocated around it that are not the operation's own. *)
type op = { timing : Calib.timing; calib_words : float }

(** What one pass measured. [instrs] is the simulated instructions the
    pass retired: each machine and [Baseline] run counts its program's
    SEQ instruction count. [sim] holds the
    pass's deterministic simulated quantities by metric name. *)
type pass = {
  cpu_s : float;
  instrs : float;
  words : float;
  ops : op list;  (** newest first *)
  attempted : int;
  failures : string list;
  sim : (string * float) list;
}

(** Machine-level simulated totals over a pass's checked runs. *)
type core = {
  mutable cycles : int;
  mutable seq_instrs : int;
  mutable master : int;
  mutable spawned : int;
  mutable committed : int;
  mutable squashes : int;
  mutable recovery : int;
  mutable retired : int;
  mutable busy : int;
  mutable slave_cycles : int;
  mutable hits : int;
  mutable misses : int;
  mutable drift : int;
  mutable dyn_ratios : float list;
}

let core () =
  {
    cycles = 0; seq_instrs = 0; master = 0; spawned = 0; committed = 0;
    squashes = 0; recovery = 0; retired = 0; busy = 0; slave_cycles = 0;
    hits = 0; misses = 0; drift = 0; dyn_ratios = [];
  }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let account c ~(config : Config.t) ~seq_instrs (r : M.result) =
  let s = r.M.stats in
  Spans.count "core.instrs" (float_of_int (M.total_committed r));
  c.cycles <- c.cycles + s.M.cycles;
  c.seq_instrs <- c.seq_instrs + seq_instrs;
  c.master <- c.master + s.M.master_instructions;
  c.spawned <- c.spawned + s.M.tasks_spawned;
  c.committed <- c.committed + s.M.tasks_committed;
  c.squashes <- c.squashes + s.M.squashes;
  c.recovery <- c.recovery + s.M.recovery_instructions;
  c.retired <- c.retired + M.total_committed r;
  c.busy <- c.busy + s.M.slave_busy_cycles;
  c.slave_cycles <- c.slave_cycles + (config.Config.slaves * s.M.cycles);
  c.hits <- c.hits + s.M.predict_hits;
  c.misses <- c.misses + s.M.predict_misses

let core_metrics c =
  [
    ("core.cycles", float_of_int c.cycles);
    ("core.master_ratio", ratio c.seq_instrs c.master);
    ("core.commit_ratio", ratio c.committed c.spawned);
    ("core.squashes_per_ktask", 1000.0 *. ratio c.squashes c.spawned);
    ("core.recovery_share", ratio c.recovery c.retired);
    ("core.slave_occupancy", ratio c.busy c.slave_cycles);
    ("core.cycle_drift_points", float_of_int c.drift);
    ("predict.hit_ratio", ratio c.hits (c.hits + c.misses));
    ("predict.lookups", float_of_int (c.hits + c.misses));
    ( "distill.dynamic_ratio",
      if c.dyn_ratios = [] then 0.0 else Stats.geomean c.dyn_ratios );
  ]

(** [Some reason] when a machine run is not a correct one: it must halt,
    end in SEQ's observable state, and report no refinement violation. *)
let verdict ~(seq : Full.t) (r : M.result) =
  if r.M.stop <> M.Halted then Some ("stopped: " ^ M.stop_string r.M.stop)
  else if not (Full.equal_observable seq r.M.arch) then
    Some "final state differs from SEQ"
  else if r.M.refinement_violations > 0 then
    Some (Printf.sprintf "%d refinement violations" r.M.refinement_violations)
  else None

let now = Unix.gettimeofday

(** The process's CPU seconds, user and system. Every timed run is
    single-threaded ([pool = Some 0]), so this is the host time the
    simulator spent, without the time a shared host gave to other work. *)
let cpu = Calib.cpu

let timed f =
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

(** Time [f] as one operation, with calibration slices before and
    inside it. *)
let op ops f =
  let own = ref 0.0 in
  let w0 = Gc.minor_words () in
  let r, timing =
    Calib.around (fun () ->
        let w = Gc.minor_words () in
        let r = f () in
        own := Gc.minor_words () -. w;
        r)
  in
  ops := { timing; calib_words = Gc.minor_words () -. w0 -. !own } :: !ops;
  r

(** Run [body] as one pass, on a compacted heap, so that every pass
    starts from the same heap: CPU time and minor words around it, the
    latter without the calibration's. *)
let measure body =
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let (instrs, ops, attempted, failures, sim), cpu_s = timed body in
  let calib_words = List.fold_left (fun a o -> a +. o.calib_words) 0.0 ops in
  let words = Gc.minor_words () -. w0 -. calib_words in
  { cpu_s; instrs; words; ops; attempted; failures; sim }

(* the untimed SEQ reference, probed from the traced run only *)
let probe_seq program =
  if !Spans.enabled then begin
    let m =
      Spans.with_ "seq_machine" (fun () -> Machine.run_program ~superblock:true program)
    in
    Spans.count "seq_machine.instrs" (float_of_int m.Machine.instructions)
  end

(* --- kernels ---------------------------------------------------------- *)

(** A registry kernel's training and reference images. *)
type kernel = { name : string; train : Program.t; program : Program.t }

let kernels_of benches =
  List.map
    (fun (b : W.benchmark) ->
      {
        name = b.W.name;
        train = b.W.program ~size:b.W.train_size;
        program = b.W.program ~size:b.W.ref_size;
      })
    benches

let slave_counts = [ 1; 2; 4; 8 ]

let kernels_setup (_ : int) = kernels_of W.all

let kernels_pass ks =
  measure (fun () ->
      let c = core () in
      let instrs = ref 0.0 and ops = ref [] and attempted = ref 0 in
      let failures = ref [] and speedups = ref [] and scaling = ref [] in
      List.iter
        (fun k ->
          let name = k.name in
          Spans.new_op ();
          Spans.with_ "bench" (fun () ->
              let profile = Spans.with_ "profile" (fun () -> Profile.collect k.train) in
              let d = Spans.with_ "distill" (fun () -> Distill.distill k.program profile) in
              c.dyn_ratios <- Distill.dynamic_ratio d.Distill.stats :: c.dyn_ratios;
              let bl =
                Spans.with_ "baseline" (fun () ->
                    B.sequential ~also_load:[ d.Distill.distilled ] k.program)
              in
              Spans.count "baseline.instrs" (float_of_int bl.B.instructions);
              instrs := !instrs +. float_of_int bl.B.instructions;
              probe_seq k.program;
              let cycles_at =
                List.map
                  (fun n ->
                    let config = pin (Config.with_slaves n Config.default) in
                    let what = Printf.sprintf "kernels/%s@%d" name n in
                    incr attempted;
                    let r, bad =
                      op ops (fun () ->
                          let r =
                            Fold.traced ~what
                              (fun tracer ->
                                Spans.with_ "core" (fun () ->
                                    M.run ~config:{ config with Config.tracer } d))
                              (fun r -> [ r.M.stats ])
                          in
                          (r, verdict ~seq:bl.B.state r))
                    in
                    (match bad with
                    | Some why -> failures := (what ^ ": " ^ why) :: !failures
                    | None -> ());
                    instrs := !instrs +. float_of_int bl.B.instructions;
                    account c ~config ~seq_instrs:bl.B.instructions r;
                    let cyc = r.M.stats.M.cycles in
                    if not (List.mem (name, n, cyc) Reference.e1) then
                      c.drift <- c.drift + 1;
                    (n, cyc))
                  slave_counts
              in
              let at n = float_of_int (List.assoc n cycles_at) in
              speedups := (float_of_int bl.B.cycles /. at 8) :: !speedups;
              scaling := (at 2 /. at 8) :: !scaling))
        ks;
      ( !instrs,
        !ops,
        !attempted,
        List.rev !failures,
        [
          ("speedup_geomean", Stats.geomean !speedups);
          ("slave_scaling", Stats.geomean !scaling);
          ("adapt_gain", 1.0);
        ]
        @ core_metrics c ))

(* --- fuzz ------------------------------------------------------------- *)

(** Programs judged per pass. *)
let fuzz_count = 160

(** Candidates generated per judged program. *)
let fuzz_pool = 10

(** The longest SEQ run, in instructions, of a judged program. *)
let fuzz_short = 1000

let fuzz_fuel = 5_000_000

type fuzz_program = {
  seed : int;
  prog : Program.t;
  seq_instrs : int;  (** SEQ instructions of the reference run, for host_mips *)
}

(** Generate [fuzz_pool * fuzz_count] candidates the way
    [mssp_sim fuzz --seed S] does (same program seeds, 6–24 shapes,
    default weights). Keep those whose SEQ run is shorter than
    [fuzz_short], sort them by SEQ instruction count and take
    [fuzz_count] at evenly spaced ranks. A check's cost follows the
    program's instruction count, so this stratified sample keeps a pass's
    cost nearly the same from one seed to the next while every program
    still comes from the seed. About a third of the candidates loop for
    4,000 instructions or more, and their check costs differ by several
    times at equal counts: with them in, the words a pass allocates
    spread by 0.10 of their median across seeds, without them by 0.01. *)
let fuzz_setup seed =
  let rng = Mssp_workload.Wl_util.lcg (seed lxor 0x6C078965) in
  let candidates =
    List.init (fuzz_pool * fuzz_count) (fun i ->
        let seed = (rng () lxor i) land 0x3FFFFFFF in
        let prog =
          Spans.with_ "gen" (fun () -> Gen.generate ~seed ~size:(6 + (seed mod 19)) ())
        in
        let m = Machine.run_program ~fuel:fuzz_fuel ~superblock:true prog in
        { seed; prog; seq_instrs = m.Machine.instructions })
  in
  let ranked =
    Array.of_list
      (List.stable_sort
         (fun a b -> compare a.seq_instrs b.seq_instrs)
         (List.filter (fun c -> c.seq_instrs < fuzz_short) candidates))
  in
  let n = Array.length ranked in
  List.init fuzz_count (fun i -> ranked.(((2 * i) + 1) * n / (2 * fuzz_count)))

let fuzz_grid () =
  List.map
    (fun (pt : Oracle.point) -> { pt with Oracle.config = pin pt.Oracle.config })
    (Oracle.default_grid ())

(* Judged-program totals of the last pass, for the traced run. *)
let fuzz_runs = ref 0
let fuzz_judged = ref 0
let fuzz_skipped = ref 0

(* The traced run's outside view of the layers Oracle.check calls
   internally: the same profile, one honest distillation and the SEQ
   reference on the same program, and the check with the formal layer
   off (formal.s is the difference). *)
let fuzz_probes c grid p =
  let profile =
    Spans.with_ "profile" (fun () -> Profile.collect ~fuel:fuzz_fuel p.prog)
  in
  let d = Spans.with_ "distill" (fun () -> Distill.distill p.prog profile) in
  c.dyn_ratios <- Distill.dynamic_ratio d.Distill.stats :: c.dyn_ratios;
  probe_seq p.prog;
  ignore
    (Spans.with_ "fuzz_no_formal" (fun () ->
         Oracle.check ~grid ~fuel:fuzz_fuel ~formal:false ~formal_seed:p.seed p.prog)
      : Oracle.verdict)

let fuzz_pass ps =
  let grid = fuzz_grid () in
  measure (fun () ->
      let c = core () in
      let instrs = ref 0.0 and ops = ref [] and failures = ref [] in
      fuzz_runs := 0;
      fuzz_judged := 0;
      fuzz_skipped := 0;
      List.iter
        (fun p ->
          Spans.new_op ();
          Spans.with_ "bench" (fun () ->
              let v =
                op ops (fun () ->
                    Spans.with_ "fuzz" (fun () ->
                        Oracle.check ~grid ~fuel:fuzz_fuel ~formal_seed:p.seed p.prog))
              in
              match v with
              | Oracle.Passed n ->
                incr fuzz_judged;
                fuzz_runs := !fuzz_runs + n;
                instrs := !instrs +. float_of_int (n * p.seq_instrs);
                if !Spans.enabled then fuzz_probes c grid p
              | Oracle.Skipped _ -> incr fuzz_skipped
              | Oracle.Failed fs ->
                incr fuzz_judged;
                failures :=
                  Printf.sprintf "fuzz/seed%d: %s" p.seed
                    (String.concat "; "
                       (List.map (Format.asprintf "%a" Oracle.pp_failure) fs))
                  :: !failures))
        ps;
      ( !instrs,
        !ops,
        List.length ps,
        List.rev !failures,
        [ ("speedup_geomean", 1.0); ("slave_scaling", 1.0); ("adapt_gain", 1.0) ]
        @ core_metrics c ))

(* --- adapt ------------------------------------------------------------ *)

let adapt_kernels = [ "fir"; "rle"; "treesum"; "dijkstra" ]

(** The seed the committed ADPTG record was made with; the benchmark's
    default seed, so the default run reproduces that record. *)
let default_seed = Config.default.Config.predict_seed

let adapt_setup (_ : int) = kernels_of (List.map W.find adapt_kernels)

(* per kernel: adaptation host seconds and chosen round, last pass *)
let adapt_detail : (string * (float * int)) list ref = ref []

let adapt_pass ?(predict = Predict.Tournament) ~seed ks =
  measure (fun () ->
      let c = core () in
      let instrs = ref 0.0 and ops = ref [] and attempted = ref 0 in
      let failures = ref [] and speedups = ref [] and gains = ref [] in
      adapt_detail := [];
      List.iter
        (fun k ->
          Spans.new_op ();
          Spans.with_ "bench" @@ fun () ->
          op ops (fun () ->
              let profile = Spans.with_ "profile" (fun () -> Profile.collect k.train) in
              let config =
                pin
                  {
                    (Config.with_slaves 8 Config.default) with
                    Config.predict;
                    predict_seed = seed;
                  }
              in
              let a, adapt_s =
                timed (fun () ->
                    Fold.traced ~what:("adapt/" ^ k.name)
                      (fun tracer ->
                        Spans.with_ "adapt" (fun () ->
                            Adapt.run ~rounds:1
                              ~config:{ config with Config.tracer }
                              k.program profile))
                      (fun a ->
                        List.map (fun rd -> rd.Adapt.result.M.stats) a.Adapt.rounds))
              in
              adapt_detail := (k.name, (adapt_s, a.Adapt.best.Adapt.index)) :: !adapt_detail;
              let seq_cycles = ref 0 in
              List.iter
                (fun (rd : Adapt.round) ->
                  incr attempted;
                  let d = rd.Adapt.distilled in
                  if !Spans.enabled then
                    ignore
                      (Spans.with_ "distill" (fun () ->
                           Distill.distill
                             ~options:{ Distill.default_options with Distill.feedback = rd.Adapt.feedback }
                             k.program profile)
                        : Distill.t);
                  c.dyn_ratios <- Distill.dynamic_ratio d.Distill.stats :: c.dyn_ratios;
                  let bl =
                    Spans.with_ "baseline" (fun () ->
                        B.sequential ~also_load:[ d.Distill.distilled ] k.program)
                  in
                  Spans.count "baseline.instrs" (float_of_int bl.B.instructions);
                  instrs := !instrs +. (2.0 *. float_of_int bl.B.instructions);
                  if rd.Adapt.index = a.Adapt.best.Adapt.index then seq_cycles := bl.B.cycles;
                  let what = Printf.sprintf "adapt/%s/round%d" k.name rd.Adapt.index in
                  (match verdict ~seq:bl.B.state rd.Adapt.result with
                  | Some why -> failures := (what ^ ": " ^ why) :: !failures
                  | None -> ());
                  account c ~config ~seq_instrs:bl.B.instructions rd.Adapt.result)
                a.Adapt.rounds;
              let r0 = Adapt.round_cycles (List.hd a.Adapt.rounds) in
              let best = Adapt.round_cycles a.Adapt.best in
              if not (List.mem (k.name, r0, best) Reference.adapt) then
                c.drift <- c.drift + 1;
              speedups := (float_of_int !seq_cycles /. float_of_int best) :: !speedups;
              gains := (float_of_int r0 /. float_of_int best) :: !gains;
              probe_seq k.program))
        ks;
      adapt_detail := List.rev !adapt_detail;
      ( !instrs,
        !ops,
        !attempted,
        List.rev !failures,
        [
          ("speedup_geomean", Stats.geomean !speedups);
          ("slave_scaling", 1.0);
          ("adapt_gain", Stats.geomean !gains);
        ]
        @ core_metrics c ))
