(* The evaluation harness entry point.

   With no arguments: regenerate every experiment (E1..E17, one per
   paper table/figure — see DESIGN.md's experiment index) and finish
   with the Bechamel micro-benchmarks of the simulator's hot paths.

   With arguments: run only the named experiments, e.g.
     dune exec bench/main.exe -- E3 E5
     dune exec bench/main.exe -- micro
     dune exec bench/main.exe -- --csv results/   # also write CSVs
     dune exec bench/main.exe -- E1 micro --json BENCH_mssp.json

   --json FILE writes a machine-readable report: per-experiment
   wall-clock, every verified machine run (benchmark, slaves, cycles,
   speedup), and the micro-benchmark ns/run estimates.

   --jobs N fans each experiment's independent simulation points across
   N worker domains. Every reported number — cycles, speedups, samples,
   tables — is identical at any job count; only host wall clock
   changes. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_file = ref None in
  let rec strip_flags acc = function
    | "--csv" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Harness.csv_dir := Some dir;
      strip_flags acc rest
    | "--json" :: file :: rest ->
      (* fail on an unwritable path now, not after the experiments ran *)
      (try close_out (open_out file)
       with Sys_error e ->
         Printf.eprintf "bench: cannot write %s (%s)\n" file e;
         exit 2);
      json_file := Some file;
      strip_flags acc rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> Harness.jobs := n
      | _ ->
        Printf.eprintf "bench: --jobs wants a positive integer, got %s\n" n;
        exit 2);
      strip_flags acc rest
    | [ (("--csv" | "--json" | "--jobs") as flag) ] ->
      Printf.eprintf "bench: %s requires an argument\n" flag;
      exit 2
    | a :: rest -> strip_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_flags [] args in
  let want name = args = [] || List.mem name args in
  Printf.printf
    "MSSP evaluation harness — every experiment re-verifies final-state\n\
     equivalence with the sequential machine before reporting numbers.\n";
  let wall_clocks = ref [] in
  let run_experiment (name, f) =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    wall_clocks := (name, dt) :: !wall_clocks;
    Printf.printf "  [%s completed in %.1fs]\n%!" name dt
  in
  List.iter (fun (name, f) -> if want name then run_experiment (name, f))
    Experiments.all;
  (* extras (e.g. the E1s smoke) run only when named explicitly *)
  List.iter
    (fun (name, f) -> if List.mem name args then run_experiment (name, f))
    Experiments.extras;
  let micro_results =
    if want "micro" then begin
      Harness.section "Micro-benchmarks (Bechamel): simulator hot paths";
      Micro.run ()
    end
    else []
  in
  (match !json_file with
  | None -> ()
  | Some file ->
    let open Json_out in
    let experiments =
      List.rev_map
        (fun (name, dt) ->
          let runs =
            List.filter_map
              (fun (s : Harness.sample) ->
                if s.experiment <> name then None
                else
                  Some
                    (Obj
                       [
                         ("benchmark", String s.benchmark);
                         ("slaves", Int s.slaves);
                         ("cycles", Int s.cycles);
                         ("speedup", Float s.speedup);
                       ]))
              (List.rev !Harness.samples)
          in
          Obj
            [
              ("name", String name);
              ("wall_clock_s", Float dt);
              ("runs", List runs);
            ])
        !wall_clocks
    in
    let micro =
      List.map
        (fun (name, ns) ->
          Obj [ ("name", String name); ("ns_per_run", Float ns) ])
        micro_results
    in
    (* the superblock throughput pair reports instructions/second — a
       rate, not a ns/run estimate — so it gets its own row shape *)
    let micro =
      micro
      @
      match !Micro.throughput with
      | None -> []
      | Some t ->
        [
          Obj
            [
              ("name", String "seq straight-line (superblock)");
              ("instructions_per_sec", Float t.Micro.ips_sblk);
            ];
          Obj
            [
              ("name", String "seq straight-line (single-step)");
              ("instructions_per_sec", Float t.Micro.ips_step);
            ];
          Obj
            [
              ("name", String "seq straight-line superblock speedup");
              ("ratio", Float (t.Micro.ips_sblk /. t.Micro.ips_step));
            ];
        ]
    in
    (* likewise the slave-body pair: the same straight-line workload run
       as a speculative task, block journal on vs single-step *)
    let micro =
      micro
      @
      match !Micro.slave_throughput with
      | None -> []
      | Some t ->
        [
          Obj
            [
              ("name", String "slave body (block journal)");
              ("instructions_per_sec", Float t.Micro.sips_blk);
            ];
          Obj
            [
              ("name", String "slave body (single-step)");
              ("instructions_per_sec", Float t.Micro.sips_step);
            ];
          Obj
            [
              ("name", String "slave body block-journal speedup");
              ("ratio", Float (t.Micro.sips_blk /. t.Micro.sips_step));
            ];
        ]
    in
    let pool_guard =
      match !Harness.pool_guard with
      | None -> []
      | Some g ->
        [
          ( "pool_guard",
            Obj
              [
                ("jobs", Int g.Harness.pg_jobs);
                ("host_cores", Int g.Harness.pg_cores);
                ("serial_wall_clock_s", Float g.Harness.pg_serial_s);
                ("pooled_wall_clock_s", Float g.Harness.pg_pooled_s);
                ("ratio", Float (g.Harness.pg_pooled_s /. g.Harness.pg_serial_s));
                ("budget_enforced", String (if g.Harness.pg_enforced then "yes" else "no"));
              ] );
        ]
    in
    let fault_guard =
      match !Harness.fault_guard with
      | None -> []
      | Some g ->
        [
          ( "fault_guard",
            Obj
              [
                ("off_wall_clock_s", Float g.Harness.fg_off_s);
                ("armed_wall_clock_s", Float g.Harness.fg_armed_s);
                ( "overhead",
                  Float
                    ((g.Harness.fg_armed_s -. g.Harness.fg_off_s)
                    /. g.Harness.fg_off_s) );
              ] );
        ]
    in
    let sblk_guard =
      match !Harness.sblk_guard with
      | None -> []
      | Some g ->
        let ips t = float_of_int g.Harness.sg_instrs /. t in
        [
          ( "sblk_guard",
            Obj
              [
                ("mssp_cycles", Int g.Harness.sg_cycles);
                ("micro_instructions", Int g.Harness.sg_instrs);
                ("on_wall_clock_s", Float g.Harness.sg_on_s);
                ("off_wall_clock_s", Float g.Harness.sg_off_s);
                ("on_instructions_per_sec", Float (ips g.Harness.sg_on_s));
                ("off_instructions_per_sec", Float (ips g.Harness.sg_off_s));
                ("speedup", Float (g.Harness.sg_off_s /. g.Harness.sg_on_s));
              ] );
        ]
    in
    let sjrnl_guard =
      match !Harness.sjrnl_guard with
      | None -> []
      | Some g ->
        let ips t = float_of_int g.Harness.jg_instrs /. t in
        [
          ( "sjrnl_guard",
            Obj
              [
                ("mssp_cycles", Int g.Harness.jg_cycles);
                ("micro_instructions", Int g.Harness.jg_instrs);
                ("on_wall_clock_s", Float g.Harness.jg_on_s);
                ("off_wall_clock_s", Float g.Harness.jg_off_s);
                ("on_instructions_per_sec", Float (ips g.Harness.jg_on_s));
                ("off_instructions_per_sec", Float (ips g.Harness.jg_off_s));
                ("speedup", Float (g.Harness.jg_off_s /. g.Harness.jg_on_s));
                ("clock_noise", Float g.Harness.jg_noise);
                ( "floor_enforced",
                  String (if g.Harness.jg_enforced then "yes" else "no") );
                ("machine_on_wall_clock_s", Float g.Harness.jg_mach_on_s);
                ("machine_off_wall_clock_s", Float g.Harness.jg_mach_off_s);
                ( "machine_speedup",
                  Float (g.Harness.jg_mach_off_s /. g.Harness.jg_mach_on_s) );
                ("machine_clock_noise", Float g.Harness.jg_mach_noise);
                ( "machine_floor_enforced",
                  String (if g.Harness.jg_mach_enforced then "yes" else "no")
                );
              ] );
        ]
    in
    let adapt_guard =
      match !Harness.adapt_guard with
      | None -> []
      | Some g ->
        [
          ( "adapt_guard",
            Obj
              [
                ( "kernels",
                  List
                    (List.map
                       (fun (name, s, c) ->
                         Obj
                           [
                             ("name", String name);
                             ("static_cycles", Int s);
                             ("adaptive_cycles", Int c);
                             ("ratio", Float (float_of_int s /. float_of_int c));
                           ])
                       g.Harness.ag_kernels) );
                ("geomean", Float g.Harness.ag_geomean);
              ] );
        ]
    in
    write_file file
      (Obj
         ([ ("experiments", List experiments); ("micro", List micro) ]
         @ pool_guard @ fault_guard @ sblk_guard @ sjrnl_guard @ adapt_guard));
    Printf.printf "\n  [json report written to %s]\n" file);
  (* drain and join any worker domains --jobs or a guard spawned before
     the process exits *)
  Mssp_exec.Pool.shutdown_global ()
