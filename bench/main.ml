(* The evaluation harness entry point.

   With no arguments: regenerate every experiment (E1..E17, one per
   paper table/figure — see DESIGN.md's experiment index).

   With arguments: run only the named experiments, e.g.
     dune exec bench/main.exe -- E3 E5
     dune exec bench/main.exe -- --csv results/   # also write CSVs
     dune exec bench/main.exe -- E1 ADPTG --json BENCH_mssp.json
   An unknown name exits 2 with the list of known ones.

   --json FILE writes a machine-readable report: the host (cores, OCaml
   version), per-experiment wall-clock, every verified machine run
   (benchmark, slaves, cycles, speedup) and one row per guard
   (bench/guard.ml). It goes to FILE.tmp first and is renamed over FILE,
   so an interrupted bench leaves FILE as it was.

   The exit code is 1 when any experiment check failed or a guard bound
   broke; the report is written first either way.

   --jobs N fans each experiment's independent simulation points across
   N worker domains. Every reported number — cycles, speedups, samples,
   tables — is identical at any job count; only host wall clock
   changes. *)

(* the report's staging file, FILE.tmp, renamed over FILE once written *)
let open_tmp file =
  open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_text ] 0o644
    (file ^ ".tmp")

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_file = ref None in
  let rec strip_flags acc = function
    | "--csv" :: dir :: rest ->
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
       with Sys_error e ->
         Printf.eprintf "bench: cannot create %s (%s)\n" dir e;
         exit 2);
      Harness.csv_dir := Some dir;
      strip_flags acc rest
    | "--json" :: file :: rest ->
      (* fail on an unwritable path now, not after the experiments ran,
         and leave FILE itself untouched *)
      (try
         if Sys.file_exists file && Sys.is_directory file then
           raise (Sys_error "is a directory");
         close_out (open_tmp file);
         Sys.remove (file ^ ".tmp")
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
  let known = List.map fst (Experiments.all @ Experiments.extras) in
  (match List.filter (fun a -> not (List.mem a known)) args with
  | [] -> ()
  | unknown ->
    Printf.eprintf "bench: unknown experiment %s (known: %s)\n"
      (String.concat ", " unknown) (String.concat " " known);
    exit 2);
  let want name = args = [] || List.mem name args in
  Printf.printf
    "MSSP evaluation harness — every experiment re-verifies final-state\n\
     equivalence with the sequential machine before reporting numbers.\n";
  let wall_clocks = ref [] and failures = ref [] in
  (* a failing check is recorded, not fatal, so the report is still
     written; the exit code reports it *)
  let run_experiment (name, f) =
    let t0 = Unix.gettimeofday () in
    (try f () with Failure msg ->
       Printf.printf "  [%s FAILED: %s]\n" name msg;
       failures := msg :: !failures);
    let dt = Unix.gettimeofday () -. t0 in
    wall_clocks := (name, dt) :: !wall_clocks;
    Printf.printf "  [%s completed in %.1fs]\n%!" name dt
  in
  List.iter (fun (name, f) -> if want name then run_experiment (name, f))
    Experiments.all;
  (* extras (the ADPTG guard) run only when named explicitly *)
  List.iter
    (fun (name, f) -> if List.mem name args then run_experiment (name, f))
    Experiments.extras;
  let guards = List.rev !Guard.rows in
  (match !json_file with
  | None -> ()
  | Some file ->
    let open Mssp_trace.Tjson in
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
                         ("benchmark", Str s.benchmark);
                         ("slaves", Int s.slaves);
                         ("cycles", Int s.cycles);
                         ("speedup", Harness.json_float s.speedup);
                       ]))
              (List.rev !Harness.samples)
          in
          Obj
            [
              ("name", Str name);
              ("wall_clock_s", Harness.json_float dt);
              ("runs", List runs);
            ])
        !wall_clocks
    in
    let host =
      Obj
        [
          ("cores", Int (Domain.recommended_domain_count ()));
          ("ocaml", Str Sys.ocaml_version);
        ]
    in
    let oc = open_tmp file in
    output_string oc
      (pretty
         (Obj
            [
              ("host", host);
              ("experiments", List experiments);
              ("guards", List (List.map Guard.to_json guards));
            ]));
    close_out oc;
    Sys.rename (file ^ ".tmp") file;
    Printf.printf "\n  [json report written to %s]\n" file);
  match List.rev !failures @ List.filter_map Guard.failure guards with
  | [] -> ()
  | failed ->
    Printf.eprintf "bench: %d check(s) failed:\n" (List.length failed);
    List.iter (Printf.eprintf "  %s\n") failed;
    exit 1
