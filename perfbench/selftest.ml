(* The benchmark's own determinism check (dune build @perfbench/selftest).
   Every workload runs one pass at the default seed in two fresh
   processes. Each must fail nothing and match the committed record
   (every kernels point's cycles equal the E1 rows, every adapt kernel's
   cycles the ADPTG rows); the two must agree exactly on their simulated
   metrics and allocated words. *)

module W = Workloads

let workloads = [ "kernels"; "fuzz"; "adapt" ]

(* child: one pass, checked, summarized on one line *)
let one name =
  (* the calibration timer's signals allocate a few words each *)
  Calib.inside := false;
  let seed = W.default_seed in
  let p =
    match name with
    | "kernels" -> W.kernels_pass (W.kernels_setup seed)
    | "fuzz" -> W.fuzz_pass (W.fuzz_setup seed)
    | _ -> W.adapt_pass ~seed (W.adapt_setup seed)
  in
  let sim k = List.assoc k p.W.sim in
  let headline =
    match name with
    | "kernels" -> Printf.sprintf "%.2f" (sim "speedup_geomean") = "1.21"
    | "adapt" -> Printf.sprintf "%.2f" (sim "adapt_gain") = "1.33"
    | _ -> true
  in
  List.iter prerr_endline p.W.failures;
  Printf.printf "%s words=%.0f %s\n" name p.W.words
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) p.W.sim));
  if p.W.failures <> [] || sim "core.cycle_drift_points" <> 0.0 || not headline then
    exit 1

let child name =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; name |] in
  let line = try input_line ic with End_of_file -> "" in
  (line, Unix.close_process_in ic = Unix.WEXITED 0)

let () =
  match Sys.argv with
  | [| _; name |] -> one name
  | _ ->
    let failed = ref false in
    List.iter
      (fun name ->
        let a, ok_a = child name in
        let b, ok_b = child name in
        let ok = ok_a && ok_b && a = b && a <> "" in
        Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") a;
        if a <> b then Printf.printf "     second run: %s\n%!" b;
        if not ok then failed := true)
      workloads;
    if !failed then exit 1
