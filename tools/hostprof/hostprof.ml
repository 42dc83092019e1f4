(* hostprof: where the simulator's host time goes, by function and by
   module.

   A SIGALRM timer samples the interrupted program counter every 250 us
   (hostprof_stubs.c) while MSSP machine runs execute; the samples are
   symbolized with `nm -n` on this executable and printed as two
   markdown tables of self samples: the top functions, and the share of
   each OCaml module (runtime C code grouped by role).

     dune exec tools/hostprof/hostprof.exe                   # E1 grid
     dune exec tools/hostprof/hostprof.exe -- --bench qsort  # one kernel
     dune exec tools/hostprof/hostprof.exe -- --repeat 3     # more samples
     dune exec tools/hostprof/hostprof.exe -- --words        # allocation
     dune exec tools/hostprof/hostprof.exe -- --fuzz         # fuzz checks

   Profiling and distillation happen before sampling starts, so the
   tables hold the machine runs only: the 52 E1 points (13 registry
   kernels at ref size, 1/2/4/8 slaves, default config) or one kernel's
   four. On a host other than x86-64 or aarch64 Linux it prints
   "unsupported" and exits 0.

   --fuzz samples whole [Oracle.check] calls instead (default grid,
   formal layer on): the first 160 programs of `mssp_sim fuzz --seed 1`
   whose SEQ run is shorter than 1,000 instructions, generated before
   sampling starts. Distillation, the reference runs and the grid's
   machine runs are all in the tables: the per-run fixed costs of short
   programs.

   --words samples nothing (any host): it prints, per point, the minor
   words the machine run allocates per committed instruction and per
   committed task, and the share of them allocated inside the master's
   store hook (the writes into its write layers), measured in a second,
   identical run whose hook is wrapped in [Gc.minor_words] reads. Without
   --bench it then prints two fuzz-check numbers: the fixed words
   (minor plus major) of one machine run of the shortest --fuzz program
   at the oracle grid's honest point, and the spinner adversary's master
   instructions per check. All are deterministic. *)

module W = Mssp_workload.Workload
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Gen = Mssp_fuzz.Gen
module Oracle = Mssp_fuzz.Oracle
module Adversary = Mssp_workload.Adversary

external supported : unit -> bool = "hostprof_supported"
external start : int -> int -> unit = "hostprof_start"
external stop : unit -> unit = "hostprof_stop"
external samples : unit -> int array = "hostprof_samples"
external dropped : unit -> int = "hostprof_dropped"

let interval_us = 250
let capacity = 1 lsl 22
let top = 20

(* --- symbols ------------------------------------------------------------ *)

(* text symbols of this executable, ascending, from `nm -n`; weak ones
   too, since the runtime defines [caml_initialize] and [caml_modify]
   weak: without them their samples go to the symbol below *)
let text_symbols () =
  let ic = Unix.open_process_args_in "nm" [| "nm"; "-n"; Sys.executable_name |] in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
      match String.split_on_char ' ' line with
      | [ addr; ("T" | "t" | "W" | "w"); name ] -> (
        match int_of_string_opt ("0x" ^ addr) with
        | Some a -> go ((a, name) :: acc)
        | None -> go acc)
      | _ -> go acc)
  in
  let syms = go [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "hostprof: `nm -n` failed on this executable");
  Array.of_list syms

(* the symbol containing [pc]: the last one at or below it *)
let symbol_at syms pc =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= pc then go mid hi else go lo mid
  in
  if Array.length syms = 0 || pc < fst syms.(0) then None
  else Some (snd syms.(go 0 (Array.length syms)))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* "Mssp_cache__Cache" -> "Mssp_cache.Cache" *)
let dots unit =
  let b = Buffer.create (String.length unit) in
  let n = String.length unit in
  let rec go i =
    if i < n then
      if i + 1 < n && unit.[i] = '_' && unit.[i + 1] = '_' then (Buffer.add_char b '.'; go (i + 2))
      else (Buffer.add_char b unit.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents b

(* "name_123" -> "name" *)
let strip_stamp fn =
  match String.rindex_opt fn '_' with
  | Some i when i > 0 && int_of_string_opt (String.sub fn (i + 1) (String.length fn - i - 1)) <> None ->
    String.sub fn 0 i
  | _ -> fn

(* An OCaml function symbol is "caml" ^ unit ^ "." ^ name ^ "_" ^ stamp
   (OCaml 5.1 and later), the unit carrying its library wrapper:
   "camlMssp_cache__Cache.access_412" is (Mssp_cache.Cache, access).
   Runtime C symbols ("caml_apply2", "caml_major_collection_slice",
   "oldify_one") have no unit. *)
let split_ocaml name =
  let n = String.length name in
  if n < 5 || not (String.starts_with ~prefix:"caml" name) || name.[4] < 'A' || name.[4] > 'Z'
  then None
  else
    match String.index_opt name '.' with
    | None -> None
    | Some dot ->
      let unit = String.sub name 4 (dot - 4) in
      let fn = String.sub name (dot + 1) (n - dot - 1) in
      Some (dots unit, strip_stamp fn)

let gc_words =
  [ "major"; "minor"; "oldify"; "mark"; "sweep"; "darken"; "pool"; "alloc";
    "compact"; "ephe"; "final"; "young"; "gc"; "memprof";
    (* the write barriers, caml_initialize and caml_modify *)
    "initialize"; "modify" ]

(* the module a symbol's samples count towards *)
let group_of name =
  match split_ocaml name with
  | Some (unit, _) -> unit
  | None ->
    if String.starts_with ~prefix:"caml_apply" name || String.starts_with ~prefix:"caml_curry" name
       || String.starts_with ~prefix:"caml_tuplify" name
    then "(caml_applyN / caml_curryN)"
    else if List.exists (contains name) gc_words then "(GC and allocation)"
    else if contains name "hash" then "(runtime: hashing)"
    else if contains name "compare" || contains name "equal" then "(runtime: compare)"
    else "(runtime and C, other)"

let display name =
  match split_ocaml name with Some (unit, fn) -> unit ^ "." ^ fn | None -> name

(* --- workload ------------------------------------------------------------ *)

let slave_counts = [ 1; 2; 4; 8 ]
let config n = Config.with_slaves n Config.default

(* distill every kernel first; sampling covers only the machine runs *)
let prepare benches =
  List.concat_map
    (fun (b : W.benchmark) ->
      let train = b.W.program ~size:b.W.train_size in
      let program = b.W.program ~size:b.W.ref_size in
      let d = Distill.distill program (Profile.collect train) in
      List.map (fun n -> (b.W.name, n, d)) slave_counts)
    benches

let run_points points =
  List.fold_left
    (fun cycles (name, n, d) ->
      let r = M.run ~config:(config n) d in
      if r.M.stop <> M.Halted then
        failwith (Printf.sprintf "hostprof: %s@%d stopped: %s" name n (M.stop_string r.M.stop));
      cycles + r.M.stats.M.cycles)
    0 points

(* --- fuzz checks ----------------------------------------------------------- *)

let fuzz_count = 160
let fuzz_short = 1000

(* The first [fuzz_count] programs of `mssp_sim fuzz --seed 1` (its
   program seeds and sizes, default weights) whose SEQ run stops within
   [fuzz_short] instructions, with their program seeds. *)
let fuzz_programs () =
  let rng = Mssp_workload.Wl_util.lcg (1 lxor 0x6C078965) in
  let rec go i n acc =
    if n = fuzz_count then List.rev acc
    else
      let seed = (rng () lxor i) land 0x3FFFFFFF in
      let p = Gen.generate ~seed ~size:(6 + (seed mod 19)) () in
      let m = Mssp_seq.Machine.run_program ~fuel:fuzz_short p in
      if m.Mssp_seq.Machine.instructions < fuzz_short then go (i + 1) (n + 1) ((seed, p) :: acc)
      else go (i + 1) n acc
  in
  go 0 0 []

(* machine runs compared *)
let check_programs programs =
  List.fold_left
    (fun runs (seed, p) ->
      match Oracle.check ~formal_seed:seed p with
      | Oracle.Passed n -> runs + n
      | Oracle.Skipped _ -> runs
      | Oracle.Failed _ -> failwith (Printf.sprintf "hostprof: fuzz program seed %d failed its check" seed))
    0 programs

(* --- allocation ----------------------------------------------------------- *)

(* committed instructions and tasks, and the minor words of one run and
   of its store hook alone (a second run) *)
let words_of (_, n, d) =
  let w0 = Gc.minor_words () in
  let r = M.run ~config:(config n) d in
  let all = Gc.minor_words () -. w0 in
  let hook = [| 0.0 |] in
  let wrap store =
    fun a v ->
      let w = Gc.minor_words () in
      store a v;
      hook.(0) <- hook.(0) +. (Gc.minor_words () -. w)
  in
  ignore (M.run ~config:(config n) ~wrap_store:wrap d : M.result);
  ( float_of_int (M.total_committed r),
    float_of_int r.M.stats.M.tasks_committed,
    all,
    hook.(0) )

let words_report points =
  let header first =
    Printf.printf
      "\n| %s | instructions | tasks | all words | words per task | store hook | hook share |\n"
      first;
    print_endline "|---|---:|---:|---:|---:|---:|---:|"
  in
  let row what (i, t, all, hook) =
    Printf.printf "| %s | %.0f | %.0f | %.2f | %.1f | %.2f | %.1f%% |\n" what i t
      (all /. i)
      (if t > 0.0 then all /. t else 0.0)
      (hook /. i)
      (if all > 0.0 then 100.0 *. hook /. all else 0.0)
  in
  let add (i, t, a, h) (i', t', a', h') = (i +. i', t +. t', a +. a', h +. h') in
  let zero = (0.0, 0.0, 0.0, 0.0) in
  Printf.printf
    "hostprof --words: %d points; minor words per committed instruction \
     (all words, store hook) and per committed task\n"
    (List.length points);
  header "point";
  let per_kernel = Hashtbl.create 16 and names = ref [] in
  let total =
    List.fold_left
      (fun total ((name, n, _) as p) ->
        let w = words_of p in
        row (Printf.sprintf "%s@%d" name n) w;
        if not (Hashtbl.mem per_kernel name) then names := name :: !names;
        Hashtbl.replace per_kernel name
          (add w (Option.value ~default:zero (Hashtbl.find_opt per_kernel name)));
        add w total)
      zero points
  in
  header "kernel (1/2/4/8 slaves)";
  List.iter (fun name -> row name (Hashtbl.find per_kernel name)) (List.rev !names);
  row "**all points**" total

(* The two fuzz-check numbers of --words. The fixed words of one machine
   run, minor plus major counted after a full major (so the blocks that
   go straight to the major heap show): the shortest --fuzz program's
   honest package at the grid's [honest] point, after one warm-up run.
   And the master instructions of the [spinner] adversary's run, the
   [adversaries] point's loop that forks nothing until the run-away
   guard stops it, per check, over all the --fuzz programs. *)
let fuzz_words_report () =
  let programs = fuzz_programs () in
  let grid = Oracle.default_grid () in
  let point name = (List.find (fun (pt : Oracle.point) -> pt.Oracle.name = name) grid).Oracle.config in
  let seq_length (_, p) = (Mssp_seq.Machine.run_program ~fuel:fuzz_short p).Mssp_seq.Machine.instructions in
  let shortest =
    List.fold_left
      (fun best c -> if seq_length c < seq_length best then c else best)
      (List.hd programs) programs
  in
  let seed, p = shortest in
  let d = Distill.distill p (Profile.collect p) in
  let config = point "honest" in
  let run () = ignore (Sys.opaque_identity (M.run ~config d)) in
  let total () =
    Gc.full_major ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  run ();
  let w0 = total () in
  run ();
  let fixed = total () -. w0 in
  let adversaries = point "adversaries" in
  let spins =
    List.map
      (fun (_, p) ->
        let r = M.run ~config:adversaries (List.assoc "spinner" (Adversary.all p)) in
        r.M.stats.M.master_instructions)
      programs
  in
  let n = List.length spins in
  Printf.printf
    "\nhostprof --words, fuzz checks (%d programs of `mssp_sim fuzz --seed 1`):\n\n\
     | measure | value |\n|---|---:|\n\
     | fixed words of one machine run (seed %d, %d SEQ instructions, honest point) | %.0f |\n\
     | spinner master instructions per check (mean; min to max) | %.0f; %d to %d |\n"
    n seed (seq_length shortest) fixed
    (float_of_int (List.fold_left ( + ) 0 spins) /. float_of_int n)
    (List.fold_left min max_int spins) (List.fold_left max 0 spins)

(* --- report -------------------------------------------------------------- *)

let table title header rows total =
  Printf.printf "\n%s\n\n| share | samples | %s |\n|---:|---:|---|\n" title header;
  List.iter
    (fun (k, n) ->
      Printf.printf "| %5.1f%% | %d | %s |\n" (100.0 *. float_of_int n /. float_of_int total) n k)
    rows

let tally f names =
  let h = Hashtbl.create 256 in
  Array.iter
    (fun name ->
      let k = f name in
      Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    names;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) h []
  |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)

let usage () =
  prerr_endline
    "usage: hostprof.exe [--bench NAME | --fuzz] [--repeat R] [--words]\n\
    \  default: the E1 grid (every registry kernel at 1/2/4/8 slaves), once;\n\
    \  --fuzz: Oracle.check over 160 short `mssp_sim fuzz --seed 1` programs";
  exit 2

(* Sample [repeat] calls of [run] and print the two tables under
   [header], which gets the summed results of [run]. *)
let sample ~repeat run header =
  let syms = text_symbols () in
  let t0 = Unix.times () in
  start interval_us capacity;
  let acc = ref 0 in
  for _ = 1 to repeat do
    acc := !acc + run ()
  done;
  stop ();
  let t1 = Unix.times () in
  let pcs = samples () in
  let names =
    Array.map
      (fun pc ->
        if pc < 0 then "(outside the executable: libc, vdso, kernel)"
        else Option.value ~default:"(no symbol)" (symbol_at syms pc))
      pcs
  in
  let total = Array.length names in
  print_endline (header !acc);
  Printf.printf "%d samples every %d us (%d dropped), %.2f s CPU\n" total interval_us (dropped ())
    (t1.Unix.tms_utime +. t1.Unix.tms_stime -. t0.Unix.tms_utime -. t0.Unix.tms_stime);
  if total > 0 then begin
    table (Printf.sprintf "Top %d functions (self samples)" top) "function"
      (List.filteri (fun i _ -> i < top) (tally display names)) total;
    table "Per module (self samples)" "module" (tally group_of names) total
  end

let () =
  let bench = ref None and repeat = ref 1 and words = ref false and fuzz = ref false in
  let int_arg s = match int_of_string_opt s with Some n when n > 0 -> n | _ -> usage () in
  let rec parse = function
    | [] -> ()
    | "--bench" :: b :: rest -> bench := Some b; parse rest
    | "--repeat" :: n :: rest -> repeat := int_arg n; parse rest
    | "--words" :: rest -> words := true; parse rest
    | "--fuzz" :: rest -> fuzz := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fuzz && (!words || !bench <> None) then usage ();
  if (not !words) && not (supported ()) then begin
    print_endline "hostprof: unsupported (needs x86-64 or aarch64 Linux)";
    exit 0
  end;
  if !fuzz then begin
    let programs = fuzz_programs () in
    sample ~repeat:!repeat
      (fun () -> check_programs programs)
      (Printf.sprintf
         "hostprof --fuzz: Oracle.check (default grid, formal on) over %d programs of \
          `mssp_sim fuzz --seed 1` with SEQ runs under %d instructions, x %d; %d machine runs compared"
         (List.length programs) fuzz_short !repeat);
    exit 0
  end;
  let benches =
    match !bench with
    | None -> W.all
    | Some b -> (
      try [ W.find b ] with Invalid_argument msg -> prerr_endline msg; exit 2)
  in
  let points = prepare benches in
  if !words then begin
    words_report points;
    if !bench = None then fuzz_words_report ();
    exit 0
  end;
  let what =
    Printf.sprintf "%s x 1/2/4/8 slaves, %d points x %d"
      (match !bench with None -> Printf.sprintf "E1 grid (%d kernels)" (List.length benches) | Some b -> b)
      (List.length points) !repeat
  in
  sample ~repeat:!repeat
    (fun () -> run_points points)
    (Printf.sprintf "hostprof: %s; %d simulated cycles" what)
