(* The distiller: runs a list of named passes (Pass) over one
   distillation state, runs the pass-checker (Check) after every step
   when asked, appends an identity layout when the list carries no
   layout pass, and packages the final state into the [t] record the
   machine consumes. Each step keeps copies of the code it started from
   and produced; the disassembly listings are rendered from those only
   when a diff or dump is asked for. *)

module Program = Mssp_isa.Program
module Profile = Mssp_profile.Profile

type feedback = Pass.feedback = {
  fb_squash_rate : float;
  fb_target_size : int;
  fb_elide : bool;
}

type options = Pass.options = {
  branch_bias_threshold : float;
  min_branch_count : int;
  remove_dead_writes : bool;
  remove_noncomm_stores : bool;
  store_comm_distance : int;
  min_store_count : int;
  compact : bool;
  min_boundary_count : int;
  feedback : feedback option;
}

let default_options = Pass.default_options
let identity_options = Pass.identity_options

type stats = {
  original_static : int;
  distilled_static : int;
  forks_inserted : int;
  branches_hardened : int;
  dead_writes_removed : int;
  stores_removed : int;
  blocks_dropped : int;
  estimated_dynamic_original : int;
  estimated_dynamic_distilled : int;
}

let static_ratio s =
  if s.distilled_static = 0 then infinity
  else float_of_int s.original_static /. float_of_int s.distilled_static

let dynamic_ratio s =
  if s.estimated_dynamic_distilled = 0 then infinity
  else
    float_of_int s.estimated_dynamic_original
    /. float_of_int s.estimated_dynamic_distilled

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>static: %d -> %d (%.2fx)@,\
     estimated dynamic: %d -> %d (%.2fx)@,\
     forks: %d, hardened branches: %d@,\
     dead writes removed: %d, stores removed: %d, blocks dropped: %d@]"
    s.original_static s.distilled_static (static_ratio s)
    s.estimated_dynamic_original s.estimated_dynamic_distilled
    (dynamic_ratio s) s.forks_inserted s.branches_hardened
    s.dead_writes_removed s.stores_removed s.blocks_dropped

(* --- registry ------------------------------------------------------ *)

let default_passes () =
  [
    Pass.harden;
    Pass.drop_stores;
    Pass.repair;
    Pass.dead_writes;
    Pass.boundaries;
    Pass.split_merge;
    Pass.faint_writes;
    Pass.compact;
  ]

let names ps = List.map (fun (p : Pass.t) -> p.Pass.name) ps

(* the default passes and the deliberately broken ones *)
let resolve wanted =
  let registry =
    default_passes ()
    @ [ Pass.broken_harden; Pass.broken_stores; Pass.broken_forks ]
  in
  let find n =
    List.find_opt (fun (p : Pass.t) -> String.equal p.Pass.name n) registry
  in
  match List.filter (fun n -> Option.is_none (find n)) wanted with
  | [] -> Ok (List.map (fun n -> Option.get (find n)) wanted)
  | missing ->
    Error
      (Format.asprintf "unknown pass(es): %s (known: %s)"
         (String.concat ", " missing)
         (String.concat ", " (names registry)))

(* --- the package --------------------------------------------------- *)

type step = {
  index : int;
  pass : Pass.t;
  stat : Pass.pstat;
  violations : Check.violation list;
  before : Program.t;
  after : Program.t;
}

type t = {
  original : Program.t;
  distilled : Program.t;
  task_entries : int list;
  entry_map : (int, int) Hashtbl.t;
  pc_map : (int, int) Hashtbl.t;
  stats : stats;
  steps : step list;
  violations : Check.violation list;
}

let ok d = d.violations = []

(* The flat stats record is derived by composing the per-pass records:
   each counter is the sum over every pass that claims it, so custom
   pipelines (repeated, reordered or omitted passes) still account
   correctly. *)
let counter_total steps name =
  List.fold_left (fun acc (s : step) -> acc + Pass.counter s.stat name) 0 steps

let package (st : Pass.state) steps violations =
  let l =
    match st.Pass.layout with
    | Some l -> l
    | None -> assert false (* the driver always appends a layout *)
  in
  let task_entries =
    match st.Pass.task_entries with Some e -> e | None -> assert false
  in
  let stats =
    {
      original_static = Program.length st.Pass.original;
      distilled_static = Program.length l.Pass.distilled;
      forks_inserted = List.length task_entries;
      branches_hardened = List.length st.Pass.hardened;
      dead_writes_removed = counter_total steps "dead_writes_removed";
      stores_removed = counter_total steps "stores_removed";
      blocks_dropped = l.Pass.blocks_dropped;
      estimated_dynamic_original =
        st.Pass.profile.Profile.dynamic_instructions;
      estimated_dynamic_distilled = l.Pass.estimated_dynamic;
    }
  in
  {
    original = st.Pass.original;
    distilled = l.Pass.distilled;
    task_entries;
    entry_map = l.Pass.entry_map;
    pc_map = l.Pass.pc_map;
    stats;
    steps;
    violations;
  }

(* --- driver -------------------------------------------------------- *)

(* [code] is a copy of the working code as it stands before [pass]; the
   pass rewrites [st.code] in place, so its [after] is a copy too (and a
   layout pass's image is copied as well: a later pass may still patch
   it). *)
let distill ?options ?passes:(ps = default_passes ()) ?(check = false) p
    profile =
  let exec (st, steps, code) (pass : Pass.t) =
    let st, stat = pass.Pass.apply st in
    let violations =
      if check then Check.after ~before:code st pass stat else []
    in
    let at_original c =
      Program.make ~base:st.Pass.original.Program.base
        ~entry:st.Pass.original.Program.entry c
    in
    let code' = Array.copy st.Pass.code in
    let after =
      match (pass.Pass.kind, st.Pass.layout) with
      | Pass.Layout, Some l ->
        let d = l.Pass.distilled in
        { d with Program.code = Array.copy d.Program.code }
      | _ -> at_original code'
    in
    let step =
      {
        index = List.length steps;
        pass;
        stat;
        violations;
        before = at_original code;
        after;
      }
    in
    (st, step :: steps, code')
  in
  let st = Pass.init ?options p profile in
  let acc = List.fold_left exec (st, [], Array.copy st.Pass.code) ps in
  (* a pipeline with no layout pass still yields a complete package *)
  let st, steps, _ =
    match acc with
    | st, _, _ when st.Pass.layout = None -> exec acc Pass.finish_layout
    | acc -> acc
  in
  let steps = List.rev steps in
  let per_pass = List.concat_map (fun (s : step) -> s.violations) steps in
  let final_vs = if check then Check.final st else [] in
  package st steps (per_pass @ final_vs)

let distilled_entry_for t orig_pc = Hashtbl.find_opt t.entry_map orig_pc
let is_task_entry t pc = Hashtbl.mem t.entry_map pc

(* --- per-pass stats table ------------------------------------------ *)

let pp_steps fmt d =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i (s : step) ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt "%2d  %a" s.index Pass.pp_pstat s.stat;
      List.iter
        (fun v -> Format.fprintf fmt "@,      ! %a" Check.pp_violation v)
        s.violations)
    d.steps;
  Format.fprintf fmt "@]"

(* --- listings, diffs and the JSON dump ----------------------------- *)

let render p = Format.asprintf "%a" Program.pp p

(* Plain LCS line diff, unified-ish: changed lines prefixed with -/+,
   unchanged runs elided down to a one-line marker. Listings here are at
   most a few thousand lines; fall back to a whole-file dump if the
   quadratic table would be silly. *)
let diff_lines before after =
  let a = Array.of_list before and b = Array.of_list after in
  let n = Array.length a and m = Array.length b in
  if n * m > 4_000_000 then
    [ Printf.sprintf "@ listings too large to diff (%d/%d lines)" n m ]
  else begin
    let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = n - 1 downto 0 do
      for j = m - 1 downto 0 do
        lcs.(i).(j) <-
          (if String.equal a.(i) b.(j) then 1 + lcs.(i + 1).(j + 1)
           else max lcs.(i + 1).(j) lcs.(i).(j + 1))
      done
    done;
    let out = ref [] in
    let same = ref 0 in
    let flush_same () =
      if !same > 0 then out := Printf.sprintf "@ %d unchanged" !same :: !out;
      same := 0
    in
    let rec walk i j =
      if i < n && j < m && String.equal a.(i) b.(j) then begin
        incr same;
        walk (i + 1) (j + 1)
      end
      else if i < n && (j = m || lcs.(i + 1).(j) >= lcs.(i).(j + 1)) then begin
        flush_same ();
        out := ("-" ^ a.(i)) :: !out;
        walk (i + 1) j
      end
      else if j < m then begin
        flush_same ();
        out := ("+" ^ b.(j)) :: !out;
        walk i (j + 1)
      end
    in
    walk 0 0;
    flush_same ();
    List.rev !out
  end

let step_diff (s : step) =
  let split p = String.split_on_char '\n' (render p) in
  let header =
    [
      Printf.sprintf "--- before %s" s.pass.Pass.name;
      Printf.sprintf "+++ after  %s (%s)" s.pass.Pass.name
        (Format.asprintf "%a" Pass.pp_pstat s.stat);
    ]
  in
  let body = diff_lines (split s.before) (split s.after) in
  let violations =
    List.map
      (fun v -> Format.asprintf "! %a" Check.pp_violation v)
      s.violations
  in
  String.concat "\n" (header @ violations @ body) ^ "\n"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let step_json (s : step) =
  let detail =
    s.stat.Pass.detail
    |> List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v)
    |> String.concat ", "
  in
  let violations =
    s.violations
    |> List.map (fun v ->
           Printf.sprintf "\"%s\""
             (json_escape (Format.asprintf "%a" Check.pp_violation v)))
    |> String.concat ", "
  in
  Printf.sprintf
    "    { \"index\": %d, \"pass\": \"%s\", \"kind\": \"%s\", \"rewrites\": \
     %d, \"detail\": { %s }, \"violations\": [ %s ] }"
    s.index
    (json_escape s.pass.Pass.name)
    (match s.pass.Pass.kind with
    | Pass.Rewrite -> "rewrite"
    | Pass.Analysis -> "analysis"
    | Pass.Layout -> "layout")
    s.stat.Pass.rewrites detail violations

let to_json d =
  let s = d.stats in
  Printf.sprintf
    "{\n  \"passes\": [\n%s\n  ],\n  \"summary\": { \"original_static\": %d, \
     \"distilled_static\": %d, \"forks\": %d, \"blocks_dropped\": %d, \
     \"estimated_dynamic_original\": %d, \"estimated_dynamic_distilled\": %d \
     },\n  \"violations\": %d\n}\n"
    (String.concat ",\n" (List.map step_json d.steps))
    s.original_static s.distilled_static s.forks_inserted s.blocks_dropped
    s.estimated_dynamic_original s.estimated_dynamic_distilled
    (List.length d.violations)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let dump ~dir d =
  mkdir_p dir;
  let write name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    path
  in
  let diffs =
    List.map
      (fun s ->
        write
          (Printf.sprintf "%02d-%s.diff" s.index s.pass.Pass.name)
          (step_diff s))
      d.steps
  in
  let json = write "pipeline.json" (to_json d) in
  diffs @ [ json ]
