(** The one timing loop behind every bench guard (TRACEG FAULTG POOLG
    SBLKG SJRNLG; ADPTG records a deterministic row). A guard times a
    baseline leg [a] against a candidate leg [b]:

    - one untimed warm-up run of each leg;
    - [reps] interleaved reps of a, b, a, each after a major collection,
      so whatever ran before (E1 leaves a large heap) cannot skew one
      side; the best of each side is kept and the two baseline minima
      give the clock noise;
    - a leg returns a check to run after the clock stops: it verifies
      the run against SEQ and yields the simulated cycles it produced.
      Every run of either leg must match the warm-up of [a] bit for
      bit, as must each extra config pair in [same].

    The verdict itself is {!Mssp_metrics.Guard.verdict}. Each guard
    appends one {!row}; the bench writes them all to the [guards] list
    of the --json report before deciding its exit code, so a tripped
    bound never loses its numbers. *)

module V = Mssp_metrics.Guard
module Tjson = Mssp_trace.Tjson

(** labelled simulated cycle counts, e.g. [("vecsum@4", 153280)] *)
type cycles = (string * int) list

(** one run of a leg; the returned check is not timed *)
type leg = unit -> unit -> cycles

type row = {
  name : string;
  a : string;
  b : string;
  a_s : float option;  (** [None] on a deterministic (cycle-ratio) row *)
  b_s : float option;
  ratio : float;
  bound : V.bound;
  noise : float;
  verdict : V.verdict;
  cycles : cycles;
  instructions : int option;  (** retired instructions per run, micros only *)
}

let rows : row list ref = ref []

let record r =
  rows := r :: !rows;
  Harness.note "%s: ratio %.3f (bound %s, clock noise %.1f%%): %s" r.name
    r.ratio (V.describe r.bound) (r.noise *. 100.)
    (match r.verdict with
    | V.Pass -> "pass"
    | V.Fail -> "FAIL"
    | V.Reported -> "reported, not enforced")

let failure r =
  if r.verdict = V.Fail then
    Some
      (Printf.sprintf "%s: %s vs %s ratio %.3f breaks %s" r.name r.a r.b
         r.ratio (V.describe r.bound))
  else None

let show (c : cycles) =
  String.concat ", " (List.map (fun (l, n) -> Printf.sprintf "%s %d" l n) c)

let run ?(same = []) ?instructions ~reps ~bound ~gate name
    (a, (run_a : leg)) (b, (run_b : leg)) =
  let check x y =
    if x <> y then
      failwith
        (Printf.sprintf "%s: %s and %s disagree on cycles (%s | %s)" name a b
           (show x) (show y))
  in
  let extra =
    List.concat_map
      (fun ((fa : leg), (fb : leg)) ->
        let x = fa () () in
        check x (fb () ());
        x)
      same
  in
  let warm = run_a () () in
  check warm (run_b () ());
  let best = [| infinity; infinity; infinity |] in
  let timed i f =
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    let verify = f () in
    let t = Unix.gettimeofday () -. t0 in
    check warm (verify ());
    if t < best.(i) then best.(i) <- t
  in
  for _ = 1 to reps do
    timed 0 run_a;
    timed 1 run_b;
    timed 2 run_a
  done;
  let noise = V.noise best.(0) best.(2) in
  let a_s = Float.min best.(0) best.(2) and b_s = best.(1) in
  let ratio = V.ratio bound ~a:a_s ~b:b_s in
  let cores = Domain.recommended_domain_count () in
  Harness.note "%s %.4fs   %s %.4fs   (min of %d, %d host core%s)" a a_s b b_s
    reps cores
    (if cores = 1 then "" else "s");
  record
    {
      name;
      a;
      b;
      a_s = Some a_s;
      b_s = Some b_s;
      ratio;
      bound;
      noise;
      verdict = V.verdict bound gate ~cores ~noise ratio;
      cycles = warm @ extra;
      instructions;
    }

(* a guard over deterministic simulated cycles: no clock, always
   enforced *)
let deterministic ~bound ~ratio name (a, b) cycles =
  record
    {
      name;
      a;
      b;
      a_s = None;
      b_s = None;
      ratio;
      bound;
      noise = 0.;
      verdict = V.verdict bound V.Always ~cores:1 ~noise:0. ratio;
      cycles;
      instructions = None;
    }

let to_json r =
  let num = Harness.json_float in
  let secs = function Some s -> num s | None -> Tjson.Null in
  Tjson.Obj
    ([
       ("name", Tjson.Str r.name);
       ("a", Tjson.Str r.a);
       ("b", Tjson.Str r.b);
       ("a_s", secs r.a_s);
       ("b_s", secs r.b_s);
       ("ratio", num r.ratio);
       ("bound", Tjson.Str (V.describe r.bound));
       ("noise", num r.noise);
       ("enforced", Tjson.Bool (r.verdict <> V.Reported));
       (* whether the bound held, enforced or not *)
       ("passed", Tjson.Bool (V.holds r.bound r.ratio));
       ("cycles", Tjson.Obj (List.map (fun (l, n) -> (l, Tjson.Int n)) r.cycles));
     ]
    @
    match r.instructions with
    | Some n -> [ ("instructions", Tjson.Int n) ]
    | None -> [])
