(** The bench's guard rows: a ratio of deterministic simulated cycles
    held to a floor ([ratio >= at_least]), enforced on every host. One
    guard is left, ADPTG. Each guard appends one {!row}; the bench
    writes them all to the [guards] list of the --json report before
    deciding its exit code, so a tripped bound never loses its
    numbers. *)

module Tjson = Mssp_trace.Tjson

(** labelled simulated cycle counts, e.g. [("fir static", 857860)] *)
type cycles = (string * int) list

type row = {
  name : string;
  a : string;
  b : string;
  ratio : float;  (** [a / b] *)
  at_least : float;
  cycles : cycles;
}

let rows : row list ref = ref []
let passed r = r.ratio >= r.at_least
let bound r = Printf.sprintf "a/b >= %.2f" r.at_least

let deterministic ~at_least ~ratio name (a, b) cycles =
  let r = { name; a; b; ratio; at_least; cycles } in
  rows := r :: !rows;
  Harness.note "%s: ratio %.3f (bound %s): %s" name ratio (bound r)
    (if passed r then "pass" else "FAIL")

let failure r =
  if passed r then None
  else
    Some
      (Printf.sprintf "%s: %s vs %s ratio %.3f breaks %s" r.name r.a r.b
         r.ratio (bound r))

let to_json r =
  Tjson.Obj
    [
      ("name", Tjson.Str r.name);
      ("a", Tjson.Str r.a);
      ("b", Tjson.Str r.b);
      ("ratio", Harness.json_float r.ratio);
      ("bound", Tjson.Str (bound r));
      ("passed", Tjson.Bool (passed r));
      ( "cycles",
        Tjson.Obj (List.map (fun (l, n) -> (l, Tjson.Int n)) r.cycles) );
    ]
