(* Live-in value predictors. Three composable components — last-value,
   stride and finite-context — are trained online from the values the
   verification unit observes in architected state, plus an optional
   warm-up from the profiler's per-cell observation streams. A
   deterministic tournament selects among them per cell by saturating
   confidence counters, with a seeded hash breaking exact ties so runs
   are bit-identical on every host (see HACKING.md "Live-in prediction
   and the adaptation loop").

   Correctness never depends on a prediction: a wrong refinement is a
   live-in mismatch the machine squashes and absorbs, exactly like a
   stale master value. The predictors only move the hit rate. *)

module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Profile = Mssp_profile.Profile

type mode = Off | Last_value | Stride | Context | Tournament | Broken

let mode_to_string = function
  | Off -> "off"
  | Last_value -> "last-value"
  | Stride -> "stride"
  | Context -> "context"
  | Tournament -> "tournament"
  | Broken -> "broken"

let mode_of_string = function
  | "off" -> Some Off
  | "last-value" | "last" -> Some Last_value
  | "stride" -> Some Stride
  | "context" -> Some Context
  | "tournament" -> Some Tournament
  | "broken" -> Some Broken
  | _ -> None

let modes = [ Off; Last_value; Stride; Context; Tournament ]
let pp_mode fmt m = Format.pp_print_string fmt (mode_to_string m)

(* --- per-cell state -------------------------------------------------- *)

let history_window = 4
let conf_max = 7

let conf_threshold = 4
(** a component only overrides a live-in once it has proven itself: at
    least two more hits than misses from the saturating counter's floor *)

type cstate = {
  mutable seen : int;
  mutable first : int;  (** first observation ever — the Broken stale value *)
  mutable last : int;
  mutable delta : int;
  mutable locked : int;  (** consecutive confirmations of [delta] *)
  hist : int array;  (** most recent last; valid prefix is [hist_len] *)
  mutable hist_len : int;
  ctx : (int, int) Hashtbl.t;  (** history hash -> predicted next value *)
  conf : int array;  (** per component: 0 last-value, 1 stride, 2 context *)
  mutable mconf : int;
      (** the MASTER's confidence for this cell — the baseline every
          component must beat before it may override. Starts saturated:
          the distilled master is trusted until its supplied values are
          seen to miss (post-elision residual reads are exactly where
          that happens) *)
}

let fresh_cstate () =
  {
    seen = 0;
    first = 0;
    last = 0;
    delta = 0;
    locked = 0;
    hist = Array.make history_window 0;
    hist_len = 0;
    ctx = Hashtbl.create 8;
    conf = Array.make 3 0;
    mconf = conf_max;
  }

type t = {
  mode : mode;
  seed : int;
  cells : (Cell.t, cstate) Hashtbl.t;
}

let create ?(seed = 0x5bd1e995) mode = { mode; seed; cells = Hashtbl.create 64 }
let mode t = t.mode

let component_names = [| "last-value"; "stride"; "context" |]

let ctx_hash cs =
  let h = ref 0 in
  for i = 0 to cs.hist_len - 1 do
    h := (!h * 31) + cs.hist.(i)
  done;
  !h land max_int

(* Component predictions given the current training state. [None] means
   the component has not seen enough to speak. *)
let component_predict cs = function
  | 0 -> if cs.seen >= 1 then Some cs.last else None
  | 1 -> if cs.seen >= 2 then Some (cs.last + cs.delta) else None
  | 2 ->
    if cs.hist_len = history_window then Hashtbl.find_opt cs.ctx (ctx_hash cs)
    else None
  | _ -> None

let cstate_of t cell =
  match Hashtbl.find_opt t.cells cell with
  | Some cs -> cs
  | None ->
    let cs = fresh_cstate () in
    Hashtbl.add t.cells cell cs;
    cs

let observe t cell actual =
  let cs = cstate_of t cell in
  (* score each component's standing prediction before training on the
     new observation: hit +1, miss -2, saturating in [0, conf_max] *)
  for i = 0 to 2 do
    match component_predict cs i with
    | None -> ()
    | Some p ->
      cs.conf.(i) <-
        (if p = actual then min conf_max (cs.conf.(i) + 1)
         else max 0 (cs.conf.(i) - 2))
  done;
  (* finite-context: learn "this history leads to [actual]" *)
  if cs.hist_len = history_window then Hashtbl.replace cs.ctx (ctx_hash cs) actual;
  (* stride: a repeated delta locks on; ≤3 observations for affine *)
  if cs.seen >= 1 then begin
    let d = actual - cs.last in
    if cs.seen >= 2 && d = cs.delta then cs.locked <- cs.locked + 1
    else cs.locked <- 0;
    cs.delta <- d
  end;
  (* history ring, most recent last *)
  if cs.hist_len < history_window then begin
    cs.hist.(cs.hist_len) <- actual;
    cs.hist_len <- cs.hist_len + 1
  end
  else begin
    Array.blit cs.hist 1 cs.hist 0 (history_window - 1);
    cs.hist.(history_window - 1) <- actual
  end;
  if cs.seen = 0 then cs.first <- actual;
  cs.last <- actual;
  cs.seen <- cs.seen + 1

(* Score the MASTER's checkpoint value for a cell against the actual
   architected value at verification — the same +1/-2 saturating rule as
   the components, but starting from full trust. A master that keeps
   computing a cell correctly keeps [mconf] pinned at the ceiling, and
   no component ever overrides it; a master that stopped computing the
   cell (strongly-live elision) misses repeatedly, [mconf] collapses,
   and the tournament takes the cell over. *)
let observe_master t cell ~supplied ~actual =
  let cs = cstate_of t cell in
  cs.mconf <-
    (if supplied = actual then min conf_max (cs.mconf + 1)
     else max 0 (cs.mconf - 2))

let master_confidence t cell =
  match Hashtbl.find_opt t.cells cell with
  | None -> conf_max
  | Some cs -> cs.mconf

(* Seeded deterministic tie-break: a small integer hash of (seed, cell,
   component). No Random state anywhere — the same seed gives the same
   winner on every host. *)
let tie_rank t cell i =
  let h = (t.seed lxor (Cell.hash cell * 0x9e3779b1)) + (i * 0x85ebca6b) in
  let h = h lxor (h lsr 13) in
  (h * 0xc2b2ae35) land max_int

(* The tournament pick for a cell: among components that have a
   prediction AND confidence >= threshold, the highest-confidence one
   (seeded tie-break on equal confidence). *)
let tournament_pick t cs cell =
  let best = ref None in
  for i = 0 to 2 do
    match component_predict cs i with
    | None -> ()
    | Some v -> (
      if cs.conf.(i) >= conf_threshold then
        match !best with
        | None -> best := Some (i, v)
        | Some (j, _) ->
          if
            cs.conf.(i) > cs.conf.(j)
            || (cs.conf.(i) = cs.conf.(j)
               && tie_rank t cell i > tie_rank t cell j)
          then best := Some (i, v))
  done;
  !best

let single_pick cs i =
  match component_predict cs i with
  | Some v when cs.conf.(i) >= conf_threshold -> Some v
  | Some _ | None -> None

(* The mode's pick for a cell with the confidence backing it. [Broken]
   claims unbounded confidence for its stale value — the deliberate
   inflated-confidence bug the mutation smoke test needs. *)
let pick_with_conf t cell =
  match (t.mode, Hashtbl.find_opt t.cells cell) with
  | Off, _ | _, None -> None
  | Broken, Some cs -> if cs.seen >= 1 then Some (max_int, cs.first) else None
  | Last_value, Some cs ->
    Option.map (fun v -> (cs.conf.(0), v)) (single_pick cs 0)
  | Stride, Some cs -> Option.map (fun v -> (cs.conf.(1), v)) (single_pick cs 1)
  | Context, Some cs -> Option.map (fun v -> (cs.conf.(2), v)) (single_pick cs 2)
  | Tournament, Some cs ->
    Option.map (fun (i, v) -> (cs.conf.(i), v)) (tournament_pick t cs cell)

let predict t cell = Option.map snd (pick_with_conf t cell)

(* Refinement at checkpoint construction: override live-in bindings the
   predictor is confident about — confident meaning STRICTLY more
   confident than the master itself, whose value the binding carries.
   The master is the incumbent component of the tournament: on cells it
   keeps computing correctly (the overwhelming majority — its squash
   rate without a predictor is near zero) its saturated [mconf] makes
   overrides impossible, so turning the predictor on cannot regress a
   healthy run. Only cells the master demonstrably stopped predicting
   (elided chains' residual reads) are taken over. [Pc] is control,
   never a value to predict. The result keeps the fragment's cell set —
   only values move. *)
let refine t frag =
  if t.mode = Off then frag
  else
    Fragment.fold
      (fun c v acc ->
        match c with
        | Cell.Pc -> Fragment.add c v acc
        | _ -> (
          match pick_with_conf t c with
          | Some (conf, p) when p <> v && conf > master_confidence t c ->
            Fragment.add c p acc
          | Some _ | None -> Fragment.add c v acc))
      frag Fragment.empty

(* --- introspection (tests, tooling) ---------------------------------- *)

let components t cell =
  match Hashtbl.find_opt t.cells cell with
  | None -> Array.to_list (Array.map (fun n -> (n, None, 0)) component_names)
  | Some cs ->
    List.init 3 (fun i ->
        (component_names.(i), component_predict cs i, cs.conf.(i)))

let chosen t cell =
  match Hashtbl.find_opt t.cells cell with
  | None -> None
  | Some cs ->
    Option.map (fun (i, _) -> component_names.(i)) (tournament_pick t cs cell)

let confidence t cell name =
  match Hashtbl.find_opt t.cells cell with
  | None -> 0
  | Some cs -> (
    match Array.to_list component_names |> List.mapi (fun i n -> (n, i))
          |> List.assoc_opt name with
    | None -> 0
    | Some i -> cs.conf.(i))

(* --- profile warm-up ------------------------------------------------- *)

(* The per-address observation streams the profiler records (satellite of
   the same PR) replayed in ascending address order — deterministic for a
   given profile, regardless of hashtable internals. *)
let warmup_of_profile profile =
  List.map
    (fun addr -> (addr, Profile.cell_observations profile addr))
    (Profile.observed_cells profile)

let warm t bindings =
  List.iter
    (fun (addr, values) ->
      List.iter (fun v -> observe t (Cell.Mem addr) v) values)
    bindings
