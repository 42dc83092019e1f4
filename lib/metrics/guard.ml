type bound = At_most of float | At_least of float

type gate =
  | Always
  | Min_cores of int
  | Quiet of { cores : int; noise : float }

type verdict = Pass | Fail | Reported

let ratio bound ~a ~b =
  match bound with At_most _ -> b /. a | At_least _ -> a /. b

let holds bound r =
  match bound with At_most x -> r <= x | At_least x -> r >= x

let noise a1 a2 = Float.abs (a1 -. a2) /. Float.min a1 a2

let enforced gate ~cores ~noise =
  match gate with
  | Always -> true
  | Min_cores n -> cores >= n
  | Quiet q -> cores >= q.cores && noise <= q.noise

let verdict bound gate ~cores ~noise r =
  if not (enforced gate ~cores ~noise) then Reported
  else if holds bound r then Pass
  else Fail

let describe = function
  | At_most x -> Printf.sprintf "b/a <= %.2f" x
  | At_least x -> Printf.sprintf "a/b >= %.2f" x
