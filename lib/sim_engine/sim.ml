type t = {
  queue : (unit -> unit) Heap.t;
  mutable time : int;
  mutable current_epoch : int;
  mutable scheduled : int;
  mutable executed : int;
}

type epoch = int

let create () =
  { queue = Heap.create (); time = 0; current_epoch = 0; scheduled = 0;
    executed = 0 }
let now s = s.time

let schedule s ~delay thunk =
  if delay < 0 then invalid_arg "Sim.schedule: negative delay";
  s.scheduled <- s.scheduled + 1;
  Heap.push s.queue ~key:(s.time + delay) thunk

type outcome = Drained | Hit_limit

let run ?limit s =
  let over_limit () =
    match (limit, Heap.peek_key s.queue) with
    | Some l, Some k -> k > l
    | _, _ -> false
  in
  let step () =
    match Heap.pop s.queue with
    | None -> false
    | Some (time, thunk) ->
      s.time <- time;
      s.executed <- s.executed + 1;
      thunk ();
      true
  in
  let rec go () =
    if over_limit () then Hit_limit
    else if step () then go ()
    else Drained
  in
  go ()

let scheduled s = s.scheduled
let executed s = s.executed
let epoch s = s.current_epoch
let bump_epoch s = s.current_epoch <- s.current_epoch + 1
let cancelled s ep = ep <> s.current_epoch
