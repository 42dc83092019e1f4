(* The event queue is a binary min-heap on [(time, seq)] held in
   parallel arrays: an entry is a column across [times], [seqs],
   [stamps] and [thunks], so pushing and popping allocate nothing once
   the arrays have grown. [seq] is the insertion number, which makes
   equal times pop FIFO. [stamps] holds the epoch an event was
   scheduled under, or [sticky] for one no epoch bump cancels. *)
type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable stamps : int array;
  mutable thunks : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  mutable time : int;
  mutable current_epoch : int;
  mutable scheduled : int;
  mutable executed : int;
}

type epoch = int

let sticky = -1
let nothing () = ()

let create () =
  {
    times = [||];
    seqs = [||];
    stamps = [||];
    thunks = [||];
    size = 0;
    next_seq = 0;
    time = 0;
    current_epoch = 0;
    scheduled = 0;
    executed = 0;
  }

let now s = s.time

let grow s =
  let cap = max 16 (2 * s.size) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 s.size;
    b
  in
  s.times <- extend s.times 0;
  s.seqs <- extend s.seqs 0;
  s.stamps <- extend s.stamps 0;
  s.thunks <- extend s.thunks nothing

(* [(time, seq)] of slot [i] orders before [(time, seq)] *)
let[@inline] before s i time seq =
  let ti = Array.unsafe_get s.times i in
  ti < time || (ti = time && Array.unsafe_get s.seqs i < seq)

let[@inline] put s i time seq stamp thunk =
  Array.unsafe_set s.times i time;
  Array.unsafe_set s.seqs i seq;
  Array.unsafe_set s.stamps i stamp;
  Array.unsafe_set s.thunks i thunk

let[@inline] move s ~src ~dst =
  put s dst
    (Array.unsafe_get s.times src)
    (Array.unsafe_get s.seqs src)
    (Array.unsafe_get s.stamps src)
    (Array.unsafe_get s.thunks src)

(* the hole at [i] moves up past every parent the entry orders before;
   the entry lands where it stops *)
let rec sift_up s i time seq stamp thunk =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before s parent time seq) then begin
    move s ~src:parent ~dst:i;
    sift_up s parent time seq stamp thunk
  end
  else put s i time seq stamp thunk

(* the hole at [i] moves down past every smaller child *)
let rec sift_down s i time seq stamp thunk =
  let l = (2 * i) + 1 in
  if l >= s.size then put s i time seq stamp thunk
  else begin
    let r = l + 1 in
    let c =
      if r < s.size
         && before s r (Array.unsafe_get s.times l) (Array.unsafe_get s.seqs l)
      then r
      else l
    in
    if before s c time seq then begin
      move s ~src:c ~dst:i;
      sift_down s c time seq stamp thunk
    end
    else put s i time seq stamp thunk
  end

let push s ~delay stamp thunk =
  if delay < 0 then invalid_arg "Sim.schedule: negative delay";
  s.scheduled <- s.scheduled + 1;
  if s.size = Array.length s.times then grow s;
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  s.size <- s.size + 1;
  sift_up s (s.size - 1) (s.time + delay) seq stamp thunk

let schedule s ~delay thunk = push s ~delay sticky thunk
let schedule_guarded s ~delay thunk = push s ~delay s.current_epoch thunk

type outcome = Drained | Hit_limit

let admit_all () = true

(* Pop the head into the clock and run it. The vacated last slot drops
   its thunk, so a run does not keep dead handlers reachable. *)
let step s admit =
  let thunk = Array.unsafe_get s.thunks 0 in
  let stamp = Array.unsafe_get s.stamps 0 in
  s.time <- Array.unsafe_get s.times 0;
  let last = s.size - 1 in
  s.size <- last;
  if last > 0 then
    sift_down s 0
      (Array.unsafe_get s.times last)
      (Array.unsafe_get s.seqs last)
      (Array.unsafe_get s.stamps last)
      (Array.unsafe_get s.thunks last);
  Array.unsafe_set s.thunks last nothing;
  s.executed <- s.executed + 1;
  if admit () && (stamp = sticky || stamp = s.current_epoch) then thunk ()

let run ?(limit = max_int) ?(admit = admit_all) s =
  let rec go () =
    if s.size = 0 then Drained
    else if Array.unsafe_get s.times 0 > limit then Hit_limit
    else begin
      step s admit;
      go ()
    end
  in
  go ()

let scheduled s = s.scheduled
let executed s = s.executed
let epoch s = s.current_epoch
let bump_epoch s = s.current_epoch <- s.current_epoch + 1
