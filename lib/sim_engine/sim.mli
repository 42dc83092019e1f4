(** Discrete-event simulation kernel.

    Events are thunks scheduled at absolute times; {!run} drains them in
    time order (FIFO among simultaneous events, so runs are
    deterministic). Handlers may schedule further events.

    The queue is a binary min-heap on [(time, insertion sequence)] held
    in parallel arrays, one column per entry: the time, the sequence
    number, the epoch stamp and the thunk. Scheduling and popping
    allocate nothing once the arrays have grown; a scheduled event costs
    only its thunk.

    Cancellation uses the epoch idiom rather than removal from the
    queue: {!schedule_guarded} stamps an event with the current
    {!epoch}, and {!run} drops it on arrival if {!bump_epoch} has moved
    the epoch on since. This matches how the MSSP machine discards
    in-flight work wholesale. *)

type t

val create : unit -> t

val now : t -> int
(** Current simulation time (cycles). *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** Schedule a thunk [delay ≥ 0] cycles from now; no epoch bump
    cancels it. *)

val schedule_guarded : t -> delay:int -> (unit -> unit) -> unit
(** Like {!schedule}, but stamped with the current {!epoch}: the thunk
    is dropped if the epoch has changed by the time it is popped. *)

type outcome = Drained | Hit_limit

val run : ?limit:int -> ?admit:(unit -> bool) -> t -> outcome
(** Execute events in time order until the queue drains or the next
    event's time would exceed [limit] (default: no limit).

    Each popped event advances {!now} to its time and counts in
    {!executed}; then [admit ()] is called (default: always [true]),
    and the thunk runs only if [admit] returned [true] and the event is
    not stale. [admit] therefore sees every pop, stale ones included,
    before the epoch check: the machine stops, enforces its cycle limit
    and polls its interrupt hook there. *)

val scheduled : t -> int
(** Total events ever scheduled on this kernel (trace counter). *)

val executed : t -> int
(** Total events popped, stale and unadmitted ones included (trace
    counter; [scheduled - executed] = still queued or abandoned). *)

(** {1 Epoch-based cancellation} *)

type epoch = int

val epoch : t -> epoch

val bump_epoch : t -> unit
(** Invalidate every event {!schedule_guarded} stamped with the current
    epoch. *)
