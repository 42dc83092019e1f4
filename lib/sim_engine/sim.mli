(** Discrete-event simulation kernel.

    Events are thunks scheduled at absolute times; {!run} drains them in
    time order (FIFO among simultaneous events, so runs are
    deterministic). Handlers may schedule further events.

    Cancellation uses the epoch idiom rather than removal from the queue:
    components that can be squashed capture their current {!epoch} when
    scheduling and drop the event on arrival if the epoch has moved on
    (see {!val-cancelled}). This matches how the MSSP machine discards
    in-flight work wholesale. *)

type t

val create : unit -> t

val now : t -> int
(** Current simulation time (cycles). *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** Schedule a thunk [delay ≥ 0] cycles from now. *)

type outcome = Drained | Hit_limit

val run : ?limit:int -> t -> outcome
(** Execute events in time order until the queue drains or simulated time
    would exceed [limit] (default: no limit). *)

val scheduled : t -> int
(** Total events ever scheduled on this kernel (trace counter). *)

val executed : t -> int
(** Total events popped and run, stale epoch-guarded ones included
    (trace counter; [scheduled - executed] = still queued or
    abandoned). *)

(** {1 Epoch-based cancellation} *)

type epoch = int

val epoch : t -> epoch
val bump_epoch : t -> unit
(** Invalidate every event guarded by the current epoch. *)

val cancelled : t -> epoch -> bool
(** Whether an epoch captured earlier is now stale. Typical use:
    {[
      let ep = Sim.epoch sim in
      Sim.schedule sim ~delay (fun () ->
          if not (Sim.cancelled sim ep) then ...)
    ]} *)
