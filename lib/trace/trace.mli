(** Structured simulator tracing: the machine's event stream and its
    one fold.

    The machine core emits one {!event} per lifecycle step of every
    speculative task (fork, live-in prediction, slave start/finish,
    verify outcome, commit, squash with a typed reason, recovery,
    restart) plus end-of-run counters. It builds every event on every
    run and adds it to its own {!Summary}, which is where the machine's
    stats come from; a tracer ([Mssp_config.tracer = Some t]) is a bag
    of recording sinks that receives the same events besides.

    Everything downstream is a fold over the stream: {!Summary} is the
    machine's aggregate stats (squash attribution included) rebuilt
    from events alone, {!to_jsonl}/{!of_jsonl} round-trip the stream
    through the on-disk format the golden tests pin down, and {!Chrome}
    exports an [about://tracing] / Perfetto-loadable timeline.

    This library sits below the machine core. Events are plain data;
    {!event.Predict} carries a {!Mssp_state.Live_in.t}. Without a tracer
    the machine passes the checkpoint's own live-in, already allocated,
    and its fold counts the bindings in O(1); with one it passes what
    the fork ships ({!Mssp_state.Live_in.shipped}): the register file,
    the writes of its own fork interval and the whole view's binding
    count, valid after the checkpoint dies. Rendering cells to strings
    happens only in the sinks and serializers, in cell order (the PC,
    the registers by index, memory by ascending address). Use
    {!event_equal}, not [( = )], to compare events. *)

(* --- vocabulary ------------------------------------------------------ *)

type squash_reason =
  | Bad_prediction
      (** a completed task's recorded live-ins disagreed with architected
          state at verify time — the master predicted wrong values *)
  | Fuel_exhausted  (** the task ran out of its instruction budget *)
  | Task_fault of string  (** the task faulted (rendered fault) *)
  | Speculative_io of string  (** task attempted I/O speculatively *)
  | Master_dead
      (** the distilled program halted/faulted/ran away with the window
          empty — nothing to verify, restart via recovery *)

val pp_squash_reason : Format.formatter -> squash_reason -> unit

type verify_outcome =
  | Pass
  | Mismatch of { cell : string; predicted : int; actual : int }
      (** first recorded live-in that disagrees with architected state *)
  | Incomplete of squash_reason
      (** the task never completed; carries the failure, pre-mapped *)

(* --- events ---------------------------------------------------------- *)

type event =
  | Fork of { cycle : int; task : int; entry : int }
      (** master reached a fork marker and cut a checkpoint *)
  | Predict of { cycle : int; task : int; live_in : Mssp_state.Live_in.t }
      (** the checkpoint's predicted live-in, post fault injection —
          what the slave is seeded with. {!Mssp_state.Live_in.shipped}
          when a tracer is attached; JSONL adds its [bindings] count *)
  | Slave_start of { cycle : int; task : int; slave : int }
  | Slave_finish of {
      cycle : int;
      task : int;
      slave : int;
      executed : int;
      ok : bool;
    }
  | Verify of {
      cycle : int;
      task : int;
      live_ins : int;
      outcome : verify_outcome;
    }
  | Commit of { cycle : int; task : int; instructions : int; live_outs : int }
  | Squash of {
      cycle : int;
      task : int option;  (** [None]: master-dead squash, no head task *)
      reason : squash_reason;
      discarded : int;  (** window size thrown away, squashed task included *)
    }
  | Recovery of {
      cycle : int;
      instructions : int;
      from_pc : int;
      to_pc : int;
      loads : int;
      stores : int;
      burst : bool;  (** this segment was a dual-mode sequential burst *)
    }
  | Restart of { cycle : int; pc : int }  (** master reseeded, distilled pc *)
  | Master_stop of { cycle : int; pc : int }
      (** distilled program halted/faulted/ran away at [pc] *)
  | Fault of { cycle : int; surface : string; task : int option }
      (** a fault-plan action fired ([surface] is
          [Mssp_faults.Plan.surface_name]); [task] when the fault
          targets a specific checkpoint/task *)
  | Counter of { cycle : int; name : string; value : int }
      (** end-of-run counter sample (cache, memory image, sim engine) *)
  | Halt of { cycle : int; stop : string }
      (** exactly one per run; [stop] names the machine's stop reason *)

val event_cycle : event -> int

val event_equal : event -> event -> bool
(** Structural equality, with [Predict] live-ins compared by content
    ([Live_in.equal]) rather than representation — a live-in rebuilt
    from JSONL can balance its memory differently from the machine's
    original. *)

val pp_event : Format.formatter -> event -> unit

(* --- tracer and sinks ------------------------------------------------ *)

type sink = event -> unit

type t
(** A tracer: an ordered bag of sinks, every emitted event goes to all of
    them. *)

val create : unit -> t
val attach : t -> sink -> unit

val emit : t -> event -> unit
(** Deliver to every sink, in attach order. The machine calls it for
    each event after adding the event to its own {!Summary}. *)

val recording : unit -> t * (unit -> event list)
(** A tracer with an unbounded in-memory collector attached; the thunk
    returns everything emitted so far, oldest first. *)

module Ring : sig
  (** Bounded in-memory sink: keeps the last [capacity] events and
      drops older ones. The flight-recorder sink for long runs. *)

  type buf

  val create : int -> buf
  val sink : buf -> sink
  val contents : buf -> event list  (** oldest retained first *)

  val dropped : buf -> int
  (** Events the ring has let go, oldest first: [0] iff {!contents} is
      the whole stream so far. *)
end

(* --- serialization --------------------------------------------------- *)

val event_to_json : event -> Tjson.t
val event_of_json : Tjson.t -> (event, string) result

val to_jsonl : event list -> string
(** One event per line, trailing newline. *)

val of_jsonl : string -> (event list, string) result
(** Inverse of {!to_jsonl}; blank lines are skipped, the first bad line
    aborts with its line number. *)

(* --- golden diffing -------------------------------------------------- *)

val diff :
  expected:event list ->
  actual:event list ->
  (int * event option * event option) option
(** Structural comparison. [None] when identical; otherwise the first
    differing position with the event on each side ([None] = stream
    ended). *)

val pp_diff : Format.formatter -> int * event option * event option -> unit

(* --- aggregate fold -------------------------------------------------- *)

module Summary : sig
  (** The attribution fold: run aggregates rebuilt from the stream
      alone, one event at a time. The machine keeps one accumulator per
      run, adds every event it emits, and reads its stats from it
      ([Mssp_core.Mssp_machine.stats]); {!of_events} runs the same fold
      over a recorded or re-parsed stream. [add] updates the record in
      place and allocates only on [Counter] and [Halt] events. *)

  type t = private {
    mutable forks : int;
    mutable slave_starts : int;
    mutable slave_finishes : int;
    mutable slave_busy_cycles : int;
        (** each [Slave_start] to its slave's [Slave_finish], or to the
            next [Squash] or the [Halt], whichever comes first *)
    mutable busy_since : int array;  (** per slave: open interval's start, or -1 *)
    mutable verifies : int;
    mutable commits : int;
    mutable committed_instructions : int;
    mutable committed_live_outs : int;
    mutable live_ins_checked : int;  (** summed over [Verify] events *)
    mutable predicted_bindings : int;  (** summed over [Predict] events *)
    mutable squashes : int;
    mutable discarded : int;  (** summed over [Squash.discarded] *)
    mutable bad_prediction : int;
    mutable fuel_exhausted : int;
    mutable task_fault : int;
    mutable speculative_io : int;
    mutable master_dead : int;  (** the five-way squash-reason breakdown *)
    mutable recoveries : int;
    mutable recovery_instructions : int;
    mutable recovery_loads : int;
    mutable recovery_stores : int;
    mutable bursts : int;
    mutable restarts : int;
    mutable master_stops : int;
    mutable faults : int;  (** [Fault] events (injected fault-plan actions) *)
    mutable counters : (string * int) list;
        (** last sample per name, emit order *)
    mutable halt : string option;
    mutable last_cycle : int;
  }

  val create : unit -> t
  val add : t -> event -> unit
  (** [create ()] has seen no event; [add] folds one more in, in place. *)

  val of_events : event list -> t
  (** [add] over the list, oldest first, into a fresh accumulator. *)

  val squash_mismatch : t -> int
  val squash_task_failed : t -> int
  val squash_master_dead : t -> int
  (** The three-way collapse that [Mssp_core.Mssp_machine.stats] reports
      as [squash_mismatch] / [squash_task_failed] / [squash_master_dead]. *)

  val rows : t -> string list list
  (** [[counter; value]; ...] rows ready for [Metrics.Table.render] /
      [Metrics.Csv.to_string]. *)

  val pp : Format.formatter -> t -> unit
end

(* --- Chrome trace_event export --------------------------------------- *)

module Chrome : sig
  (** Export to the Chrome [trace_event] JSON format (the ["traceEvents"]
      object form), loadable in [about://tracing] and
      {{:https://ui.perfetto.dev}Perfetto}. Slave task executions become
      complete ("X") slices on one track per slave; forks, verifies,
      commits, squashes, recoveries and restarts become instants on the
      master/commit track; counters become "C" samples. Cycles are
      reported as microseconds (1 cycle = 1us). *)

  type t
  (** An export being built: what it renders of the events added so
      far. It keeps no event, so no [Predict] live-in. *)

  val create : unit -> t

  val add : t -> event -> unit
  (** Fold one event in, in stream order. *)

  val to_json : t -> Tjson.t
  (** The export of the events added so far; a slice still open ends at
      the last cycle seen, marked truncated. *)

  val of_events : event list -> Tjson.t
  (** [to_json] of a fresh export with every event added. *)

  val to_string : event list -> string
end
