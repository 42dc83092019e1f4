(** The SEQ reference machine (paper §4.1).

    Runs a program on a {!Mssp_state.Full.t} with no speculation — the
    model against which MSSP's correctness is measured, and the functional
    core of the sequential baseline.

    Whole-run entry points ({!run}, {!run_until}) execute through the
    direct step ({!Exec.exec}), fetching through memory and decoding
    through the machine's decoder; so does the profiler
    ([Mssp_profile.Profile.collect]), which inlines the same loop to
    observe each instruction. {!step}, {!next}, {!seq} and
    {!seq_in_place} single-step the specification ({!Exec.step}): the
    verification shadow and the formal models see the plain
    {!Exec.step} loop. A whole run and a loop of {!step} agree on the
    result and on the instruction/load/store counters (test_sblock). *)

type stop = Halted | Faulted of Exec.fault | Out_of_fuel

type t = {
  state : Mssp_state.Full.t;
  mutable stopped : stop option;
  mutable instructions : int;  (** dynamic instructions executed *)
  mutable loads : int;
      (** memory reads, instruction fetches included (trace counter) *)
  mutable stores : int;  (** memory writes (trace counter) *)
  read : Mssp_state.Cell.t -> int option;
      (** executor read callback over [state], built once at creation so
          the step loop allocates no closures *)
  write : Mssp_state.Cell.t -> int -> unit;  (** executor write callback *)
  decode : pc:int -> word:int -> Mssp_isa.Instr.t option;
      (** the direct step's decoder (agrees with [Instr.decode]) *)
}

val of_program : Mssp_isa.Program.t -> t
(** Fresh machine with the program loaded and PC at its entry. The
    direct step decodes through the program's pre-decoded image. *)

val of_state :
  ?decode:(pc:int -> word:int -> Mssp_isa.Instr.t option) ->
  Mssp_state.Full.t ->
  t
(** Machine over an existing state (not copied). [decode] (default
    {!Exec.default_decode}) must agree with
    [Instr.decode] — typically a {!Mssp_isa.Program.image_decoder} over
    the programs loaded in the state. Fetch always reads the state, and
    an image decoder checks each fetched word against its image, so
    stores to code from anywhere — self-modifying code, a direct
    [Full.set_mem] between calls — need no notification. *)

val step : t -> bool
(** Execute one instruction on the specification ({!Exec.step}).
    [false] once the machine has halted or faulted (no state change
    then). *)

val run : ?fuel:int -> t -> stop
(** Run until [Halt], a fault, or [fuel] instructions (default 100M).
    Fuel counts instructions of this call, checked before each one. *)

val run_until :
  t ->
  fuel:int ->
  min_steps:int ->
  at:(int -> bool) ->
  [ `At_entry | `Fuel | `Stopped ]
(** Run until the PC {e after} a retired instruction satisfies [at]
    (checked only once at least [min_steps] instructions have retired
    in this call), fuel runs out, or the machine halts/faults
    ([`Stopped], with [stopped] set). [at] is checked after each
    instruction and wins over fuel when both hold at the same boundary;
    fuel is checked before each instruction. This is the recovery
    driver: sequential re-execution to the next checkpoint entry. *)

val next : Mssp_state.Full.t -> Mssp_state.Full.t
(** The paper's [next(S)]: a fresh state one instruction ahead of [S].
    Total: halted/faulted states map to themselves. [S] is not modified. *)

val seq : Mssp_state.Full.t -> int -> Mssp_state.Full.t
(** The paper's [seq(S, n)]: [n] instructions ahead of [S] (fewer if the
    machine halts; [next] is a fixed point there). [S] is not modified. *)

val seq_in_place : Mssp_state.Full.t -> int -> stop option
(** Advance a state [n] instructions in place; [None] if all [n] executed
    without stopping. The verification shadow uses this to avoid copies. *)

val output : Mssp_state.Full.t -> int list
(** The architected output stream: values emitted by [Out], oldest
    first. *)

val run_program : ?fuel:int -> ?superblock:bool -> Mssp_isa.Program.t -> t
(** Convenience: load, run to completion, return the machine.
    [superblock] has no effect: it is kept only because the repo
    benchmark passes [~superblock:true], and goes with that pin, like
    [Config.superblock]. *)
